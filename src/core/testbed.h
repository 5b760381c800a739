// A fully wired simulated machine: the paper's Gateway2000 P5-100 with
// Real-Time Mach, the Unix server, and a CRAS server over a volume of N
// identical ST32550N disks. The default volume is one disk — the paper's
// rig; options.volume widens it to a striped or parity array.
//
// Used by integration tests, benches, and examples so every experiment runs
// on an identical rig.

#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include <memory>

#include "src/core/cras.h"
#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"
#include "src/ufs/unix_server.h"
#include "src/volume/volume.h"

namespace cras {

struct VolumeTestbedOptions {
  crrt::Kernel::Options kernel;
  crvol::VolumeOptions volume;
  crufs::Ufs::Options ufs;
  crufs::UnixServer::Options unix_server;
  CrasServer::Options cras;
  // Hub configuration (tracing off by default; metrics always on — the
  // registry only holds what attached components register).
  crobs::Hub::Options obs;
  // false: the hub exists but no component attaches to it — the zero-cost
  // baseline of bench/obs_overhead. Everything else leaves this true.
  bool attach_obs = true;
};

// N identical member disks (one by default) behind a striped or parity
// volume (options.volume.parity selects the layout), with the file system
// laid out over the volume's logical block space.
class VolumeTestbed {
 public:
  VolumeTestbed() : VolumeTestbed(VolumeTestbedOptions{}) {}

  explicit VolumeTestbed(const VolumeTestbedOptions& options)
      : kernel(options.kernel),
        hub(kernel.engine(), options.obs),
        volume_owner(crvol::MakeVolume(kernel.engine(), options.volume)),
        volume(*volume_owner),
        fs(UfsOptionsFor(volume, options.ufs)),
        unix_server(kernel, volume, fs, options.unix_server),
        cras_server(kernel, volume, fs,
                    WithObs(options.cras, options.attach_obs ? &hub : nullptr)) {}

  // Starts both servers.
  void StartServers() {
    unix_server.Start();
    cras_server.Start();
  }

  crsim::Engine& engine() { return kernel.engine(); }
  crbase::Time Now() const { return kernel.Now(); }

  crrt::Kernel kernel;
  // Attached to every layer through the CRAS server's options; benches and
  // tests read snapshots (hub.MetricsJson()) or dump traces from here.
  crobs::Hub hub;
  std::unique_ptr<crvol::Volume> volume_owner;
  crvol::Volume& volume;
  crufs::Ufs fs;
  crufs::UnixServer unix_server;
  CrasServer cras_server;

 private:
  static CrasServer::Options WithObs(CrasServer::Options cras, crobs::Hub* hub) {
    cras.obs = hub;
    return cras;
  }

  static crufs::Ufs::Options UfsOptionsFor(const crvol::Volume& volume,
                                           crufs::Ufs::Options ufs) {
    ufs.geometry = volume.geometry();
    ufs.total_sectors = volume.total_sectors();
    if (volume.data_disks() > 1) {
      // A file "stripe" covers one full row of *data* units, so consecutive
      // rate-matched allocations rotate across the members that actually
      // hold data.
      ufs.stripe_unit_sectors = volume.stripe_unit_sectors();
      ufs.stripe_width_sectors = volume.stripe_unit_sectors() * volume.data_disks();
    }
    return ufs;
  }
};

}  // namespace cras

#endif  // SRC_CORE_TESTBED_H_
