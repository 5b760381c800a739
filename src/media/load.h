// Background-load generators used throughout the evaluation:
//
//  * `cat` tasks — low-priority sequential readers that loop over a large
//    file through the Unix server, contending for the disk (the paper runs
//    two of them against every "load" configuration);
//  * CPU burners — timesharing tasks that consume the processor in bursts
//    (Figure 10's competing activity).

#ifndef SRC_MEDIA_LOAD_H_
#define SRC_MEDIA_LOAD_H_

#include <cstdint>
#include <string>

#include "src/base/time_units.h"
#include "src/rtmach/kernel.h"
#include "src/sim/task.h"
#include "src/ufs/unix_server.h"

namespace crmedia {

// Both generators run at timesharing priority. A `cat` reads one 8 KiB block
// per read() call, which triggers the Unix server's 64 KiB clustered
// read-ahead; a CPU hog computes in back-to-back 20 ms bursts. Both sizes are
// constants in load.cc.
struct CatOptions {
  // Pause between reads. Zero models a flat-out `cat` (saturates the disk);
  // a positive value models intermittent activity (a compile, a page-in)
  // that contends in bursts.
  crbase::Duration think_time = 0;
};

// Spawns a thread that reads `inode` sequentially through `server`, forever
// (wrapping at EOF). Detach or hold the returned task.
crsim::Task SpawnCat(crrt::Kernel& kernel, crufs::UnixServer& server, crufs::InodeNumber inode,
                     const std::string& name, const CatOptions& options = {});

// Spawns a compute-bound thread that never blocks for I/O.
crsim::Task SpawnCpuHog(crrt::Kernel& kernel, const std::string& name);

}  // namespace crmedia

#endif  // SRC_MEDIA_LOAD_H_
