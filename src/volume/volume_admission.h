// Admission control for a striped volume: the paper's single-disk test
// (formulas (1)-(15), cras::AdmissionModel) run *per disk*, admitting a
// stream set iff every member disk's interval deadline holds and the total
// double-buffer reservation fits the server's wired-memory budget. The
// server runs it through cras::AdmissionController, which owns the admitted
// set, the cache-aware charge and the recorded verdicts.
//
// Demand split. A stream's per-interval window A_i = T*R_i + C_i covers
// consecutive logical bytes, which round-robin striping spreads over the
// array in stripe units. The model charges each disk the balanced share of
// the aggregate demand plus a one-window skew allowance, capped at the
// whole demand:
//
//   A_d = min(A_total, ceil(A_total / N) + min(max_i A_i, stripe_unit))  bytes
//   N_d = min(N_total, ceil(N_total / N) + 2)                            requests
//   admit  <=>  for every disk d:  O_total(N_d) + A_d/D_d  <=  T
//
// The skew terms cover the granularity of the split: a window smaller than
// a stripe unit lands entirely on one disk in a given interval, so disk
// loads fluctuate around A_total/N by up to one window (and an extra
// request) as streams' windows walk across the stripe, and a window
// straddling a unit boundary splits into a second request. Larger transient skew is
// absorbed by the same worst-case pessimism that formulas (14)/(15) already
// carry (Figures 8-9 measure it at 30-70%); bench/scale_striping verifies
// empirically that admitted loads meet their interval deadlines.
//
// On a single-disk volume (N = 1) the cap leaves A_d = A_total and
// N_d = N_total, so the split reproduces cras::AdmissionModel decisions and
// estimates exactly — the Fig. 6/8 regression anchor.
//
// Degraded mode. A parity array (set_parity) keeps serving with one member
// failed (SetMemberFailed), but every logical read that would have landed
// on the dead member becomes N-1 reconstruction reads, one per survivor.
// The dead member carries 1/N of the balanced demand, so each survivor
// picks up an extra 1/N — its worst-case share doubles:
//
//   A_d(degraded) = 2 * (ceil(A_total / N) + min(max_i A_i, stripe_unit))
//   N_d(degraded) = 2 * (ceil(N_total / N) + 2)
//
// and the failed member is charged nothing. A failed member of a
// non-parity array — or a second failure of a parity array — makes any
// non-empty stream set inadmissible: the data is simply gone. Slow (but
// serving) members are modelled heterogeneously via SetMemberParams with
// derated worst-case figures.

#ifndef SRC_VOLUME_VOLUME_ADMISSION_H_
#define SRC_VOLUME_VOLUME_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "src/base/time_units.h"
#include "src/volume/admission.h"

namespace crvol {

using crbase::Duration;

class VolumeAdmissionModel {
 public:
  // Homogeneous array: `disks` members with identical worst-case parameters.
  VolumeAdmissionModel(const cras::DiskParams& params, int disks, Duration interval,
                       std::int64_t max_read_bytes, std::int64_t stripe_unit_bytes);
  // Heterogeneous array: one DiskParams per member (a mixed shelf, or a
  // degraded disk modelled with slower worst-case figures).
  VolumeAdmissionModel(std::vector<cras::DiskParams> per_disk, Duration interval,
                       std::int64_t max_read_bytes, std::int64_t stripe_unit_bytes);

  int disks() const { return static_cast<int>(models_.size()); }

  // ---- array state (degraded-mode variant of the formulas) ----
  // Declares the array redundant: one member failure degrades, not loses.
  void set_parity(bool parity) { parity_ = parity; }
  bool parity() const { return parity_; }
  // Marks member `disk` failed (true) or restored (false).
  void SetMemberFailed(int disk, bool failed);
  int failed_members() const;
  // Replaces member `disk`'s worst-case parameters (a derated/slow member).
  void SetMemberParams(int disk, const cras::DiskParams& params);

  Duration interval() const { return models_.front().interval(); }
  std::int64_t max_read_bytes() const { return models_.front().max_read_bytes(); }
  std::int64_t stripe_unit_bytes() const { return stripe_unit_bytes_; }
  // The paper's single-disk model for member `disk` (formula evaluation,
  // per-disk parameters).
  const cras::AdmissionModel& disk_model(int disk) const {
    return models_[static_cast<std::size_t>(disk)];
  }

  // A_i and B_i = 2*A_i are properties of the stream, not of the array.
  std::int64_t BytesPerInterval(const cras::StreamDemand& demand) const {
    return models_.front().BytesPerInterval(demand);
  }
  std::int64_t BufferBytes(const cras::StreamDemand& demand) const {
    return models_.front().BufferBytes(demand);
  }

  struct DiskEstimate {
    std::int64_t requests = 0;  // N_d
    std::int64_t bytes = 0;     // A_d
    Duration overhead = 0;      // O_total(N_d), that disk's parameters
    Duration transfer = 0;      // A_d / D_d
    cras::OverheadTerms terms;  // the overhead decomposed (audit ledger)
    Duration io_time() const { return overhead + transfer; }
  };

  struct Estimate {
    std::vector<DiskEstimate> per_disk;
    std::int64_t bytes = 0;         // A_total, aggregate over the array
    std::int64_t buffer_bytes = 0;  // B_total
    // The binding constraint: the slowest disk's interval I/O time.
    Duration WorstIoTime() const;
    int BottleneckDisk() const;
  };

  Estimate Evaluate(const std::vector<cras::StreamDemand>& streams) const;

  // Admission: every disk's interval deadline holds and B_total fits.
  bool Admissible(const std::vector<cras::StreamDemand>& streams,
                  std::int64_t memory_budget_bytes) const;
  // The same test over an already-computed estimate of `stream_count`
  // streams: the memory budget, the failed-member rule, and every disk's
  // interval deadline.
  bool Fits(const Estimate& estimate, std::size_t stream_count,
            std::int64_t memory_budget_bytes) const;

 private:
  std::vector<cras::AdmissionModel> models_;
  std::vector<char> failed_;  // per member; char to avoid vector<bool>
  bool parity_ = false;
  std::int64_t stripe_unit_bytes_;
};

}  // namespace crvol

#endif  // SRC_VOLUME_VOLUME_ADMISSION_H_
