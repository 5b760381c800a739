// The one owner of admission (§2.3): the admitted set, the per-disk test
// over it (crvol::VolumeAdmissionModel) and the wired buffer memory.
//
// A disk-charged stream costs per-disk interval time. A memory-only stream,
// fed from the stream cache or a multicast group, costs none of its own:
// the disks are charged one shared *fallback reserve*, the largest
// memory-only window, so one fallback to disk never issues I/O the test did
// not cover. Memory is charged as the bytes actually wired: B_i = 2*A_i at
// admission, and a re-rated buffer only grows.

#ifndef SRC_CORE_ADMISSION_CONTROLLER_H_
#define SRC_CORE_ADMISSION_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"
#include "src/volume/volume_admission.h"

namespace cras {

using SessionId = std::int64_t;
inline constexpr SessionId kInvalidSession = -1;

class AdmissionController {
 public:
  using Estimate = crvol::VolumeAdmissionModel::Estimate;
  struct Verdict {
    bool admit = false;
    Estimate estimate;
  };

  // Wires admitted buffers on `kernel` as "cras-buffer", never past
  // `memory_budget_bytes`.
  AdmissionController(crrt::Kernel& kernel, crvol::VolumeAdmissionModel model,
                      std::int64_t memory_budget_bytes);

  // The per-disk model; member state changes (failed, derated) go here.
  crvol::VolumeAdmissionModel& model() { return model_; }
  const crvol::VolumeAdmissionModel& model() const { return model_; }

  // The admitted set with stream `id` at `demand` — a new stream, or an
  // admitted one re-rated — and its recorded verdict. Changes nothing else.
  Verdict Try(SessionId id, const StreamDemand& demand, bool memory_only) const;
  // Admits `id` (or re-rates it) and wires its buffer. Returns the bytes
  // wired for it: B_i, or for a re-rated stream the larger of old and new.
  std::int64_t Commit(SessionId id, const StreamDemand& demand, bool memory_only);
  // Drops `id` from the set and unwires its buffer.
  void Release(SessionId id);
  // Charges memory-only stream `id` disk time from now on (its cache or
  // group feed fell away). Returns whether its class changed.
  bool ChargeDisk(SessionId id);

  // The current set's estimate, and its recorded verdict.
  Estimate Evaluate() const { return EvaluateWith(kInvalidSession, nullptr); }
  bool Admissible() const { return Record(Evaluate(), admitted_.size()); }

  const StreamDemand& demand(SessionId id) const { return admitted_.at(id).demand; }
  bool memory_only(SessionId id) const {
    auto it = admitted_.find(id);
    return it != admitted_.end() && it->second.memory_only;
  }
  std::int64_t reserved_bytes() const { return reserved_bytes_; }

  // Registers decision counters keyed {outcome} and a worst-case interval-I/O
  // histogram. Every Try() and Admissible() then records its verdict, also
  // as an admission_accept/reject flight event (value: worst I/O ms).
  void AttachObs(crobs::Hub* hub);

 private:
  struct Stream {
    StreamDemand demand;
    bool memory_only = false;
    std::int64_t wired_bytes = 0;
  };
  struct ObsState {
    crobs::Hub* hub = nullptr;
    crobs::Counter* accepted = nullptr;
    crobs::Counter* rejected = nullptr;
    crobs::Histogram* worst_io_ms = nullptr;
  };

  // The estimate over the admitted set with `candidate` (if any) standing
  // in for stream `id`.
  Estimate EvaluateWith(SessionId id, const Stream* candidate) const;
  // The model's verdict over `estimate`, recorded to the hub.
  bool Record(const Estimate& estimate, std::size_t stream_count) const;

  crrt::Kernel* kernel_;
  crvol::VolumeAdmissionModel model_;
  std::int64_t memory_budget_bytes_;
  std::map<SessionId, Stream> admitted_;
  std::int64_t reserved_bytes_ = 0;
  std::unique_ptr<ObsState> obs_;
};

}  // namespace cras

#endif  // SRC_CORE_ADMISSION_CONTROLLER_H_
