// Time-driven shared-memory buffer (§2.4).
//
// The shared buffer between CRAS and a client is indexed by *logical time*,
// not FIFO order. The server puts chunks with their timestamps; a chunk is
// discarded automatically once its timestamp falls behind
// `T_discard = logical_now - J` (J absorbs small jitters). Clients fetch the
// chunk covering any logical time without talking to the server.
//
// This is what decouples the server's constant-rate production from the
// client's arbitrary consumption rate: a client rendering at a third of the
// frame rate simply fetches every third chunk; the skipped ones age out on
// their own. A FIFO buffer would instead fill up and drop *new* data — the
// wrong data — which is the failure the paper designs this around.

#ifndef SRC_CORE_TIME_DRIVEN_BUFFER_H_
#define SRC_CORE_TIME_DRIVEN_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/obs/obs.h"

namespace cras {

using crbase::Duration;
using crbase::Time;

// A resident chunk, as visible to the client through crs_get.
struct BufferedChunk {
  std::int64_t chunk_index = 0;  // position in the stream's chunk index
  Time timestamp = 0;
  Duration duration = 0;
  std::int64_t size = 0;
  Time filled_at = 0;  // real time the data landed in the buffer
};

struct TimeDrivenBufferStats {
  std::int64_t puts = 0;
  std::int64_t get_hits = 0;
  std::int64_t get_misses = 0;
  std::int64_t discarded_obsolete = 0;  // aged out past T_discard
  std::int64_t overflow_evictions = 0;  // capacity pressure (should be 0 when
                                        // admission holds)
  std::int64_t rejected_late = 0;       // arrived already obsolete
  std::int64_t replaced = 0;            // duplicate put superseded a resident chunk
  std::int64_t max_resident_bytes = 0;  // high-water mark of buffer occupancy
};

class TimeDrivenBuffer {
 public:
  // `capacity_bytes` is B_i from the admission test: 2*(T*R_i + C_i).
  // `jitter_allowance` is J.
  TimeDrivenBuffer(std::int64_t capacity_bytes, Duration jitter_allowance);

  std::int64_t capacity_bytes() const { return capacity_bytes_; }
  // Raises the capacity to `capacity_bytes` (a re-rated stream's larger
  // B_i); resident chunks and statistics are kept. Never shrinks.
  void Grow(std::int64_t capacity_bytes) {
    capacity_bytes_ = std::max(capacity_bytes_, capacity_bytes);
  }
  std::int64_t resident_bytes() const { return resident_bytes_; }
  std::size_t resident_chunks() const { return chunks_.size() - head_; }
  Duration jitter_allowance() const { return jitter_allowance_; }
  const TimeDrivenBufferStats& stats() const { return stats_; }

  // Server side: inserts a chunk. `logical_now` drives the discard sweep
  // first; a chunk that is already obsolete on arrival is rejected. Never
  // blocks: under capacity pressure the oldest chunk is evicted (counted —
  // a correctly admitted stream never triggers this).
  void Put(const BufferedChunk& chunk, Time logical_now);

  // Client side (crs_get): the chunk covering logical time `t`, if resident.
  std::optional<BufferedChunk> Get(Time t);

  // Discards every chunk wholly earlier than `logical_now - J`.
  void DiscardObsolete(Time logical_now);

  // Drops everything (crs_seek repositions the stream).
  void Clear();

  // Registers per-stream occupancy/discard instruments keyed {stream}
  // ("s1", "s2", ...): an occupancy gauge (high-water via the snapshot's
  // max), put/discard counters, and an occupancy counter-sample series on
  // the "buffers" trace track.
  void AttachObs(crobs::Hub* hub, const std::string& stream);

  // Points the buffer at the session's frame-trace ring (nullptr detaches).
  // A chunk that ages out, overflows, or arrives late *without ever being
  // consumed* is resolved as missed at `miss_stage` — the last stage it
  // demonstrably reached (kPublished for a server-side buffer, kCompleted
  // for a receive-side reassembly buffer). Resolution is idempotent, so a
  // racing player- or sender-side verdict is safe either way.
  void SetFrameTrace(crobs::SessionTrace* trace,
                     crobs::FrameStage miss_stage = crobs::FrameStage::kPublished);

 private:
  struct ObsState {
    crobs::Hub* hub = nullptr;
    std::uint32_t track = 0;
    std::uint32_t name = 0;
    crobs::Gauge* resident = nullptr;
    crobs::Counter* puts = nullptr;
    crobs::Counter* discarded = nullptr;
    crobs::Counter* evictions = nullptr;
  };

  struct Entry {
    BufferedChunk chunk;
    bool taken = false;  // consumed by Get at least once
  };

  void RecordOccupancy();
  // Frame-trace a chunk leaving the buffer unconsumed (no-op otherwise).
  void NoteDropped(const Entry& entry);
  // Removes the oldest resident chunk from chunks_ (accounting is the
  // caller's), compacting the dead prefix once it outgrows the live part.
  void PopFront();
  // The first (oldest) resident chunk.
  std::vector<Entry>::iterator LiveBegin() {
    return chunks_.begin() + static_cast<std::ptrdiff_t>(head_);
  }

  std::int64_t capacity_bytes_;
  Duration jitter_allowance_;
  // Resident chunks in strictly increasing timestamp order from head_ on;
  // entries before head_ are dead. Puts append in the common in-order case,
  // so after warm-up the buffer stops allocating.
  std::vector<Entry> chunks_;
  std::size_t head_ = 0;
  std::int64_t resident_bytes_ = 0;
  TimeDrivenBufferStats stats_;
  std::unique_ptr<ObsState> obs_;
  crobs::SessionTrace* ftrace_ = nullptr;
  crobs::FrameStage miss_stage_ = crobs::FrameStage::kPublished;
};

}  // namespace cras

#endif  // SRC_CORE_TIME_DRIVEN_BUFFER_H_
