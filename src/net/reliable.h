// The reliability core under both stream transports: NPS unicast
// (src/net/nps.h) and grouped delivery (src/mcast/group_transport.h). The
// two differ only in how a lost fragment is repaired — NAKs with backoff,
// or loss bitmaps answered by XOR parity — so everything else lives here
// once:
//
//   NpsFragment, NpsNak — the wire format. A chunk travels as numbered
//       fragments, each carrying the chunk's sequence number and full
//       metadata; a repair request names the fragments of one chunk that
//       are still missing.
//   SentChunk — a sender's record of a chunk it put on the wire: the
//       fragment split, any one fragment built on demand (first send or
//       repair), and the chunk's playout deadline.
//   ReliableReceiver — the client end: per-sequence reassembly, the
//       bounded record of finished sequence numbers, the time-driven
//       buffer and playout clock a remote player consumes, frame-trace
//       stamps on completion, give-up and playout, and the receive
//       counters. A transport's receiver derives from it and adds only its
//       gap detection and repair policy.

#ifndef SRC_NET_RELIABLE_H_
#define SRC_NET_RELIABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/core/logical_clock.h"
#include "src/core/time_driven_buffer.h"
#include "src/media/chunk_index.h"
#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"

namespace crnet {

// The one shared playout-deadline rule: a chunk is repair-worthy until the
// end of its playout slot, `timestamp + duration`, on the *logical* clock.
// The NAK sender's refusal check, the receiver's drop rule, the sender's
// store pruning, and grouped XOR repair (src/mcast) all call this helper so
// the boundary chunk — logical clock exactly at the deadline — is treated
// identically everywhere: still repairable at the deadline, dead strictly
// past it.
inline crbase::Time ChunkDeadline(const cras::BufferedChunk& chunk) {
  return chunk.timestamp + chunk.duration;
}
inline crbase::Time ChunkDeadline(const crmedia::Chunk& chunk) {
  return chunk.timestamp + chunk.duration;
}

// One packet: a fragment of chunk number `seq`. Every fragment carries the
// full chunk metadata, so reassembly survives the loss of any subset.
struct NpsFragment {
  std::uint64_t seq = 0;  // chunk sequence number
  int frag_index = 0;
  int frag_count = 1;
  std::int64_t bytes = 0;  // payload bytes in this fragment
  cras::BufferedChunk chunk;
  crbase::Time sent_at = 0;  // original chunk send start (sender host time)
  bool retransmit = false;
  bool multicast = false;  // delivered by group fan-out, not a unicast send
};

// A repair request: the fragments of `seq` the receiver is still missing.
// An empty `missing` list means "everything" (the whole chunk was lost and
// the receiver does not know its fragment count).
struct NpsNak {
  std::uint64_t seq = 0;
  std::vector<int> missing;
};

// A chunk as its sender put it on the wire, split into fragments of
// `max_packet_bytes` (the last one carries the remainder).
struct SentChunk {
  std::uint64_t seq = 0;
  cras::BufferedChunk chunk;
  crbase::Time sent_at = 0;  // original send start (sender host time)
  std::int64_t max_packet_bytes = 0;

  int frag_count() const;
  crbase::Time deadline() const { return ChunkDeadline(chunk); }
  // Fragment `index`, marked as repair traffic when `retransmit` is set.
  NpsFragment Fragment(int index, bool retransmit) const;
  // Calls `f(index)` for each fragment a repair request names: all of them
  // for an empty list. Indices outside the chunk are skipped.
  template <typename F>
  void ForEachMissing(const std::vector<int>& missing, F&& f) const {
    const int count = frag_count();
    if (missing.empty()) {
      for (int index = 0; index < count; ++index) {
        f(index);
      }
      return;
    }
    for (int index : missing) {
      if (index >= 0 && index < count) {
        f(index);
      }
    }
  }
};

// The receive counters every transport's receiver keeps.
struct ReassemblyStats {
  std::int64_t chunks_received = 0;
  std::int64_t bytes_received = 0;
  std::int64_t duplicate_fragments = 0;    // already held, or chunk already done
  std::int64_t out_of_order_fragments = 0; // arrived behind a higher index
  std::int64_t retransmitted_fragments = 0;
  std::int64_t chunks_abandoned = 0;  // given up: deadline passed or unrepairable
  crbase::Duration max_network_latency = 0;  // chunk send start -> reassembled
};

// Client-host end of a stream: reassembled chunks land in a time-driven
// buffer, from which a remote player consumes by logical time exactly as a
// local one would. Reassembly works from explicit per-sequence state and
// never trusts arrival order; the derived transport decides which sequence
// numbers a gap reveals and how a missing fragment is repaired.
class ReliableReceiver {
 public:
  ReliableReceiver(const ReliableReceiver&) = delete;
  ReliableReceiver& operator=(const ReliableReceiver&) = delete;

  // The remote application's crs_get equivalent.
  std::optional<cras::BufferedChunk> Get(crbase::Time t);

  // Points reassembly at the session's frame-trace ring: arrival/repair
  // stamps, give-up misses, and playout delivery all land there. Also wired
  // through to the local buffer so an unconsumed drop after reassembly is
  // resolved (missed at kCompleted). Usually set by the sender when it
  // takes the session on. nullptr detaches.
  void set_frame_trace(crobs::SessionTrace* trace);
  crobs::SessionTrace* frame_trace() const { return ftrace_; }

  cras::LogicalClock& clock() { return clock_; }
  const cras::TimeDrivenBufferStats& buffer_stats() const { return buffer_.stats(); }
  std::size_t incomplete_chunks() const { return pending_.size(); }
  // Finished sequence numbers recorded above the low-water mark: the only
  // part of the finished record that grows, and only while an older chunk
  // is still pending.
  std::size_t finished_above() const { return done_above_.size(); }

 protected:
  // Reassembly state for one sequence number. A placeholder (opened for a
  // chunk known only from a gap) has frag_count == 0 until a fragment
  // arrives.
  struct Reassembly {
    cras::BufferedChunk chunk;
    int frag_count = 0;
    std::vector<bool> have;
    int received = 0;
    int max_frag_seen = -1;
    crbase::Time sent_at = 0;
    crbase::Time created_at = 0;  // receiver host time
    // Arrival of the newest *fresh* (non-repair) fragment: the frame
    // trace's wire/repair boundary. A chunk completed entirely by fresh
    // fragments gets a repair latency of exactly zero.
    crbase::Time last_fresh_at = -1;
    // The repair policy's retry timer (NPS's NAK timer), kept in the entry
    // so a fragment costs one lookup. Completion and give-up cancel it.
    bool timer_armed = false;
    crsim::EventId timer{};
    crbase::Duration backoff = 0;  // the delay the timer was last armed with
    int naks = 0;                  // repair requests sent for this chunk

    // The repair request for this chunk: its missing fragments, or the
    // whole chunk while it is a placeholder.
    NpsNak Nak(std::uint64_t seq) const;
  };

  ReliableReceiver(crrt::Kernel& kernel, std::int64_t buffer_bytes,
                   crbase::Duration jitter_allowance);
  // Cancels armed retry timers (they ride the engine queue).
  ~ReliableReceiver();

  // The transport's stats, which hold the counters kept here.
  virtual ReassemblyStats& reassembly_stats() = 0;

  // Counts an arriving fragment. False when its chunk already finished: a
  // late copy, counted as a duplicate and dropped.
  bool CountArrival(const NpsFragment& fragment);
  // The pending entry for `seq`, opened as a placeholder on first use.
  Reassembly& Pending(std::uint64_t seq);
  // Files a counted fragment into its entry (adopting the chunk metadata
  // on the first one) and completes the chunk when it was the last one
  // missing. Returns the entry while the chunk is still incomplete; nullptr
  // once it completed or when the fragment was a duplicate.
  Reassembly* Reassemble(const NpsFragment& fragment);
  // Gives up on `seq` and resolves its frame as missed. `lost_chunk` names
  // the frame of a placeholder, whose metadata never arrived (-1: unknown).
  void Abandon(std::uint64_t seq, Reassembly& entry, std::int64_t lost_chunk);
  // Completed or abandoned.
  bool IsDone(std::uint64_t seq) const;

  // Registers the `<prefix>.reassembly_ms` histogram, labeled {stream,
  // name}; give-ups are flight-recorded with `source` as the detail.
  // nullptr detaches.
  void AttachReceiveObs(crobs::Hub* hub, const std::string& prefix, const std::string& name,
                        const char* source);

  crrt::Kernel* kernel_;
  std::map<std::uint64_t, Reassembly> pending_;

 private:
  struct ObsState {
    crobs::Hub* hub = nullptr;
    const char* source = "";
    crobs::Histogram* reassembly_ms = nullptr;
  };

  void Complete(std::uint64_t seq, Reassembly& entry);
  void MarkDone(std::uint64_t seq);

  cras::TimeDrivenBuffer buffer_;
  cras::LogicalClock clock_;
  // Done sequence numbers: every one below the low-water mark, plus the few
  // above it that finished ahead of an older, still pending chunk. Stays
  // bounded by the reassembly window however long the stream runs.
  std::uint64_t done_below_ = 0;
  std::set<std::uint64_t> done_above_;
  std::unique_ptr<ObsState> obs_;
  crobs::SessionTrace* ftrace_ = nullptr;
};

}  // namespace crnet

#endif  // SRC_NET_RELIABLE_H_
