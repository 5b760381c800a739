// The reliability core under both stream transports: NPS unicast
// (src/net/nps.h) and grouped delivery (src/mcast/group_transport.h). The
// two differ only in how a lost fragment is repaired — NAKs with backoff,
// or loss bitmaps answered by XOR parity — so everything else lives here
// once. A chunk's one identity, on the wire and at both ends, is its
// position in the stream's chunk index: the control file the viewer gave
// at open.
//
//   NpsFragment, NpsNak — the wire format. A chunk travels as numbered
//       fragments of at most kMaxPacketBytes, each naming its chunk by
//       index (the control file holds the rest); a repair request names the
//       fragments of one chunk that are still missing, and the viewer's
//       playout-clock reading when it asked.
//   SentChunk, Retain — a sender's record of a chunk it put on the wire
//       (the fragment split, and any one fragment built on demand for a
//       first send or a repair), and the one retention rule: a sender keeps
//       its last kRepairWindowChunks.
//   ReliableReceiver — the client end: it holds the control file, so a gap
//       (a chunk it learns is missing because a later one arrived first)
//       opens an entry that already knows the chunk's metadata, fragment
//       count and deadline. Per-chunk reassembly, the bounded record of
//       finished chunks, the time-driven buffer and playout clock a remote
//       player consumes, frame-trace stamps on completion, give-up and
//       playout, and the receive counters live here too. A transport's
//       receiver derives from it and adds only its gap detection and repair
//       policy.

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
// end of its playout slot, `timestamp + duration`, on the *viewer's*
// logical clock. The receivers' give-up and drop rules read their own
// clock; both senders judge a repair request by the reading it carries
// (NpsNak::viewer_now), never by the server's session clock. All of them
// call this helper so the boundary chunk — clock exactly at the deadline —
// is treated identically everywhere: still repairable at the deadline,
// dead strictly past it.
inline crbase::Time ChunkDeadline(const cras::BufferedChunk& chunk) {
  return chunk.timestamp + chunk.duration;
}
inline crbase::Time ChunkDeadline(const crmedia::Chunk& chunk) {
  return chunk.timestamp + chunk.duration;
}

// The largest packet either sender puts on the wire: a chunk travels as
// ceil(size / kMaxPacketBytes) fragments, the last carrying the remainder.
inline constexpr std::int64_t kMaxPacketBytes = 8 * 1024;
inline int FragmentCount(std::int64_t chunk_size) {
  return static_cast<int>((chunk_size + kMaxPacketBytes - 1) / kMaxPacketBytes);
}

// How many of its most recently sent chunks a sender keeps for repair. A
// request for an older chunk finds nothing to resend: NPS ignores it, and
// grouped delivery demotes the member that still wanted it (src/mcast).
inline constexpr std::int64_t kRepairWindowChunks = 64;
static_assert(kRepairWindowChunks > 0);

// One packet: fragment `frag_index` of chunk index `chunk`. The receiver
// takes the chunk's timestamp, duration, size and fragment count from its
// control file.
struct NpsFragment {
  std::int64_t chunk = 0;
  int frag_index = 0;
  std::int64_t bytes = 0;  // payload bytes in this fragment
  crbase::Time sent_at = 0;  // original chunk send start (sender host time)
  bool retransmit = false;
  bool multicast = false;  // delivered by group fan-out, not a unicast send
};

// A repair request: the fragments of chunk index `chunk` the receiver is
// still missing. `viewer_now` is the viewer's playout-clock reading when it
// asked: a sender refuses the resend if and only if that reading is past the
// chunk's deadline, so no lag between the session clock and the viewer's has
// to be guessed.
struct NpsNak {
  std::int64_t chunk = 0;
  std::vector<int> missing;
  crbase::Time viewer_now = 0;
};

// A chunk as its sender put it on the wire, split into fragments of
// kMaxPacketBytes (the last one carries the remainder).
struct SentChunk {
  cras::BufferedChunk chunk;
  crbase::Time sent_at = 0;  // original send start (sender host time)

  int frag_count() const { return FragmentCount(chunk.size); }
  // Fragment `index`, marked as repair traffic when `retransmit` is set.
  NpsFragment Fragment(int index, bool retransmit) const;
  // Calls `f(index)` for each fragment a repair request names. Indices
  // outside the chunk are skipped.
  template <typename F>
  void ForEachMissing(const std::vector<int>& missing, F&& f) const {
    for (int index : missing) {
      if (index >= 0 && index < frag_count()) {
        f(index);
      }
    }
  }
};

// Files `sent` in a sender's retransmit store and drops the oldest chunk
// beyond kRepairWindowChunks: the one retention rule of both senders. No
// clock is read; a request's own reading decides whether a resend is of use.
void Retain(std::map<std::int64_t, SentChunk>& store, const SentChunk& sent);

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
// local one would. Reassembly works from explicit per-chunk state and never
// trusts arrival order; the derived transport decides which chunks a gap
// reveals and how a missing fragment is repaired.
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
  // Finished chunks recorded above the low-water mark: the only part of the
  // finished record that grows, and only while an older chunk is still
  // pending.
  std::size_t finished_above() const { return done_above_.size(); }

 protected:
  // Reassembly state for one chunk, opened from its control-file entry
  // whether a fragment or a gap revealed it.
  struct Reassembly {
    cras::BufferedChunk chunk;
    std::vector<bool> have;  // one per fragment
    int received = 0;
    int max_frag_seen = -1;
    crbase::Time sent_at = 0;     // carried by the first fragment to arrive
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

    // The repair request for this chunk, stamped with the viewer's clock
    // reading: every fragment still missing.
    NpsNak Nak(crbase::Time viewer_now) const;
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
  // Opens the entry of `chunk`, a gap, unless it is pending or finished
  // already. Returns the entry it opened, or nullptr.
  Reassembly* OpenGap(std::int64_t chunk);
  // Files a counted fragment into its entry, whose fragment count must
  // cover its index, and completes the chunk when it was the last one
  // missing. Returns the entry
  // while the chunk is still incomplete; nullptr once it completed or when
  // the fragment was a duplicate.
  Reassembly* Reassemble(const NpsFragment& fragment);
  // Gives up on the entry's chunk and resolves its frame as missed.
  void Abandon(Reassembly& entry);
  // Completed or abandoned.
  bool IsDone(std::int64_t chunk) const;

  // Registers the `<prefix>.reassembly_ms` histogram, labeled {stream,
  // name}; give-ups are flight-recorded with `source` as the detail.
  // nullptr detaches.
  void AttachReceiveObs(crobs::Hub* hub, const std::string& prefix, const std::string& name,
                        const char* source);

  crrt::Kernel* kernel_;
  // The stream's control file, set by the transport before any fragment.
  const crmedia::ChunkIndex* index_ = nullptr;
  std::map<std::int64_t, Reassembly> pending_;

 private:
  struct ObsState {
    crobs::Hub* hub = nullptr;
    const char* source = "";
    crobs::Histogram* reassembly_ms = nullptr;
  };

  // The pending entry for `chunk`, opened from the control file on first use.
  Reassembly& Pending(std::int64_t chunk);
  void Complete(Reassembly& entry);
  // Cancels the entry's timer, records its chunk as done and drops it.
  void Finish(Reassembly& entry);

  cras::TimeDrivenBuffer buffer_;
  cras::LogicalClock clock_;
  // Done chunks: every one below the low-water mark, plus the few above it
  // that finished ahead of an older, still pending chunk. Stays bounded by
  // the reassembly window however long the stream runs.
  std::int64_t done_below_ = 0;
  std::set<std::int64_t> done_above_;
  std::unique_ptr<ObsState> obs_;
  crobs::SessionTrace* ftrace_ = nullptr;
};

}  // namespace crnet

#endif  // SRC_NET_RELIABLE_H_
