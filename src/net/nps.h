// NPS — a user-level stream transmission engine (paper references [9, 10]).
//
// The paper's QtPlay application (Figure 11) is distributed: a qtserver
// host retrieves movie data through CRAS and transmits it with NPS over
// 10 Mb/s Ethernet to a qtclient host, which hands frames to its display
// and audio sinks. This module provides that path:
//
//   NpsSender   — a thread on the server host that walks a session's chunk
//                 index slightly ahead of the logical clock, fetches each
//                 chunk from the CRAS shared buffer (crs_get), fragments it
//                 into packets, and transmits them. A chunk not yet
//                 published parks it until the session's next publish;
//   NpsReceiver — the client-host endpoint that reassembles chunks into a
//                 local time-driven buffer, from which a remote player
//                 consumes by logical time exactly as a local one would;
//   LeaseClient — the heartbeat generator keeping a session's lease alive
//                 across the link (CrasServer::Options::lease_period).
//
// Reliability (for impaired links — see crnet::LinkImpairments): the wire
// format, the sent-chunk record and the receiver's reassembly, buffer and
// clock are the core both transports share (src/net/reliable.h). What is
// NPS's own is the repair policy. With a reverse link connected
// (ConnectReverse), the receiver detects gaps — a missing fragment, or a
// wholly lost chunk revealed by a sequence-number jump — and requests
// repair with NAKs under capped exponential backoff. Both ends are
// deadline-aware: the receiver abandons a chunk its logical clock has
// passed (the buffer would discard it on arrival anyway), and the sender
// drops NAKed data whose playout deadline can no longer be met, so late
// retransmissions never waste wire time. Without a reverse link the
// protocol degrades to the classic best-effort NPS: an incomplete chunk is
// abandoned after a short reordering grace. The protocol's timings and sizes
// are constants: kNakDelay and kNpsPoll below, the rest in nps.cc.

#ifndef SRC_NET_NPS_H_
#define SRC_NET_NPS_H_

#include <coroutine>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/core/cras.h"
#include "src/net/link.h"
#include "src/net/reliable.h"
#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"
#include "src/sim/task.h"

namespace crnet {

class NpsSender;

// Reordering grace before the receiver's first NAK for a chunk (or, with no
// reverse link, before an incomplete chunk is abandoned). The NAK backoff,
// its cap and the other receiver constants are in nps.cc.
inline constexpr crbase::Duration kNakDelay = crbase::Milliseconds(20);
static_assert(kNakDelay > 0);

// The sender's tick. It sleeps straight to the first tick at which the
// session clock reaches a chunk's send time (computed from the clock's rate,
// so a seek or rate change is seen only at that tick), or one tick while the
// clock is stopped. A chunk not yet in the shared buffer parks it until the
// first tick after the session's next publish or close, or the tick at which
// the chunk's deadline passes (computed the same way) and the chunk is
// skipped.
inline constexpr crbase::Duration kNpsPoll = crbase::Milliseconds(5);

struct NpsReceiverStats : ReassemblyStats {
  std::int64_t naks_sent = 0;
};

// Client-side endpoint: the shared receiver end (a 1 MiB buffer) plus NAK
// repair.
class NpsReceiver final : public ReliableReceiver {
 public:
  explicit NpsReceiver(crrt::Kernel& kernel);

  // Packet arrival, invoked by the forward link's delivery events.
  void OnFragment(const NpsFragment& fragment);

  // Enables repair: NAKs travel over `reverse` to `sender`, which starts
  // retaining sent chunks for retransmission.
  void ConnectReverse(Link& reverse, NpsSender& sender);

  const NpsReceiverStats& stats() const { return stats_; }

  // Counter series (nps.rx_*) bound to stats() and a reassembly-latency
  // histogram, labeled {stream, name}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  ReassemblyStats& reassembly_stats() override { return stats_; }
  void ArmTimer(std::uint64_t seq, Reassembly& entry, crbase::Duration delay);
  // NAK timer body: give up, or request repair and re-arm with backoff.
  void OnTimer(std::uint64_t seq);

  Link* reverse_ = nullptr;
  NpsSender* sender_ = nullptr;
  std::uint64_t expected_next_ = 0;  // every seq below this has an entry or is done
  NpsReceiverStats stats_;
  crobs::Bindings bound_;
};

struct NpsSenderStats {
  std::int64_t chunks_sent = 0;
  std::int64_t chunks_skipped = 0;  // never appeared in the shared buffer
  std::int64_t packets_sent = 0;    // original fragments (excludes retransmits)
  std::int64_t bytes_sent = 0;
  std::int64_t naks_received = 0;
  std::int64_t fragments_retransmitted = 0;
  std::int64_t retransmits_abandoned = 0;  // NAKed, but playout deadline passed
};

// Server-side transmitter for one stream session.
class NpsSender {
 public:
  struct Options {
    // How far ahead of the session's logical clock chunks are shipped;
    // hides the network serialization + propagation latency.
    crbase::Duration lookahead = crbase::Milliseconds(250);
    crbase::Duration cpu_per_chunk = crbase::Microseconds(150);
  };

  NpsSender(crrt::Kernel& kernel, cras::CrasServer& server, Link& link, NpsReceiver& receiver,
            const Options& options);
  NpsSender(crrt::Kernel& kernel, cras::CrasServer& server, Link& link, NpsReceiver& receiver);
  NpsSender(const NpsSender&) = delete;
  NpsSender& operator=(const NpsSender&) = delete;

  // Spawns the transmitter thread for `session`, walking `index` to its
  // end, or until the session is gone (closed, reaped or shed; a session
  // resumed by Reconnect needs a fresh Start). The returned task may be
  // awaited or dropped.
  crsim::Task Start(cras::SessionId session, const crmedia::ChunkIndex* index);

  // Retain sent chunks (until their playout deadline) so NAKs can be
  // answered. Called by NpsReceiver::ConnectReverse.
  void EnableRetransmit() { retransmit_enabled_ = true; }

  // Repair request arrival, invoked by the reverse link's delivery events.
  // Retransmits the missing fragments — unless the chunk's playout deadline
  // has passed, in which case the data is dropped here, at the sender.
  void OnNak(const NpsNak& nak);

  const NpsSenderStats& stats() const { return stats_; }
  std::size_t retained_chunks() const { return store_.size(); }

  // Chunk index behind NPS sequence number `seq`, or -1 if the chunk is no
  // longer retained. Sequence numbers are *not* chunk indexes — a skipped
  // chunk consumes no seq — so the receiver maps a wholly-lost placeholder
  // back to its frame identity through here (it holds the sender pointer
  // whenever a reverse link is connected).
  std::int64_t ChunkIndexOf(std::uint64_t seq) const;

  // Counter series (nps.tx_*) bound to stats(), labeled {stream, name}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  // A thread parked on a shared-buffer miss, waking on its tick grid
  // `since + k * kNpsPoll`.
  struct Park {
    std::coroutine_handle<> thread;  // null while not parked
    crbase::Time since = 0;          // the tick of the miss
    crbase::Time wake_at = 0;
    crsim::EventId wake = crsim::kInvalidEventId;
  };

  crsim::Task SenderThread(crrt::ThreadContext& ctx, cras::SessionId session,
                           const crmedia::ChunkIndex* index);
  // Parks the thread for `ticks` polls, or less if the session publishes
  // or closes first (OnSessionData).
  auto ParkForData(std::int64_t ticks);
  // The session's data listener: pulls a parked wake forward to the first
  // tick after now.
  void OnSessionData();
  void SendFragment(const NpsFragment& fragment);

  crrt::Kernel* kernel_;
  cras::CrasServer* server_;
  Link* link_;
  NpsReceiver* receiver_;
  Options options_;
  bool retransmit_enabled_ = false;
  cras::SessionId session_ = cras::kInvalidSession;
  crobs::SessionTrace* ftrace_ = nullptr;  // cached from the server at Start
  Park park_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, SentChunk> store_;  // retained until the playout deadline
  // seq -> chunk index for every chunk ever sent. Identity must outlive the
  // retransmit store: the store prunes past-deadline entries, but the
  // receiver may only observe a wholly-lost chunk's sequence gap after a
  // sender stall, and the give-up still needs a frame to attribute.
  std::vector<std::int64_t> sent_chunk_index_;
  NpsSenderStats stats_;
  crobs::Hub* hub_ = nullptr;
  crobs::Bindings bound_;
};

// Client-side lease heartbeat generator: a thread that renews the session's
// lease across the link every `period` (CrasServer::Options::lease_period
// governs how long the server waits; renew at least twice per period so one
// lost heartbeat does not lapse the lease). Stop() silences it — the
// simulated equivalent of a client crash or network partition, after which
// the server's reaper reclaims the session.
class LeaseClient {
 public:
  struct Options {
    crbase::Duration period = crbase::Milliseconds(500);
  };

  LeaseClient(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
              cras::SessionId session, const Options& options);
  LeaseClient(const LeaseClient&) = delete;
  LeaseClient& operator=(const LeaseClient&) = delete;

  // Spawns the heartbeat thread. The returned task may be awaited or
  // dropped; it exits at the next tick after Stop().
  crsim::Task Start();
  void Stop() { stopped_ = true; }

  std::int64_t heartbeats_sent() const { return heartbeats_sent_; }

 private:
  crsim::Task HeartbeatThread(crrt::ThreadContext& ctx);

  crrt::Kernel* kernel_;
  cras::CrasServer* server_;
  Link* link_;
  cras::SessionId session_;
  Options options_;
  bool stopped_ = false;
  std::int64_t heartbeats_sent_ = 0;
};

}  // namespace crnet

#endif  // SRC_NET_NPS_H_
