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
// clock are the core both transports share (src/net/reliable.h). A chunk is
// named by its index in the viewer's control file, which the sender hands
// the receiver at Start, so a gap (a wholly lost or skipped chunk, revealed
// when a later one arrives) is a chunk the receiver already knows. What is
// NPS's own is the repair policy. With a reverse link connected
// (ConnectReverse), the receiver requests repair of each missing fragment
// with NAKs under capped exponential backoff. Both ends judge the
// deadline on the viewer's clock: the receiver abandons a chunk its logical
// clock has passed (the buffer would discard it on arrival anyway), and each
// NAK carries that clock's reading, so the sender drops a resend whose
// playout deadline the viewer had already passed when it asked and late
// retransmissions never waste wire time. Without a reverse link the
// protocol degrades to the classic best-effort NPS: an incomplete chunk is
// abandoned after a short reordering grace. The sender always keeps its
// last kRepairWindowChunks sent chunks for repair. The protocol's timings
// and sizes are constants: kNakDelay and kNpsPoll below, the rest in
// nps.cc.

#ifndef SRC_NET_NPS_H_
#define SRC_NET_NPS_H_

#include <coroutine>
#include <cstdint>
#include <map>
#include <string>

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

  // Takes a session on: `index` is the viewer's control file, which names
  // every chunk on the wire, and `trace` the session's frame-trace ring
  // (set_frame_trace). Called by NpsSender::Start.
  void Open(const crmedia::ChunkIndex* index, crobs::SessionTrace* trace);

  // Packet arrival, invoked by the forward link's delivery events.
  void OnFragment(const NpsFragment& fragment);

  // Enables repair: NAKs travel over `reverse` to `sender`.
  void ConnectReverse(Link& reverse, NpsSender& sender);

  const NpsReceiverStats& stats() const { return stats_; }

  // Counter series (nps.rx_*) bound to stats() and a reassembly-latency
  // histogram, labeled {stream, name}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  ReassemblyStats& reassembly_stats() override { return stats_; }
  void ArmTimer(Reassembly& entry, crbase::Duration delay);
  // NAK timer body: give up, or request repair and re-arm with backoff.
  void OnTimer(std::int64_t chunk);

  Link* reverse_ = nullptr;
  NpsSender* sender_ = nullptr;
  std::int64_t expected_next_ = 0;  // every chunk below this has an entry or is done
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
  // resumed by Reconnect needs a fresh Start). Hands the receiver `index`
  // and the session's frame-trace ring (NpsReceiver::Open). The returned
  // task may be awaited or dropped.
  crsim::Task Start(cras::SessionId session, const crmedia::ChunkIndex* index);

  // Repair request arrival, invoked by the reverse link's delivery events.
  // Retransmits the missing fragments of a retained chunk — unless the
  // NAK's reading of the viewer's clock is past the chunk's playout
  // deadline, in which case the data is dropped here, at the sender.
  void OnNak(const NpsNak& nak);

  const NpsSenderStats& stats() const { return stats_; }
  std::size_t retained_chunks() const { return store_.size(); }

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
  crobs::SessionTrace* ftrace_ = nullptr;  // cached from the server at Start
  Park park_;
  // The last kRepairWindowChunks sent chunks (crnet::Retain), by chunk
  // index: NAKs are answered from here.
  std::map<std::int64_t, SentChunk> store_;
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
