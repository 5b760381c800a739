// A point-to-point network link.
//
// Models the paper's 10 Mb/s Ethernet between the QtPlay server and client
// (Figure 11): packets serialize onto the wire at the link bandwidth, then
// arrive after the propagation delay. Transmission is FIFO at the interface;
// an optional queue bound forces transmit-queue drops.
//
// Serialization is computed, not simulated: the interface is one `free_at`
// time, the end of the last accepted packet's wire time. A packet accepted
// at `now` starts at max(now, free_at) and ends its wire time `end` later;
// its delivery at `end + propagation + extra` is the packet's one engine
// event (a duplicate adds a second, a lost packet has none).
//
// Beyond the paper's perfect segment, the link carries a scriptable
// *impairment model* (driven live by crfault link events) for lossy-network
// experiments:
//
//   loss        — i.i.d. per-packet wire loss, or a Gilbert–Elliott
//                 two-state Markov chain for bursty loss (stepped once per
//                 packet; the good state loses nothing, the bad state
//                 loses with `ge_loss_bad`);
//   jitter      — uniform extra propagation delay in [0, jitter]; because
//                 every packet propagates independently, jitter larger than
//                 the serialization gap reorders deliveries;
//   reordering  — explicit tail-holding: with probability p a packet is
//                 held `reorder_delay` beyond its normal arrival;
//   derating    — bandwidth divided by a factor (a congested or
//                 renegotiated segment).
//
// A packet's fate — wire time, loss, duplication, jitter, reorder — is drawn
// when the link accepts it, in send order, so the random sequence is
// independent of delivery interleaving, and an impairment change binds the
// packets accepted after it; packets already queued keep their fate.
// A wire-lost packet still consumed its serialization time — the bits went
// out, nobody heard them — so loss wastes exactly the wire time the sender
// paid, which is what makes deadline-aware retransmission worth modelling.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "src/base/random.h"
#include "src/base/time_units.h"
#include "src/sim/engine.h"

namespace crnet {

using crbase::Duration;
using crbase::Time;

struct LinkStats {
  std::int64_t packets_sent = 0;
  std::int64_t packets_delivered = 0;
  // Total drops = tx_queue_drops + wire_drops. Kept as the sum so existing
  // "did anything drop" call sites keep working.
  std::int64_t packets_dropped = 0;
  std::int64_t tx_queue_drops = 0;  // refused at Send(): transmit queue full
  std::int64_t wire_drops = 0;      // serialized, then lost on the wire
  std::int64_t bytes_delivered = 0;
  // Payload bytes accepted for serialization — paid once per transmission,
  // unicast or multicast, so this is the sender-side cost a fan-out saves.
  std::int64_t bytes_sent = 0;
  // Multicast fan-out. A multicast transmission serializes once (one entry
  // in busy_time, one bytes_sent charge) and then every attached receiver
  // draws its own wire loss: deliveries/drops count per receiver. Kept
  // apart from the unicast counters so packets_sent = delivered + dropped
  // keeps holding for unicast traffic.
  std::int64_t mcast_packets_sent = 0;
  std::int64_t mcast_deliveries = 0;
  std::int64_t mcast_receiver_drops = 0;
  // Extra deliveries manufactured by the duplication impairment (not
  // included in packets_delivered, so sent = delivered + dropped holds).
  std::int64_t duplicate_deliveries = 0;
  Duration busy_time = 0;
  std::size_t max_queue_depth = 0;
};

// Scriptable link misbehaviour. All fields off by default; a
// default-constructed value means a perfect link.
struct LinkImpairments {
  // i.i.d. per-packet wire loss probability (ignored when gilbert_elliott).
  double loss_probability = 0.0;
  // Gilbert–Elliott burst loss: the chain steps once per serialized packet;
  // the packet is then lost with the current state's probability.
  bool gilbert_elliott = false;
  double ge_p_enter_bad = 0.0;  // P(good -> bad) per packet
  double ge_p_exit_bad = 0.0;   // P(bad -> good) per packet
  double ge_loss_bad = 1.0;
  // Uniform extra propagation delay in [0, jitter].
  Duration jitter = 0;
  // With probability reorder_probability, a packet is additionally held
  // reorder_delay past its (jittered) arrival time.
  double reorder_probability = 0.0;
  Duration reorder_delay = 0;
  // With probability duplicate_probability, a delivered unicast packet is
  // delivered a second time, `duplicate_delay` after the original — a
  // misbehaving switch or a retransmission the first copy of which was not
  // actually lost. The idempotency hazard for control RPCs.
  double duplicate_probability = 0.0;
  Duration duplicate_delay = crbase::Milliseconds(2);
  // Serialization bandwidth divided by this factor (>= 1).
  double bandwidth_derating = 1.0;

  bool perfect() const {
    return loss_probability == 0.0 && !gilbert_elliott && jitter == 0 &&
           reorder_probability == 0.0 && duplicate_probability == 0.0 &&
           bandwidth_derating == 1.0;
  }
};

class Link {
 public:
  struct Options {
    double bandwidth_bytes_per_sec = 10e6 / 8.0;  // 10 Mb/s Ethernet
    Duration propagation_delay = crbase::Microseconds(500);
    // Per-packet framing overhead (headers, interframe gap) in bytes.
    std::int64_t per_packet_overhead = 64;
    // Transmit queue bound in packets; 0 = unbounded.
    std::size_t queue_limit = 0;
    // Impairments active from construction (scripted changes come later
    // through the setters / crfault).
    LinkImpairments impairments;
    // Seed for the loss/jitter draws; every run is reproducible.
    std::uint64_t impairment_seed = 0x6c696e6bULL;  // "link"
  };

  Link(crsim::Engine& engine, const Options& options);
  Link(crsim::Engine& engine);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Queues `bytes` for transmission; `deliver` fires at the receiver once
  // the packet has fully serialized and propagated. Returns false (and
  // counts a tx-queue drop) if the transmit queue is full. A wire-lost
  // packet's `deliver` never fires. The packet's fate is drawn here.
  bool Send(std::int64_t bytes, std::function<void()> deliver);

  // Multicast: one serialized transmission fanned out to every receiver of
  // a group address. Wire time is paid once; the loss model steps once (the
  // shared-medium burst state advances per packet) and then *each* receiver
  // draws its own loss and jitter independently — one multicast packet can
  // reach some receivers and miss others. A receiver whose draw loses the
  // packet never sees its deliver closure.
  bool Multicast(std::int64_t bytes, std::vector<std::function<void()>> delivers);

  // ---- impairment control (live; crfault's link events land here) ----
  // A change applies to the packets accepted after it.
  void SetLoss(double probability);
  void SetBurstLoss(double p_enter_bad, double p_exit_bad, double loss_bad);
  void SetJitter(Duration jitter);
  void SetReordering(double probability, Duration delay);
  // Duplicated *deliveries*: the receiver sees some unicast packets twice.
  void SetDuplication(double probability, Duration delay = crbase::Milliseconds(2));
  void SetBandwidthDerating(double factor);
  // Back to a perfect link (the Gilbert–Elliott chain also resets to good).
  void ClearImpairments();
  const LinkImpairments& impairments() const { return impairments_; }

  // The counters, with `busy_time` the wire time spent up to now.
  LinkStats stats() const;
  // Packets accepted whose serialization has not ended: the one on the wire
  // and those queued behind it.
  std::size_t queue_depth() const;
  const Options& options() const { return options_; }

  // Share of the link's life spent serializing, up to now.
  double Utilization() const {
    return engine_->Now() == 0
               ? 0.0
               : static_cast<double>(SpentWireTime()) / static_cast<double>(engine_->Now());
  }

 private:
  // Admits a packet to the interface: nullopt (a counted tx-queue drop)
  // when the queue is full, else the packet's wire time is booked behind
  // `free_at_` and the result is when its serialization ends.
  std::optional<Time> Accept(std::int64_t bytes);
  // Schedules the delivery (and any duplicate) of a packet whose
  // serialization ends at `end`.
  void DeliverOne(Time end, std::int64_t bytes, std::function<void()> deliver, bool multicast);
  Duration SpentWireTime() const {
    return committed_wire_time_ - std::max<Duration>(0, free_at_ - engine_->Now());
  }
  // Steps the loss model one packet; true = this packet dies on the wire.
  bool DrawWireLoss();
  // Advances the Gilbert–Elliott chain one packet (no-op for i.i.d. loss).
  void StepLossState();
  // Draws a loss against the *current* state without advancing it — the
  // per-receiver draw of a multicast delivery.
  bool DrawLossNow();
  // Extra delivery delay past the nominal propagation (jitter + reorder).
  Duration DrawExtraDelay();

  crsim::Engine* engine_;
  Options options_;
  LinkImpairments impairments_;
  crbase::Rng rng_;
  bool ge_in_bad_state_ = false;
  Time free_at_ = 0;  // when the interface finishes the last accepted packet
  // Serialization end of every accepted packet still on or queued for the
  // wire, in accept (so also end) order; trimmed as they end.
  std::deque<Time> unfinished_;
  Duration committed_wire_time_ = 0;  // accepted packets' wire time, spent or not
  LinkStats stats_;  // busy_time is filled in by stats()
};

}  // namespace crnet

#endif  // SRC_NET_LINK_H_
