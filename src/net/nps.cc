#include "src/net/nps.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/base/logging.h"

namespace crnet {

namespace {

// Receiver.
constexpr std::int64_t kReceiverBufferBytes = 1 << 20;
constexpr crbase::Duration kJitterAllowance = crbase::Milliseconds(100);
// NAK retry backoff doubles per attempt up to this cap.
constexpr crbase::Duration kNakBackoffCap = crbase::Milliseconds(160);
static_assert(kNakBackoffCap >= kNakDelay);
constexpr int kMaxNaks = 10;  // per chunk, before giving up
constexpr std::int64_t kNakBytes = 64;  // wire size of one NAK packet

// Sender: below CRAS, above clients.
constexpr int kSenderPriority = crrt::kPriorityServer - 1;

constexpr std::int64_t kHeartbeatBytes = 64;  // wire size of one lease renewal

}  // namespace

// ---------------------------------------------------------------------------
// NpsReceiver
// ---------------------------------------------------------------------------

NpsReceiver::NpsReceiver(crrt::Kernel& kernel)
    : ReliableReceiver(kernel, kReceiverBufferBytes, kJitterAllowance) {}

void NpsReceiver::Open(const crmedia::ChunkIndex* index, crobs::SessionTrace* trace) {
  index_ = index;
  set_frame_trace(trace);
}

void NpsReceiver::ConnectReverse(Link& reverse, NpsSender& sender) {
  reverse_ = &reverse;
  sender_ = &sender;
}

void NpsReceiver::OnFragment(const NpsFragment& fragment) {
  if (!CountArrival(fragment)) {
    return;
  }
  // A jump past the expected next chunk reveals wholly lost or skipped
  // chunks: open each as a gap so its NAK timer starts running.
  const std::int64_t chunk = fragment.chunk;
  for (; expected_next_ < chunk; ++expected_next_) {
    if (Reassembly* gap = OpenGap(expected_next_)) {
      ArmTimer(*gap, kNakDelay);
    }
  }
  expected_next_ = std::max(expected_next_, chunk + 1);
  // The first fragment of a chunk that is still incomplete starts the
  // reordering grace; a chunk that completes at once never needs a timer.
  Reassembly* incomplete = Reassemble(fragment);
  if (incomplete != nullptr && !incomplete->timer_armed) {
    ArmTimer(*incomplete, kNakDelay);
  }
}

void NpsReceiver::ArmTimer(Reassembly& entry, crbase::Duration delay) {
  const std::int64_t chunk = entry.chunk.chunk_index;
  entry.timer = kernel_->engine().ScheduleAfter(delay, [this, chunk] { OnTimer(chunk); });
  entry.timer_armed = true;
  entry.backoff = delay;
}

void NpsReceiver::OnTimer(std::int64_t chunk) {
  auto it = pending_.find(chunk);
  if (it == pending_.end()) {
    return;
  }
  Reassembly& entry = it->second;
  entry.timer_armed = false;
  // Give up when there is no repair path (the reordering grace has passed,
  // the chunk will never complete), when the NAKs are spent, or once
  // playout has moved past the chunk (repaired data would be discarded on
  // arrival).
  if (reverse_ == nullptr || entry.naks >= kMaxNaks ||
      clock().Now() > ChunkDeadline(entry.chunk)) {
    Abandon(entry);
    return;
  }
  const NpsNak nak = entry.Nak(clock().Now());
  ++entry.naks;
  ++stats_.naks_sent;
  NpsSender* sender = sender_;
  reverse_->Send(kNakBytes, [sender, nak] { sender->OnNak(nak); });
  ArmTimer(entry, std::min(entry.backoff * 2, kNakBackoffCap));
}

void NpsReceiver::AttachObs(crobs::Hub* hub, const std::string& name) {
  bound_.Release();
  AttachReceiveObs(hub, "nps", name, "receiver");
  if (hub != nullptr) {
    crobs::Registry& metrics = hub->metrics();
    const crobs::Labels labels = {{"stream", name}};
    bound_.Counter(metrics, "nps.rx_chunks", labels, stats_.chunks_received);
    bound_.Counter(metrics, "nps.rx_chunks_abandoned", labels, stats_.chunks_abandoned);
    bound_.Counter(metrics, "nps.rx_naks_sent", labels, stats_.naks_sent);
  }
}

// ---------------------------------------------------------------------------
// NpsSender
// ---------------------------------------------------------------------------

NpsSender::NpsSender(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
                     NpsReceiver& receiver, const Options& options)
    : kernel_(&kernel), server_(&server), link_(&link), receiver_(&receiver), options_(options) {}

NpsSender::NpsSender(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
                     NpsReceiver& receiver)
    : NpsSender(kernel, server, link, receiver, Options{}) {}

crsim::Task NpsSender::Start(cras::SessionId session, const crmedia::ChunkIndex* index) {
  // Frame identity rides the session: cache the server's trace ring once and
  // hand it to the receiver with the index, so both ends name and stamp the
  // same records.
  ftrace_ = server_->FrameTrace(session);
  receiver_->Open(index, ftrace_);
  return kernel_->Spawn("nps-sender", kSenderPriority,
                        [this, session, index](crrt::ThreadContext& ctx) {
                          return SenderThread(ctx, session, index);
                        });
}

void NpsSender::SendFragment(const NpsFragment& fragment) {
  NpsReceiver* receiver = receiver_;
  link_->Send(fragment.bytes, [receiver, fragment] { receiver->OnFragment(fragment); });
}

void NpsSender::OnNak(const NpsNak& nak) {
  ++stats_.naks_received;
  auto it = store_.find(nak.chunk);
  if (it == store_.end()) {
    return;  // aged out of the repair window
  }
  const SentChunk& sent = it->second;
  // The viewer's clock had passed the chunk's deadline when it asked: a
  // retransmission could only arrive to be discarded — drop it here. The
  // chunk stays retained until it ages out like any other.
  if (nak.viewer_now > ChunkDeadline(sent.chunk)) {
    ++stats_.retransmits_abandoned;
    if (hub_ != nullptr) {
      hub_->flight().Record(crobs::FlightEventKind::kNakGiveUp, nak.chunk, 0, 0, "sender");
    }
    return;
  }
  sent.ForEachMissing(nak.missing, [&](int index) {
    SendFragment(sent.Fragment(index, /*retransmit=*/true));
    ++stats_.fragments_retransmitted;
  });
}

namespace {

// The number of kNpsPoll ticks from `now` to the first tick at which `clock`
// reads at least `logical`: the tick a loop of one-poll sleeps would wake on.
// A stopped clock gets there only once someone restarts it, so it is
// checked again after one poll.
std::int64_t PollsUntil(const cras::LogicalClock& clock, crbase::Time now,
                        crbase::Time logical) {
  if (!clock.running()) {
    return 1;
  }
  // Estimate from the rate, then settle on the exact tick with At(), which
  // rounds as the loop's Now() calls would.
  const double real = static_cast<double>(logical - clock.At(now)) / clock.rate();
  std::int64_t ticks = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(real / static_cast<double>(kNpsPoll))));
  while (ticks > 1 && clock.At(now + (ticks - 1) * kNpsPoll) >= logical) {
    --ticks;
  }
  while (clock.At(now + ticks * kNpsPoll) < logical) {
    ++ticks;
  }
  return ticks;
}

}  // namespace

auto NpsSender::ParkForData(std::int64_t ticks) {
  struct Awaiter {
    NpsSender* sender;
    crbase::Time wake_at;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      crsim::Engine& engine = sender->kernel_->engine();
      sender->park_ = Park{h, engine.Now(), wake_at, engine.ScheduleResumeAt(wake_at, h)};
    }
    void await_resume() const { sender->park_.thread = {}; }
  };
  return Awaiter{this, kernel_->Now() + ticks * kNpsPoll};
}

void NpsSender::OnSessionData() {
  if (!park_.thread) {
    return;  // not waiting: the thread reads the buffer before it next parks
  }
  crsim::Engine& engine = kernel_->engine();
  // The first tick strictly after now: the tick a one-poll loop would have
  // seen the data on. A tick at exactly now counts as before the publish:
  // the loop queued its wake a poll earlier, ahead of the server's events.
  const crbase::Time tick =
      park_.since + ((engine.Now() - park_.since) / kNpsPoll + 1) * kNpsPoll;
  if (tick < park_.wake_at) {
    engine.Cancel(park_.wake);
    park_.wake_at = tick;
    park_.wake = engine.ScheduleResumeAt(tick, park_.thread);
  }
}

crsim::Task NpsSender::SenderThread(crrt::ThreadContext& ctx, cras::SessionId session,
                                    const crmedia::ChunkIndex* index) {
  // Wakes a parked thread; a no-op while the thread runs or sleeps. The
  // server drops it when the session closes.
  server_->SetDataListener(session, [this] { OnSessionData(); });
  for (std::size_t cursor = 0; cursor < index->count(); ++cursor) {
    const crmedia::Chunk& chunk = index->at(cursor);
    // Ship each chunk `lookahead` before its logical due time, on the first
    // kNpsPoll tick at which the clock has got there. The logical clock may
    // still be negative during the stream's initial delay.
    const crbase::Time ship_at = chunk.timestamp - options_.lookahead;
    for (;;) {
      const cras::LogicalClock* clock = server_->SessionClock(session);
      if (clock == nullptr) {
        co_return;  // closed, reaped or shed: nobody will play the rest
      }
      if (clock->Now() >= ship_at) {
        break;
      }
      co_await ctx.Sleep(PollsUntil(*clock, ctx.Now(), ship_at) * kNpsPoll);
    }
    // Fetch from the shared buffer (crs_get). CRAS publishes a session's
    // window once per interval, and whenever that publish leads the window
    // by less than the lookahead, the first chunks of the window are asked
    // for before they are there. Such a chunk can only arrive with the
    // session's next publish, so the sender parks until the tick after it.
    // A chunk that never shows up by its deadline is skipped (the
    // receiver's buffer would discard it anyway).
    std::optional<cras::BufferedChunk> buffered;
    for (;;) {
      buffered = server_->Get(session, chunk.timestamp);
      if (buffered.has_value()) {
        break;
      }
      const cras::LogicalClock* clock = server_->SessionClock(session);
      if (clock == nullptr) {
        co_return;
      }
      const crbase::Time deadline = ChunkDeadline(chunk);
      if (clock->Now() > deadline) {
        break;
      }
      co_await ParkForData(PollsUntil(*clock, ctx.Now(), deadline + 1));
    }
    if (!buffered.has_value()) {
      ++stats_.chunks_skipped;
      if (ftrace_ != nullptr) {
        // Never reached the wire: the last stage it provably missed is the
        // send itself.
        ftrace_->Miss(static_cast<std::int64_t>(cursor), crobs::FrameStage::kSent);
      }
      continue;
    }
    co_await ctx.Compute(options_.cpu_per_chunk);

    // Fragment onto the wire. Each fragment carries its own index and its
    // chunk's, so the receiver reassembles explicitly — loss and reordering
    // are the receiver's to detect, not ours to signal.
    const SentChunk sent{*buffered, ctx.Now()};
    Retain(store_, sent);
    for (int i = 0; i < sent.frag_count(); ++i) {
      const NpsFragment fragment = sent.Fragment(i, /*retransmit=*/false);
      SendFragment(fragment);
      ++stats_.packets_sent;
      stats_.bytes_sent += fragment.bytes;
    }
    ++stats_.chunks_sent;
    if (ftrace_ != nullptr) {
      ftrace_->StampAt(buffered->chunk_index, crobs::FrameStage::kSent, sent.sent_at);
    }
  }
  server_->SetDataListener(session, nullptr);
}

void NpsSender::AttachObs(crobs::Hub* hub, const std::string& name) {
  bound_.Release();
  hub_ = hub;
  if (hub == nullptr) {
    return;
  }
  crobs::Registry& metrics = hub->metrics();
  const crobs::Labels labels = {{"stream", name}};
  bound_.Counter(metrics, "nps.tx_naks_received", labels, stats_.naks_received);
  bound_.Counter(metrics, "nps.tx_retransmits", labels, stats_.fragments_retransmitted);
  bound_.Counter(metrics, "nps.tx_retransmits_abandoned", labels, stats_.retransmits_abandoned);
}

// ---------------------------------------------------------------------------
// LeaseClient
// ---------------------------------------------------------------------------

LeaseClient::LeaseClient(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
                         cras::SessionId session, const Options& options)
    : kernel_(&kernel), server_(&server), link_(&link), session_(session), options_(options) {
  CRAS_CHECK(options_.period > 0);
}

crsim::Task LeaseClient::Start() {
  return kernel_->Spawn("lease-client", crrt::kPriorityClient,
                        [this](crrt::ThreadContext& ctx) { return HeartbeatThread(ctx); });
}

crsim::Task LeaseClient::HeartbeatThread(crrt::ThreadContext& ctx) {
  while (!stopped_) {
    // The heartbeat rides the (possibly impaired) link: a lost packet is a
    // missed renewal, exactly as a real lossy network would miss one.
    cras::CrasServer* server = server_;
    const cras::SessionId id = session_;
    link_->Send(kHeartbeatBytes, [server, id] { server->RenewLease(id); });
    ++heartbeats_sent_;
    co_await ctx.Sleep(options_.period);
  }
}

}  // namespace crnet
