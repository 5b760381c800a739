#include "src/net/reliable.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"

namespace crnet {

// ---------------------------------------------------------------------------
// SentChunk
// ---------------------------------------------------------------------------

NpsFragment SentChunk::Fragment(int index, bool retransmit) const {
  NpsFragment fragment;
  fragment.chunk = chunk.chunk_index;
  fragment.frag_index = index;
  fragment.bytes = std::min(kMaxPacketBytes, chunk.size - index * kMaxPacketBytes);
  fragment.sent_at = sent_at;
  fragment.retransmit = retransmit;
  return fragment;
}

void Retain(std::map<std::int64_t, SentChunk>& store, const SentChunk& sent) {
  store.emplace(sent.chunk.chunk_index, sent);
  if (store.size() > static_cast<std::size_t>(kRepairWindowChunks)) {
    store.erase(store.begin());
  }
}

// ---------------------------------------------------------------------------
// ReliableReceiver
// ---------------------------------------------------------------------------

NpsNak ReliableReceiver::Reassembly::Nak(crbase::Time viewer_now) const {
  NpsNak nak;
  nak.chunk = chunk.chunk_index;
  nak.viewer_now = viewer_now;
  for (std::size_t i = 0; i < have.size(); ++i) {
    if (!have[i]) {
      nak.missing.push_back(static_cast<int>(i));
    }
  }
  return nak;
}

ReliableReceiver::ReliableReceiver(crrt::Kernel& kernel, std::int64_t buffer_bytes,
                                   crbase::Duration jitter_allowance)
    : kernel_(&kernel), buffer_(buffer_bytes, jitter_allowance), clock_(kernel.engine()) {}

ReliableReceiver::~ReliableReceiver() {
  for (auto& [chunk, entry] : pending_) {
    if (entry.timer_armed) {
      kernel_->engine().Cancel(entry.timer);
    }
  }
}

void ReliableReceiver::set_frame_trace(crobs::SessionTrace* trace) {
  ftrace_ = trace;
  // The local playout buffer resolves frames that complete reassembly but
  // age out unconsumed.
  buffer_.SetFrameTrace(trace, crobs::FrameStage::kCompleted);
}

std::optional<cras::BufferedChunk> ReliableReceiver::Get(crbase::Time t) {
  buffer_.DiscardObsolete(clock_.Now());
  std::optional<cras::BufferedChunk> chunk = buffer_.Get(t);
  if (chunk.has_value() && ftrace_ != nullptr) {
    ftrace_->Deliver(chunk->chunk_index);
  }
  return chunk;
}

bool ReliableReceiver::CountArrival(const NpsFragment& fragment) {
  ReassemblyStats& stats = reassembly_stats();
  if (fragment.retransmit) {
    ++stats.retransmitted_fragments;
  }
  if (IsDone(fragment.chunk)) {
    ++stats.duplicate_fragments;
    return false;
  }
  return true;
}

ReliableReceiver::Reassembly& ReliableReceiver::Pending(std::int64_t chunk) {
  auto [it, inserted] = pending_.try_emplace(chunk);
  Reassembly& entry = it->second;
  if (inserted) {
    CRAS_CHECK(index_ != nullptr && chunk >= 0 &&
               chunk < static_cast<std::int64_t>(index_->count()));
    const crmedia::Chunk& known = index_->at(static_cast<std::size_t>(chunk));
    entry.chunk = cras::BufferedChunk{chunk, known.timestamp, known.duration, known.size};
    entry.have.assign(static_cast<std::size_t>(FragmentCount(known.size)), false);
    entry.created_at = kernel_->Now();
  }
  return entry;
}

ReliableReceiver::Reassembly* ReliableReceiver::OpenGap(std::int64_t chunk) {
  if (IsDone(chunk) || pending_.count(chunk) != 0) {
    return nullptr;
  }
  return &Pending(chunk);
}

ReliableReceiver::Reassembly* ReliableReceiver::Reassemble(const NpsFragment& fragment) {
  Reassembly& entry = Pending(fragment.chunk);
  CRAS_CHECK(fragment.frag_index >= 0 &&
             fragment.frag_index < static_cast<int>(entry.have.size()));
  if (entry.received == 0) {
    entry.sent_at = fragment.sent_at;
  }
  ReassemblyStats& stats = reassembly_stats();
  if (fragment.frag_index < entry.max_frag_seen) {
    ++stats.out_of_order_fragments;
  }
  entry.max_frag_seen = std::max(entry.max_frag_seen, fragment.frag_index);
  if (entry.have[static_cast<std::size_t>(fragment.frag_index)]) {
    ++stats.duplicate_fragments;
    return nullptr;
  }
  entry.have[static_cast<std::size_t>(fragment.frag_index)] = true;
  ++entry.received;
  if (!fragment.retransmit) {
    entry.last_fresh_at = kernel_->Now();
  }
  if (entry.received == static_cast<int>(entry.have.size())) {
    Complete(entry);
    return nullptr;
  }
  return &entry;
}

bool ReliableReceiver::IsDone(std::int64_t chunk) const {
  return chunk < done_below_ || done_above_.count(chunk) != 0;
}

void ReliableReceiver::Finish(Reassembly& entry) {
  if (entry.timer_armed) {
    kernel_->engine().Cancel(entry.timer);
  }
  const std::int64_t chunk = entry.chunk.chunk_index;
  pending_.erase(chunk);
  if (chunk != done_below_) {
    done_above_.insert(chunk);
    return;
  }
  ++done_below_;
  while (!done_above_.empty() && *done_above_.begin() == done_below_) {
    done_above_.erase(done_above_.begin());
    ++done_below_;
  }
}

void ReliableReceiver::Complete(Reassembly& entry) {
  const crbase::Time now = kernel_->Now();
  cras::BufferedChunk local = entry.chunk;
  local.filled_at = now;
  if (ftrace_ != nullptr) {
    // Wire ends at the last fresh fragment; everything after that is
    // repair. A chunk none of whose fresh fragments survived has zero wire
    // time — the wire delivered nothing — so its entire sent-to-completed
    // latency is repair: anchor kArrived at the original send time (carried
    // in every fragment, equal to the sender's kSent stamp).
    ftrace_->StampAt(local.chunk_index, crobs::FrameStage::kArrived,
                     entry.last_fresh_at >= 0 ? entry.last_fresh_at : entry.sent_at);
    ftrace_->StampAt(local.chunk_index, crobs::FrameStage::kCompleted, now);
  }
  buffer_.Put(local, clock_.Now());
  ReassemblyStats& stats = reassembly_stats();
  ++stats.chunks_received;
  stats.bytes_received += entry.chunk.size;
  stats.max_network_latency = std::max(stats.max_network_latency, now - entry.sent_at);
  if (obs_ != nullptr) {
    obs_->reassembly_ms->Record(crobs::ToMillis(now - entry.sent_at));
  }
  Finish(entry);
}

void ReliableReceiver::Abandon(Reassembly& entry) {
  const std::int64_t chunk = entry.chunk.chunk_index;
  ++reassembly_stats().chunks_abandoned;
  if (obs_ != nullptr) {
    obs_->hub->flight().Record(crobs::FlightEventKind::kNakGiveUp, chunk, entry.naks, 0,
                               obs_->source);
  }
  if (ftrace_ != nullptr) {
    if (entry.last_fresh_at >= 0) {
      ftrace_->StampAt(chunk, crobs::FrameStage::kArrived, entry.last_fresh_at);
    } else if (entry.received > 0) {
      // Only repair traffic arrived: zero wire time, the wait was all repair.
      ftrace_->StampAt(chunk, crobs::FrameStage::kArrived, entry.sent_at);
    }
    ftrace_->Miss(chunk, entry.received > 0 ? crobs::FrameStage::kCompleted
                                            : crobs::FrameStage::kArrived);
  }
  Finish(entry);
}

void ReliableReceiver::AttachReceiveObs(crobs::Hub* hub, const std::string& prefix,
                                        const std::string& name, const char* source) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  obs->source = source;
  obs->reassembly_ms = hub->metrics().GetHistogram(prefix + ".reassembly_ms", {{"stream", name}},
                                                   crobs::LatencyBucketsMs());
  obs_ = std::move(obs);
}

}  // namespace crnet
