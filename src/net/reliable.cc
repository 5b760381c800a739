#include "src/net/reliable.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"

namespace crnet {

// ---------------------------------------------------------------------------
// SentChunk
// ---------------------------------------------------------------------------

int SentChunk::frag_count() const {
  return static_cast<int>((chunk.size + max_packet_bytes - 1) / max_packet_bytes);
}

NpsFragment SentChunk::Fragment(int index, bool retransmit) const {
  NpsFragment fragment;
  fragment.seq = seq;
  fragment.frag_index = index;
  fragment.frag_count = frag_count();
  fragment.bytes = std::min(max_packet_bytes, chunk.size - index * max_packet_bytes);
  fragment.chunk = chunk;
  fragment.sent_at = sent_at;
  fragment.retransmit = retransmit;
  return fragment;
}

// ---------------------------------------------------------------------------
// ReliableReceiver
// ---------------------------------------------------------------------------

NpsNak ReliableReceiver::Reassembly::Nak(std::uint64_t seq) const {
  NpsNak nak;
  nak.seq = seq;
  for (int i = 0; i < frag_count; ++i) {
    if (!have[static_cast<std::size_t>(i)]) {
      nak.missing.push_back(i);
    }
  }
  return nak;
}

ReliableReceiver::ReliableReceiver(crrt::Kernel& kernel, std::int64_t buffer_bytes,
                                   crbase::Duration jitter_allowance)
    : kernel_(&kernel), buffer_(buffer_bytes, jitter_allowance), clock_(kernel.engine()) {}

ReliableReceiver::~ReliableReceiver() {
  for (auto& [seq, entry] : pending_) {
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
  if (IsDone(fragment.seq)) {
    ++stats.duplicate_fragments;
    return false;
  }
  return true;
}

ReliableReceiver::Reassembly& ReliableReceiver::Pending(std::uint64_t seq) {
  auto [it, inserted] = pending_.try_emplace(seq);
  if (inserted) {
    it->second.created_at = kernel_->Now();
  }
  return it->second;
}

ReliableReceiver::Reassembly* ReliableReceiver::Reassemble(const NpsFragment& fragment) {
  Reassembly& entry = Pending(fragment.seq);
  if (entry.frag_count == 0) {
    // First fragment to arrive for this sequence number: adopt the chunk
    // metadata every fragment carries.
    CRAS_CHECK(fragment.frag_count > 0);
    entry.chunk = fragment.chunk;
    entry.frag_count = fragment.frag_count;
    entry.have.assign(static_cast<std::size_t>(fragment.frag_count), false);
    entry.sent_at = fragment.sent_at;
  }
  CRAS_CHECK(fragment.frag_index >= 0 && fragment.frag_index < entry.frag_count);
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
  if (entry.received == entry.frag_count) {
    Complete(fragment.seq, entry);
    return nullptr;
  }
  return &entry;
}

bool ReliableReceiver::IsDone(std::uint64_t seq) const {
  return seq < done_below_ || done_above_.count(seq) != 0;
}

void ReliableReceiver::MarkDone(std::uint64_t seq) {
  if (seq != done_below_) {
    done_above_.insert(seq);
    return;
  }
  ++done_below_;
  while (!done_above_.empty() && *done_above_.begin() == done_below_) {
    done_above_.erase(done_above_.begin());
    ++done_below_;
  }
}

void ReliableReceiver::Complete(std::uint64_t seq, Reassembly& entry) {
  if (entry.timer_armed) {
    kernel_->engine().Cancel(entry.timer);
  }
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
  MarkDone(seq);
  pending_.erase(seq);
}

void ReliableReceiver::Abandon(std::uint64_t seq, Reassembly& entry, std::int64_t lost_chunk) {
  if (entry.timer_armed) {
    kernel_->engine().Cancel(entry.timer);
  }
  ++reassembly_stats().chunks_abandoned;
  if (obs_ != nullptr) {
    obs_->hub->flight().Record(crobs::FlightEventKind::kNakGiveUp,
                               static_cast<std::int64_t>(seq), entry.naks, 0, obs_->source);
  }
  const std::int64_t chunk_index = entry.frag_count > 0 ? entry.chunk.chunk_index : lost_chunk;
  if (ftrace_ != nullptr && chunk_index >= 0) {
    if (entry.last_fresh_at >= 0) {
      ftrace_->StampAt(chunk_index, crobs::FrameStage::kArrived, entry.last_fresh_at);
    } else if (entry.frag_count > 0) {
      // Only repair traffic arrived: zero wire time, the wait was all repair.
      ftrace_->StampAt(chunk_index, crobs::FrameStage::kArrived, entry.sent_at);
    }
    ftrace_->Miss(chunk_index, entry.received > 0 ? crobs::FrameStage::kCompleted
                                                  : crobs::FrameStage::kArrived);
  }
  MarkDone(seq);
  pending_.erase(seq);
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
