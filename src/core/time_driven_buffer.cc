#include "src/core/time_driven_buffer.h"

#include <algorithm>

#include "src/base/logging.h"

namespace cras {

TimeDrivenBuffer::TimeDrivenBuffer(std::int64_t capacity_bytes, Duration jitter_allowance)
    : capacity_bytes_(capacity_bytes), jitter_allowance_(jitter_allowance) {
  CRAS_CHECK(capacity_bytes > 0);
  CRAS_CHECK(jitter_allowance >= 0);
}

void TimeDrivenBuffer::AttachObs(crobs::Hub* hub, const std::string& stream) {
  bound_.Release();
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->trace = &hub->trace();
  obs->track = obs->trace->InternTrack("buffers");
  obs->name = obs->trace->InternName(stream);
  obs_ = std::move(obs);
  crobs::Registry& metrics = hub->metrics();
  const crobs::Labels labels = {{"stream", stream}};
  bound_.Gauge(metrics, "buffer.resident_bytes", labels, resident_bytes_);
  bound_.Counter(metrics, "buffer.puts", labels, stats_.puts);
  bound_.Counter(metrics, "buffer.discarded", labels, stats_.discarded_obsolete);
  bound_.Counter(metrics, "buffer.overflow_evictions", labels, stats_.overflow_evictions);
  RecordOccupancy();
}

void TimeDrivenBuffer::SetFrameTrace(crobs::SessionTrace* trace,
                                     crobs::FrameStage miss_stage) {
  ftrace_ = trace;
  miss_stage_ = miss_stage;
}

void TimeDrivenBuffer::NoteDropped(const Entry& entry) {
  if (ftrace_ != nullptr && !entry.taken) {
    ftrace_->Miss(entry.chunk.chunk_index, miss_stage_);
  }
}

void TimeDrivenBuffer::RecordOccupancy() {
  if (obs_ != nullptr && obs_->trace->enabled()) {
    obs_->trace->CounterSample(obs_->track, obs_->name, static_cast<double>(resident_bytes_));
  }
}

void TimeDrivenBuffer::PopFront() {
  ++head_;
  if (head_ > chunks_.size() - head_) {
    chunks_.erase(chunks_.begin(), LiveBegin());
    head_ = 0;
  }
}

void TimeDrivenBuffer::DiscardObsolete(Time logical_now) {
  const Time discard_before = logical_now - jitter_allowance_;
  std::int64_t discarded = 0;
  while (head_ < chunks_.size()) {
    const Entry& oldest = *LiveBegin();
    const BufferedChunk& c = oldest.chunk;
    if (c.timestamp + c.duration > discard_before) {
      break;  // in timestamp order: everything later is still live
    }
    resident_bytes_ -= c.size;
    ++stats_.discarded_obsolete;
    ++discarded;
    NoteDropped(oldest);
    PopFront();
  }
  if (discarded > 0) {
    RecordOccupancy();
  }
}

void TimeDrivenBuffer::Put(const BufferedChunk& chunk, Time logical_now) {
  DiscardObsolete(logical_now);
  if (chunk.timestamp + chunk.duration <= logical_now - jitter_allowance_) {
    // The data arrived after its playback window closed (a deadline miss
    // upstream); the time-driven rule says it is already garbage.
    ++stats_.rejected_late;
    if (ftrace_ != nullptr) {
      ftrace_->Miss(chunk.chunk_index, miss_stage_);
    }
    return;
  }
  // Chunks normally arrive in timestamp order and append. One that does not
  // goes into its place, and a duplicate put (e.g. after a seek re-fetches a
  // window) replaces the resident copy.
  auto before = [](const Entry& entry, Time t) { return entry.chunk.timestamp < t; };
  const bool append =
      head_ == chunks_.size() || chunks_.back().chunk.timestamp < chunk.timestamp;
  if (!append) {
    auto existing = std::lower_bound(LiveBegin(), chunks_.end(), chunk.timestamp, before);
    if (existing->chunk.timestamp == chunk.timestamp) {
      resident_bytes_ -= existing->chunk.size;
      chunks_.erase(existing);
      ++stats_.replaced;
    }
  }
  while (resident_bytes_ + chunk.size > capacity_bytes_ && head_ < chunks_.size()) {
    const Entry& oldest = *LiveBegin();
    resident_bytes_ -= oldest.chunk.size;
    NoteDropped(oldest);
    PopFront();
    ++stats_.overflow_evictions;
  }
  if (append) {
    chunks_.push_back(Entry{chunk, false});
  } else {
    // Rare, so shifting the later chunks up is fine.
    chunks_.insert(std::lower_bound(LiveBegin(), chunks_.end(), chunk.timestamp, before),
                   Entry{chunk, false});
  }
  resident_bytes_ += chunk.size;
  stats_.max_resident_bytes = std::max(stats_.max_resident_bytes, resident_bytes_);
  ++stats_.puts;
  RecordOccupancy();
}

std::optional<BufferedChunk> TimeDrivenBuffer::Get(Time t) {
  // Last chunk with timestamp <= t whose interval covers t.
  auto it = std::upper_bound(
      LiveBegin(), chunks_.end(), t,
      [](Time time, const Entry& entry) { return time < entry.chunk.timestamp; });
  if (it == LiveBegin()) {
    ++stats_.get_misses;
    return std::nullopt;
  }
  --it;
  const BufferedChunk& c = it->chunk;
  if (t >= c.timestamp + c.duration) {
    ++stats_.get_misses;
    return std::nullopt;
  }
  it->taken = true;
  ++stats_.get_hits;
  return c;
}

void TimeDrivenBuffer::Clear() {
  chunks_.clear();
  head_ = 0;
  resident_bytes_ = 0;
  RecordOccupancy();
}

}  // namespace cras
