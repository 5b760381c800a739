#include "src/obs/frame_trace.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace crobs {

const char* FrameStageName(FrameStage stage) {
  switch (stage) {
    case FrameStage::kScheduled:
      return "scheduled";
    case FrameStage::kDiskStart:
      return "disk_start";
    case FrameStage::kDiskDone:
      return "disk_done";
    case FrameStage::kPublished:
      return "published";
    case FrameStage::kSent:
      return "sent";
    case FrameStage::kArrived:
      return "arrived";
    case FrameStage::kCompleted:
      return "completed";
    case FrameStage::kPlayout:
      return "playout";
  }
  return "unknown";
}

const char* StageBucketName(StageBucket bucket) {
  switch (bucket) {
    case StageBucket::kDiskQueue:
      return "disk_queue";
    case StageBucket::kDiskService:
      return "disk_service";
    case StageBucket::kBufferWait:
      return "buffer_wait";
    case StageBucket::kWire:
      return "wire";
    case StageBucket::kRepair:
      return "repair";
    case StageBucket::kPlayoutSlack:
      return "playout_slack";
  }
  return "unknown";
}

StageBucket BucketOf(FrameStage stage) {
  switch (stage) {
    case FrameStage::kScheduled:  // anchor; never charged as a delta target
    case FrameStage::kDiskStart:
      return StageBucket::kDiskQueue;
    case FrameStage::kDiskDone:
      return StageBucket::kDiskService;
    case FrameStage::kPublished:
    case FrameStage::kSent:
      return StageBucket::kBufferWait;
    case FrameStage::kArrived:
      return StageBucket::kWire;
    case FrameStage::kCompleted:
      return StageBucket::kRepair;
    case FrameStage::kPlayout:
      return StageBucket::kPlayoutSlack;
  }
  return StageBucket::kPlayoutSlack;
}

FrameDecomposition Decompose(const FrameRecord& record) {
  FrameDecomposition d;
  crbase::Time first = -1;
  crbase::Time prev = -1;
  for (int i = 0; i < kFrameStageCount; ++i) {
    const crbase::Time ts = record.stage[i];
    if (ts < 0) {
      continue;
    }
    if (first < 0) {
      first = ts;  // the earliest stamped stage anchors the decomposition
    } else {
      const crbase::Duration delta = ts - prev;
      d.bucket_ns[static_cast<int>(BucketOf(static_cast<FrameStage>(i)))] += delta;
      if (delta < 0) {
        d.monotone = false;
      }
    }
    prev = ts;
  }
  if (first >= 0) {
    d.end_to_end_ns = prev - first;
  }
  crbase::Duration sum = 0;
  for (const crbase::Duration b : d.bucket_ns) {
    sum += b;
  }
  // Telescoping: sum of stage deltas is exactly last - first. Kept as an
  // explicit field so tests and the chaos auditor can assert it is zero.
  d.unattributed_ns = d.end_to_end_ns - sum;
  return d;
}

void StageAttribution::Add(const FrameRecord& record, const FrameDecomposition& d) {
  if (record.outcome == FrameOutcome::kDelivered) {
    ++frames_delivered;
  } else {
    ++frames_missed;
    ++missed_at[static_cast<int>(record.miss_stage)];
  }
  end_to_end_ns += d.end_to_end_ns;
  unattributed_ns += d.unattributed_ns;
  if (!d.monotone) {
    ++conservation_violations;
  }
  for (int i = 0; i < kStageBucketCount; ++i) {
    bucket_ns[i] += d.bucket_ns[i];
  }
}

double StageAttribution::MeanBucketMs(StageBucket bucket) const {
  const std::int64_t n = frames_resolved();
  if (n == 0) {
    return 0;
  }
  return static_cast<double>(bucket_ns[static_cast<int>(bucket)]) / 1e6 /
         static_cast<double>(n);
}

double StageAttribution::MeanEndToEndMs() const {
  const std::int64_t n = frames_resolved();
  if (n == 0) {
    return 0;
  }
  return static_cast<double>(end_to_end_ns) / 1e6 / static_cast<double>(n);
}

// ---- SessionTrace ----

FrameRecord& SessionTrace::Slot(std::int64_t chunk) {
  FrameRecord& record = ring_[static_cast<std::size_t>(chunk) % ring_.size()];
  if (record.chunk_index != chunk) {
    if (record.chunk_index >= 0 && record.outcome == FrameOutcome::kInFlight) {
      // A live record is being overwritten: the ring is too small for this
      // session's in-flight window. Counted, never silently lost.
      ++totals_.frames_evicted;
      tracer_->NoteEvicted();
    }
    record = FrameRecord{};
    record.chunk_index = chunk;
  }
  return record;
}

void SessionTrace::Stamp(std::int64_t chunk, FrameStage stage) {
  StampAt(chunk, stage, engine_->Now());
}

void SessionTrace::StampAt(std::int64_t chunk, FrameStage stage, crbase::Time at) {
  FrameRecord& record = Slot(chunk);
  crbase::Time& slot = record.stage[static_cast<int>(stage)];
  if (slot < 0) {
    slot = at;
    tracer_->NoteStamp();
  }
}

void SessionTrace::Deliver(std::int64_t chunk) {
  FrameRecord& record = Slot(chunk);
  if (record.outcome != FrameOutcome::kInFlight) {
    return;
  }
  crbase::Time& slot = record.stage[static_cast<int>(FrameStage::kPlayout)];
  if (slot < 0) {
    slot = engine_->Now();
    tracer_->NoteStamp();
  }
  Resolve(record, FrameOutcome::kDelivered, FrameStage::kPlayout);
}

void SessionTrace::ResolveDelivered(std::int64_t chunk) {
  Resolve(Slot(chunk), FrameOutcome::kDelivered, FrameStage::kPlayout);
}

void SessionTrace::Miss(std::int64_t chunk, FrameStage at) {
  Resolve(Slot(chunk), FrameOutcome::kMissed, at);
}

void SessionTrace::Resolve(FrameRecord& record, FrameOutcome outcome,
                           FrameStage miss_stage) {
  if (record.outcome != FrameOutcome::kInFlight) {
    return;  // first resolution wins; racing layers are expected
  }
  record.outcome = outcome;
  record.miss_stage = miss_stage;
  const FrameDecomposition d = Decompose(record);
  totals_.Add(record, d);
  tracer_->OnResolve(*this, record, d);
}

const FrameRecord* SessionTrace::Find(std::int64_t chunk) const {
  if (ring_.empty()) {
    return nullptr;
  }
  const FrameRecord& record = ring_[static_cast<std::size_t>(chunk) % ring_.size()];
  return record.chunk_index == chunk ? &record : nullptr;
}

// ---- FrameTracer ----

FrameTracer::FrameTracer(const crsim::Engine& engine, Hub* hub, const Options& options)
    : engine_(&engine), hub_(hub), options_(options) {
  if (!options_.enabled) {
    return;
  }
  CRAS_CHECK(options_.ring_capacity > 0) << "frame ring capacity must be positive";
  // All names are interned and all instrument pointers cached here, once,
  // so the per-frame record path never touches the registry or the string
  // table (the ROADMAP's batched-lookup treatment).
  Registry& reg = hub_->metrics();
  name_frame_ = hub_->trace().InternName("frame");
  bound_.Counter(reg, "frames.delivered", {}, totals_.frames_delivered);
  bound_.Counter(reg, "frames.missed", {}, totals_.frames_missed);
  bound_.Counter(reg, "frames.conservation_violations", {}, totals_.conservation_violations);
  e2e_ms_ = reg.GetHistogram("frames.e2e_ms", {}, LatencyBucketsMs());
  for (int i = 0; i < kStageBucketCount; ++i) {
    bucket_ms_[i] = reg.GetHistogram(
        "frames.stage_ms", {{"stage", StageBucketName(static_cast<StageBucket>(i))}},
        LatencyBucketsMs());
  }
}

SessionTrace* FrameTracer::Register(std::int64_t session_id, std::string_view label) {
  if (!options_.enabled) {
    return nullptr;
  }
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) {
    return it->second.get();
  }
  auto trace = std::unique_ptr<SessionTrace>(new SessionTrace());
  trace->tracer_ = this;
  trace->engine_ = engine_;
  trace->session_id_ = session_id;
  trace->track_ = hub_->trace().InternTrack("frames." + std::string(label));
  trace->ring_.resize(options_.ring_capacity);
  SessionTrace* raw = trace.get();
  sessions_.emplace(session_id, std::move(trace));
  return raw;
}

std::vector<const SessionTrace*> FrameTracer::Sessions() const {
  std::vector<const SessionTrace*> out;
  out.reserve(sessions_.size());
  for (const auto& [id, trace] : sessions_) {
    out.push_back(trace.get());
  }
  std::sort(out.begin(), out.end(), [](const SessionTrace* a, const SessionTrace* b) {
    return a->session_id() < b->session_id();
  });
  return out;
}

void FrameTracer::OnResolve(const SessionTrace& session, const FrameRecord& record,
                            const FrameDecomposition& d) {
  totals_.Add(record, d);
  e2e_ms_->Record(static_cast<double>(d.end_to_end_ns) / 1e6);
  for (int i = 0; i < kStageBucketCount; ++i) {
    if (d.bucket_ns[i] != 0) {
      bucket_ms_[i]->Record(static_cast<double>(d.bucket_ns[i]) / 1e6);
    }
  }
  // One trace span per resolved frame, on the session's pre-interned track:
  // the frame's whole life as a Perfetto-visible "X" event.
  crbase::Time first = -1;
  for (int i = 0; i < kFrameStageCount; ++i) {
    if (record.stage[i] >= 0) {
      first = record.stage[i];
      break;
    }
  }
  if (first >= 0) {
    hub_->trace().Complete(session.track_, name_frame_, first, d.end_to_end_ns);
  }
  if (hub_->slo().enabled()) {
    hub_->slo().OnFrameResolved(session.session_id(),
                                record.outcome == FrameOutcome::kMissed, d.bucket_ns);
  }
}

void FrameTracer::WriteJson(std::ostream& out) const {
  const StageAttribution& t = totals_;
  out << "{\"enabled\": " << (options_.enabled ? "true" : "false")
      << ", \"frames_delivered\": " << t.frames_delivered
      << ", \"frames_missed\": " << t.frames_missed
      << ", \"frames_evicted\": " << t.frames_evicted
      << ", \"conservation_violations\": " << t.conservation_violations
      << ", \"unattributed_ns\": " << t.unattributed_ns
      << ", \"stamps\": " << stamps_
      << ", \"mean_e2e_ms\": " << t.MeanEndToEndMs() << ", \"buckets\": {";
  for (int i = 0; i < kStageBucketCount; ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << "\"" << StageBucketName(static_cast<StageBucket>(i))
        << "\": {\"total_ns\": " << t.bucket_ns[i]
        << ", \"mean_ms\": " << t.MeanBucketMs(static_cast<StageBucket>(i)) << "}";
  }
  out << "}, \"missed_at\": {";
  bool wrote = false;
  for (int i = 0; i < kFrameStageCount; ++i) {
    if (t.missed_at[i] == 0) {
      continue;
    }
    if (wrote) {
      out << ", ";
    }
    out << "\"" << FrameStageName(static_cast<FrameStage>(i))
        << "\": " << t.missed_at[i];
    wrote = true;
  }
  out << "}}";
}

}  // namespace crobs
