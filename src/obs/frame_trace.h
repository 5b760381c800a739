// End-to-end frame tracing with latency attribution.
//
// The budget ledger (§5.10) audits where an *interval's* time goes on the
// disk side; once a frame leaves the disk — through the shared buffer, the
// cache, a multicast group, NPS fragmentation and repair — causality is
// lost and a missed frame has half a dozen possible owners. FrameTracer
// closes that gap Dapper-style: each logical frame (session id, chunk
// index) is stamped with per-stage timestamps in a bounded per-session
// ring, and every delivered or missed frame decomposes into stage
// latencies (disk-queue, disk-service, buffer-wait, wire, repair,
// playout-slack) that sum *exactly* to the observed end-to-end time — the
// attribution-conservation property, enforced in tests and audited by
// crchaos::AuditRun.
//
// The record path gets the interned treatment: a layer calls
// FrameTracer::Register once per session and keeps the returned
// SessionTrace* (nullptr when tracing is disabled), so each stamp is one
// pointer test plus ring index arithmetic — no map lookups, no label
// hashing, no allocation.

#ifndef SRC_OBS_FRAME_TRACE_H_
#define SRC_OBS_FRAME_TRACE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/time_units.h"
#include "src/sim/engine.h"

namespace crobs {

class Counter;
class FrameTracer;
class Histogram;
class Hub;

// Stages a logical frame passes from the scheduler boundary to a client's
// playout point. Stamped in causal order; a path that skips a layer (cache
// hit: no disk stages; local playout: no wire stages) leaves those stages
// unset and the telescoping decomposition attributes zero time to them.
enum class FrameStage : int {
  kScheduled = 0,  // batch planned at the scheduler boundary
  kDiskStart,      // first member-disk service began for the batch
  kDiskDone,       // whole batch resolved at the io-done manager
  kPublished,      // chunk landed in the server-side shared buffer
  kSent,           // first fragment handed to the wire (NPS or multicast)
  kArrived,        // last fresh (non-retransmit) fragment arrived
  kCompleted,      // reassembly complete in the client-side buffer
  kPlayout,        // the client's crs_get consumed the frame
};
inline constexpr int kFrameStageCount = 8;
const char* FrameStageName(FrameStage stage);

// The six named buckets of the attribution table. Each stamped stage folds
// its delta (own timestamp minus the latest earlier stamped stage) into one
// bucket, so the buckets sum exactly to end-to-end time by construction.
enum class StageBucket : int {
  kDiskQueue = 0,  // scheduled -> disk service start
  kDiskService,    // disk service start -> batch resolved
  kBufferWait,     // resolved/published -> handed to the wire
  kWire,           // wire -> last fresh fragment arrival
  kRepair,         // arrival -> reassembly complete (NAK / XOR repair)
  kPlayoutSlack,   // complete -> consumed by the client
};
inline constexpr int kStageBucketCount = 6;
const char* StageBucketName(StageBucket bucket);
StageBucket BucketOf(FrameStage stage);

// How the frame's data was sourced at the scheduler boundary.
enum class FramePath : int { kUnknown = 0, kDisk, kCache, kMcastFeed, kMcastMember };
const char* FramePathName(FramePath path);

enum class FrameOutcome : int { kInFlight = 0, kDelivered, kMissed };

struct FrameRecord {
  std::int64_t chunk_index = -1;
  // -1 = stage never reached. Indexed by FrameStage.
  crbase::Time stage[kFrameStageCount] = {-1, -1, -1, -1, -1, -1, -1, -1};
  FramePath path = FramePath::kUnknown;
  FrameOutcome outcome = FrameOutcome::kInFlight;
  FrameStage miss_stage = FrameStage::kPlayout;  // meaningful when kMissed
};
static_assert(kFrameStageCount == 8, "keep FrameRecord::stage initializer in sync");

// The telescoping decomposition of one record: every stamped stage's delta
// lands in exactly one bucket, so sum(bucket_ns) == end_to_end_ns always —
// `unattributed_ns` is the conservation residue and must be zero. A stamp
// sequence that runs backwards (a layering bug) shows up as a negative
// bucket; `monotone` flags it.
struct FrameDecomposition {
  crbase::Duration bucket_ns[kStageBucketCount] = {};
  crbase::Duration end_to_end_ns = 0;
  crbase::Duration unattributed_ns = 0;
  bool monotone = true;
};
FrameDecomposition Decompose(const FrameRecord& record);

// Running totals over resolved frames (kept per session and fleet-wide).
struct StageAttribution {
  std::int64_t frames_delivered = 0;
  std::int64_t frames_missed = 0;
  std::int64_t frames_evicted = 0;  // unresolved records overwritten by the ring
  std::int64_t conservation_violations = 0;  // non-monotone stamp sequences
  std::int64_t unattributed_ns = 0;          // summed residue; 0 when conserved
  crbase::Duration end_to_end_ns = 0;
  crbase::Duration bucket_ns[kStageBucketCount] = {};
  std::int64_t missed_at[kFrameStageCount] = {};  // miss counts by miss_stage

  // Folds one resolved frame (its outcome and miss stage) and its
  // decomposition into the totals.
  void Add(const FrameRecord& record, const FrameDecomposition& d);

  std::int64_t frames_resolved() const { return frames_delivered + frames_missed; }
  double MeanBucketMs(StageBucket bucket) const;
  double MeanEndToEndMs() const;
};

// Per-session bounded ring of frame records. Obtained once from
// FrameTracer::Register and cached by each layer (CRAS session, NPS
// sender/receiver, group transport, player); every method is O(1).
class SessionTrace {
 public:
  // Sets the stage timestamp if the stage has not been stamped yet (so a
  // retransmit cannot move kSent). StampAt backdates — the io-done manager
  // derives kDiskStart from the completion's service time.
  void Stamp(std::int64_t chunk, FrameStage stage);
  void StampAt(std::int64_t chunk, FrameStage stage, crbase::Time at);
  void SetPath(std::int64_t chunk, FramePath path);

  // Resolution — first resolution wins; later calls are no-ops.
  // Deliver stamps kPlayout now; ResolveDelivered keeps the stamps as they
  // are (a feed handing its frame to the multicast fan-out has no playout).
  void Deliver(std::int64_t chunk);
  void ResolveDelivered(std::int64_t chunk);
  void Miss(std::int64_t chunk, FrameStage at);

  std::int64_t session_id() const { return session_id_; }
  const StageAttribution& totals() const { return totals_; }
  // The ring slot for `chunk`, or nullptr if it was never stamped or has
  // been overwritten since.
  const FrameRecord* Find(std::int64_t chunk) const;

 private:
  friend class FrameTracer;
  SessionTrace() = default;

  FrameRecord& Slot(std::int64_t chunk);
  void Resolve(FrameRecord& record, FrameOutcome outcome, FrameStage miss_stage);

  FrameTracer* tracer_ = nullptr;
  const crsim::Engine* engine_ = nullptr;
  std::int64_t session_id_ = -1;
  std::uint32_t track_ = 0;  // interned "frames.<label>" trace track
  std::vector<FrameRecord> ring_;
  StageAttribution totals_;
};

// Fleet-wide frame tracer, owned by the Hub. Disabled (the default) it
// allocates nothing and Register returns nullptr, keeping the record path
// of every layer at one pointer test.
class FrameTracer {
 public:
  struct Options {
    bool enabled = false;
    std::size_t ring_capacity = 512;  // frame records retained per session
  };

  FrameTracer(const crsim::Engine& engine, Hub* hub, const Options& options);
  FrameTracer(const FrameTracer&) = delete;
  FrameTracer& operator=(const FrameTracer&) = delete;

  bool enabled() const { return options_.enabled; }

  // Find-or-create the per-session ring; nullptr when disabled. `label`
  // names the session's trace track ("s3"), interned once here.
  SessionTrace* Register(std::int64_t session_id, std::string_view label);
  SessionTrace* Find(std::int64_t session_id) const;

  const StageAttribution& Totals() const { return totals_; }
  // Total stage stamps taken — the record-path event count benches divide
  // wall time by.
  std::uint64_t stamps() const { return stamps_; }
  std::vector<const SessionTrace*> Sessions() const;  // sorted by session id

  // {"frames_delivered": ..., "buckets": {"wire": {...}, ...}} — the
  // fleet-wide attribution table, served via StatsQueryService.
  void WriteJson(std::ostream& out) const;

 private:
  friend class SessionTrace;
  void OnResolve(const SessionTrace& session, const FrameRecord& record,
                 const FrameDecomposition& decomposition);
  void NoteEvicted() { ++totals_.frames_evicted; }
  void NoteStamp() { ++stamps_; }

  const crsim::Engine* engine_;
  Hub* hub_;
  Options options_;
  std::unordered_map<std::int64_t, std::unique_ptr<SessionTrace>> sessions_;
  StageAttribution totals_;
  std::uint64_t stamps_ = 0;
  // Interned names / cached instrument pointers (populated when enabled).
  std::uint32_t name_frame_ = 0;
  Counter* delivered_ = nullptr;
  Counter* missed_ = nullptr;
  Counter* violations_ = nullptr;
  Histogram* e2e_ms_ = nullptr;
  Histogram* bucket_ms_[kStageBucketCount] = {};
};

}  // namespace crobs

#endif  // SRC_OBS_FRAME_TRACE_H_
