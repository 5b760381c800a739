// SLO watchdog over the frame tracer.
//
// One budget, in the SRE error-budget sense: the fraction of frames missed.
// The monitor keeps rolling windows — fleet-wide and per session — as rings
// of fixed-width time buckets; at every bucket rotation it computes the
// *burn rate* (observed miss fraction / budgeted miss fraction, so 1.0 means
// "spending the budget exactly as fast as allowed"). A burn above 1.0 emits
// a `slo_burn` flight-recorder event carrying the dominant stage bucket —
// the attribution table names the owner in the same breath as the alarm —
// and a fast fleet-wide burn freezes an automatic flight dump.
//
// There is no latency budget: a healthy frame's end-to-end time is mostly
// playout slack and the wait for its interval boundary, both by design, so
// a frame late enough to matter is one that missed, and this budget counts
// it.
//
// A session's window is erased once a rotation finds it empty, so the
// watchdog's state is bounded by the sessions that resolved a frame within
// the last window.

#ifndef SRC_OBS_SLO_H_
#define SRC_OBS_SLO_H_

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "src/base/time_units.h"
#include "src/obs/frame_trace.h"
#include "src/sim/engine.h"

namespace crobs {

class Hub;

class SloMonitor {
 public:
  struct Options {
    bool enabled = false;
  };

  // Rolling window = kBucketWidth * kBuckets.
  static constexpr crbase::Duration kBucketWidth = crbase::Seconds(1);
  static constexpr int kBuckets = 10;
  static constexpr double kMissBudget = 0.01;  // budgeted frame-miss fraction
  static constexpr double kFastBurn = 8.0;     // burn rate that freezes a flight dump
  static constexpr std::int64_t kMinFrames = 32;  // a window judges only past this depth
  static constexpr crbase::Duration kMinTriggerGap = crbase::Seconds(5);

  SloMonitor(const crsim::Engine& engine, Hub* hub, const Options& options);
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  bool enabled() const { return options_.enabled; }

  // Record-path entry, called by FrameTracer for every resolved frame.
  void OnFrameResolved(std::int64_t session, bool missed,
                       const crbase::Duration bucket_ns[kStageBucketCount]);

  // Fleet-wide rolling-window state (recomputed on read; cheap — the window
  // is a handful of buckets).
  std::int64_t WindowFrames() const;
  std::int64_t WindowMisses() const;
  double MissBurnRate() const;
  StageBucket DominantBucket() const;

  std::int64_t burn_events() const { return burn_events_; }
  std::int64_t fast_burns() const { return fast_burns_; }

  // Deterministic JSON state document, served by StatsQueryService.
  void WriteJson(std::ostream& out) const;
  std::string StateJson() const;

 private:
  struct Bucket {
    std::int64_t frames = 0;
    std::int64_t misses = 0;
    double stage_ms[kStageBucketCount] = {};
  };
  struct Window {
    std::array<Bucket, kBuckets> ring;  // indexed by epoch % kBuckets
    std::int64_t Frames() const;
    std::int64_t Misses() const;
    double MissBurn() const;
    StageBucket Dominant() const;
  };

  // Rotate the bucket rings up to the engine's current epoch, evaluating
  // the budget at each rotation boundary.
  void AdvanceTo(crbase::Time now);
  void Evaluate(std::int64_t session, const Window& window);

  const crsim::Engine* engine_;
  Hub* hub_;
  Options options_;
  std::int64_t epoch_ = 0;  // current bucket number = now / kBucketWidth
  Window fleet_;
  std::map<std::int64_t, Window> sessions_;  // only windows holding a frame
  std::int64_t burn_events_ = 0;
  std::int64_t fast_burns_ = 0;
  crbase::Time last_trigger_ = -1;
};

}  // namespace crobs

#endif  // SRC_OBS_SLO_H_
