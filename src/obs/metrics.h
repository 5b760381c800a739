// Metrics registry: named, label-keyed counters, gauges, and fixed-bin
// histograms.
//
// A count a component already keeps is *bound*, not recorded twice: the
// component holds a Bindings member that points a counter or gauge series
// at its own std::int64_t field, and the series reads that field when it is
// read. Updating the count stays a plain `++stats_.x`. Only facts no
// component keeps (a verdict tally, a sampled gauge, every histogram) are
// pushed: the instrument is looked up once (registration walks a map) and
// held by pointer at the recording site. Registration of the same (name,
// labels) pair returns the same instrument, so independent components may
// share a series. Snapshot() renders the whole registry into a deterministic
// tree (families and series in lexicographic order), which the JSON
// serializer and the snapshot-determinism tests rely on.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/stats/summary.h"

namespace crobs {

// Label set attached to one series of a metric family, e.g.
// {{"disk", "disk0"}, {"queue", "rt"}}. Order does not matter; the registry
// normalizes by key.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

// Monotonically non-decreasing count: what Add() recorded, plus what each
// count bound to it (Bindings) has gained since it was bound.
class Counter {
 public:
  void Add(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const {
    std::int64_t total = value_;
    for (const Source& source : bound_) {
      total += *source.count - source.base;
    }
    return total;
  }

 private:
  friend class Bindings;
  struct Source {
    const std::int64_t* count;
    std::int64_t base;  // *count when it was bound
  };

  std::int64_t value_ = 0;
  std::vector<Source> bound_;
};

// Last-written value (with convenience accumulate/max forms), or the value
// of the count last bound to it (Bindings) while one is.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  void SetMax(double v) {
    if (v > value_) {
      value_ = v;
    }
  }
  double value() const {
    return bound_.empty() ? value_ : static_cast<double>(*bound_.back());
  }

 private:
  friend class Bindings;
  double value_ = 0;
  std::vector<const std::int64_t*> bound_;
};

// Fixed-bin histogram (crstats::Histogram) behind the registry interface.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds) : data_(std::move(upper_bounds)) {}
  void Record(double x) { data_.Add(x); }
  std::int64_t count() const { return data_.summary().count(); }
  const crstats::Histogram& data() const { return data_; }

 private:
  crstats::Histogram data_;
};

// ---- Snapshot tree ----

struct SeriesSnapshot {
  Labels labels;  // normalized (sorted by key)
  // Exactly one of the following is meaningful, per the family's kind.
  std::int64_t counter = 0;
  double gauge = 0;
  std::int64_t count = 0;  // histogram sample count
  double min = 0;
  double max = 0;
  double mean = 0;
  double stddev = 0;
  std::vector<double> upper_bounds;
  std::vector<std::int64_t> buckets;  // one per bound, plus trailing overflow

  // Interpolated percentile (p in [0, 100]) from the fixed bins: linear
  // within the bucket containing the rank, with the recorded min/max as the
  // outer bucket edges and the result clamped to [min, max]. Exact for
  // empty (0) and single-sample (that sample) series; meaningful for
  // histogram series only. Deterministic: a pure function of the snapshot.
  double Percentile(double p) const;
};

struct FamilySnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SeriesSnapshot> series;
};

struct RegistrySnapshot {
  std::vector<FamilySnapshot> families;  // lexicographic by name

  // Series lookup, or nullptr. `labels` need not be pre-sorted.
  const SeriesSnapshot* Find(std::string_view name, Labels labels = {}) const;

  // {"metric.name": {"type": "counter", "series": [{"labels": {...}, ...}]}}
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;
};

// Windowed delta between two snapshots of the same registry: `newer` minus
// `older`. Counters, histogram sample counts, and histogram buckets
// subtract; histogram mean is recomputed from the subtracted sums (stddev
// is not recoverable from two summaries and reads 0); min/max and gauges
// keep the newer snapshot's values. Families or series absent from `older`
// (registered mid-window) pass through unchanged. This is what
// StatsQueryService's `since`-cursor mode serves, so a remote scraper sees
// per-window activity instead of lifetime totals.
RegistrySnapshot DeltaSnapshot(const RegistrySnapshot& older,
                               const RegistrySnapshot& newer);

// ---- Registry ----

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Find-or-create. Registering a name under two different kinds is a
  // programming error (checked). Returned pointers stay valid for the
  // registry's lifetime — cache them at the recording site.
  Counter* GetCounter(const std::string& name, Labels labels = {});
  Gauge* GetGauge(const std::string& name, Labels labels = {});
  Histogram* GetHistogram(const std::string& name, Labels labels,
                          std::vector<double> upper_bounds);

  std::size_t families() const { return families_.size(); }
  RegistrySnapshot Snapshot() const;

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::map<std::string, Series> series;  // keyed by serialized labels
  };

  Series* GetSeries(const std::string& name, MetricKind kind, Labels labels);

  std::map<std::string, Family> families_;
};

// The registry series bound to one component's own counts. Each binding
// resolves its series once, when it is made. Released — by Release(), or
// when the Bindings is destroyed — a binding folds its last reading into
// the series: a counter adds what its count gained while bound, a gauge
// keeps the count's last value. So the totals of a closed session's buffer
// survive it, and a series two live components share adds up. A component
// declares its Bindings after the counts it binds, and the registry must
// outlive it.
class Bindings {
 public:
  Bindings() = default;
  Bindings(const Bindings&) = delete;
  Bindings& operator=(const Bindings&) = delete;
  ~Bindings() { Release(); }

  // Counter series (name, labels) counts what `count` gains from now on.
  void Counter(Registry& registry, const std::string& name, Labels labels,
               const std::int64_t& count);
  // Gauge series (name, labels) reads `value`.
  void Gauge(Registry& registry, const std::string& name, Labels labels,
             const std::int64_t& value);
  void Release();

 private:
  std::vector<std::pair<crobs::Counter*, const std::int64_t*>> counters_;
  std::vector<std::pair<crobs::Gauge*, const std::int64_t*>> gauges_;
};

}  // namespace crobs

#endif  // SRC_OBS_METRICS_H_
