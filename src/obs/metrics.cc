#include "src/obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "src/base/logging.h"
#include "src/obs/json.h"

namespace crobs {

namespace {

Labels Normalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

// "k1=v1,k2=v2" over normalized labels; '=' and ',' inside values are
// escaped so distinct label sets cannot collide.
std::string SeriesKey(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    for (const std::string* part : {&k, &v}) {
      for (const char c : *part) {
        if (c == '=' || c == ',' || c == '\\') {
          key.push_back('\\');
        }
        key.push_back(c);
      }
      key.push_back(part == &k ? '=' : ',');
    }
  }
  return key;
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// ---- Snapshot ----

double SeriesSnapshot::Percentile(double p) const {
  if (count <= 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  if (buckets.empty()) {
    // Poisoned bounds kept only the summary: interpolate the whole range.
    return min + p / 100.0 * (max - min);
  }
  // The rank is a position in [0, count]; the percentile lies in the first
  // bucket whose cumulative count reaches it.
  const double rank = p / 100.0 * static_cast<double>(count);
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    const std::int64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= rank) {
      // A snapshot is not guaranteed to carry upper_bounds.size() + 1
      // buckets: hand-built and delta snapshots may disagree, and a
      // single-bin series has no bounds at all. Any bucket past the bounds
      // is treated as the overflow bin [last bound or min, max].
      const double lower =
          (i == 0 || i > upper_bounds.size()) ? min : upper_bounds[i - 1];
      const double upper = i < upper_bounds.size() ? upper_bounds[i] : max;
      const double frac =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(buckets[i]);
      return std::clamp(lower + frac * (upper - lower), min, max);
    }
    cumulative = next;
  }
  return max;
}

RegistrySnapshot DeltaSnapshot(const RegistrySnapshot& older,
                               const RegistrySnapshot& newer) {
  RegistrySnapshot delta = newer;
  for (FamilySnapshot& family : delta.families) {
    const FamilySnapshot* base_family = nullptr;
    for (const FamilySnapshot& candidate : older.families) {
      if (candidate.name == family.name) {
        base_family = &candidate;
        break;
      }
    }
    if (base_family == nullptr) {
      continue;
    }
    for (SeriesSnapshot& series : family.series) {
      const SeriesSnapshot* base = nullptr;
      for (const SeriesSnapshot& candidate : base_family->series) {
        if (candidate.labels == series.labels) {
          base = &candidate;
          break;
        }
      }
      if (base == nullptr) {
        continue;
      }
      series.counter -= base->counter;
      if (family.kind == MetricKind::kHistogram) {
        const double newer_sum = series.mean * static_cast<double>(series.count);
        const double older_sum = base->mean * static_cast<double>(base->count);
        series.count -= base->count;
        series.mean = series.count > 0
                          ? (newer_sum - older_sum) / static_cast<double>(series.count)
                          : 0.0;
        series.stddev = 0.0;
        for (std::size_t i = 0; i < series.buckets.size() && i < base->buckets.size();
             ++i) {
          series.buckets[i] -= base->buckets[i];
        }
      }
    }
  }
  return delta;
}

const SeriesSnapshot* RegistrySnapshot::Find(std::string_view name, Labels labels) const {
  labels = Normalize(std::move(labels));
  for (const FamilySnapshot& family : families) {
    if (family.name != name) {
      continue;
    }
    for (const SeriesSnapshot& series : family.series) {
      if (series.labels == labels) {
        return &series;
      }
    }
  }
  return nullptr;
}

void RegistrySnapshot::WriteJson(std::ostream& out) const {
  out << "{";
  bool first_family = true;
  for (const FamilySnapshot& family : families) {
    if (!first_family) {
      out << ",";
    }
    first_family = false;
    out << "\n  ";
    WriteJsonString(out, family.name);
    out << ": {\"type\": \"" << MetricKindName(family.kind) << "\", \"series\": [";
    bool first_series = true;
    for (const SeriesSnapshot& series : family.series) {
      if (!first_series) {
        out << ",";
      }
      first_series = false;
      out << "\n    {\"labels\": {";
      bool first_label = true;
      for (const auto& [k, v] : series.labels) {
        if (!first_label) {
          out << ", ";
        }
        first_label = false;
        WriteJsonString(out, k);
        out << ": ";
        WriteJsonString(out, v);
      }
      out << "}";
      switch (family.kind) {
        case MetricKind::kCounter:
          out << ", \"value\": " << series.counter;
          break;
        case MetricKind::kGauge:
          out << ", \"value\": ";
          WriteJsonNumber(out, series.gauge);
          break;
        case MetricKind::kHistogram: {
          out << ", \"count\": " << series.count;
          out << ", \"min\": ";
          WriteJsonNumber(out, series.min);
          out << ", \"max\": ";
          WriteJsonNumber(out, series.max);
          out << ", \"mean\": ";
          WriteJsonNumber(out, series.mean);
          out << ", \"stddev\": ";
          WriteJsonNumber(out, series.stddev);
          out << ", \"p50\": ";
          WriteJsonNumber(out, series.Percentile(50));
          out << ", \"p95\": ";
          WriteJsonNumber(out, series.Percentile(95));
          out << ", \"p99\": ";
          WriteJsonNumber(out, series.Percentile(99));
          out << ", \"buckets\": [";
          for (std::size_t i = 0; i < series.buckets.size(); ++i) {
            if (i > 0) {
              out << ", ";
            }
            out << "{\"le\": ";
            if (i < series.upper_bounds.size()) {
              WriteJsonNumber(out, series.upper_bounds[i]);
            } else {
              out << "\"inf\"";
            }
            out << ", \"count\": " << series.buckets[i] << "}";
          }
          out << "]";
          break;
        }
      }
      out << "}";
    }
    out << "\n  ]}";
  }
  out << "\n}";
}

std::string RegistrySnapshot::ToJson() const {
  std::ostringstream out;
  WriteJson(out);
  return out.str();
}

// ---- Registry ----

Registry::Series* Registry::GetSeries(const std::string& name, MetricKind kind, Labels labels) {
  labels = Normalize(std::move(labels));
  auto [family_it, inserted] = families_.try_emplace(name);
  Family& family = family_it->second;
  if (inserted) {
    family.kind = kind;
  } else {
    CRAS_CHECK(family.kind == kind)
        << "metric '" << name << "' registered as " << MetricKindName(family.kind)
        << " and again as " << MetricKindName(kind);
  }
  Series& series = family.series[SeriesKey(labels)];
  series.labels = std::move(labels);
  return &series;
}

Counter* Registry::GetCounter(const std::string& name, Labels labels) {
  Series* series = GetSeries(name, MetricKind::kCounter, std::move(labels));
  if (series->counter == nullptr) {
    series->counter = std::make_unique<Counter>();
  }
  return series->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, Labels labels) {
  Series* series = GetSeries(name, MetricKind::kGauge, std::move(labels));
  if (series->gauge == nullptr) {
    series->gauge = std::make_unique<Gauge>();
  }
  return series->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name, Labels labels,
                                  std::vector<double> upper_bounds) {
  Series* series = GetSeries(name, MetricKind::kHistogram, std::move(labels));
  if (series->histogram == nullptr) {
    series->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return series->histogram.get();
}

void Bindings::Counter(Registry& registry, const std::string& name, Labels labels,
                       const std::int64_t& count) {
  crobs::Counter* counter = registry.GetCounter(name, std::move(labels));
  counter->bound_.push_back({&count, count});
  counters_.emplace_back(counter, &count);
}

void Bindings::Gauge(Registry& registry, const std::string& name, Labels labels,
                     const std::int64_t& value) {
  crobs::Gauge* gauge = registry.GetGauge(name, std::move(labels));
  gauge->bound_.push_back(&value);
  gauges_.emplace_back(gauge, &value);
}

void Bindings::Release() {
  for (const auto& [counter, count] : counters_) {
    auto it = std::find_if(counter->bound_.begin(), counter->bound_.end(),
                           [count](const crobs::Counter::Source& s) { return s.count == count; });
    counter->value_ += *count - it->base;
    counter->bound_.erase(it);
  }
  for (const auto& [gauge, value] : gauges_) {
    gauge->value_ = static_cast<double>(*value);
    std::erase(gauge->bound_, value);
  }
  counters_.clear();
  gauges_.clear();
}

RegistrySnapshot Registry::Snapshot() const {
  RegistrySnapshot snapshot;
  snapshot.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot fs;
    fs.name = name;
    fs.kind = family.kind;
    fs.series.reserve(family.series.size());
    for (const auto& [key, series] : family.series) {
      SeriesSnapshot ss;
      ss.labels = series.labels;
      switch (family.kind) {
        case MetricKind::kCounter:
          ss.counter = series.counter != nullptr ? series.counter->value() : 0;
          break;
        case MetricKind::kGauge:
          ss.gauge = series.gauge != nullptr ? series.gauge->value() : 0;
          break;
        case MetricKind::kHistogram:
          if (series.histogram != nullptr) {
            const crstats::Histogram& h = series.histogram->data();
            ss.count = h.summary().count();
            ss.min = h.summary().min();
            ss.max = h.summary().max();
            ss.mean = h.summary().mean();
            ss.stddev = h.summary().stddev();
            ss.upper_bounds = h.upper_bounds();
            ss.buckets = h.counts();
          }
          break;
      }
      fs.series.push_back(std::move(ss));
    }
    snapshot.families.push_back(std::move(fs));
  }
  return snapshot;
}

}  // namespace crobs
