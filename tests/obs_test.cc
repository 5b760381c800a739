// Unit tests for the observability subsystem (src/obs): registry semantics,
// label keying, snapshot determinism, trace ring overflow, and Chrome trace
// JSON well-formedness.

#include "src/obs/obs.h"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/stats/summary.h"

namespace crobs {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(Registry, CounterAccumulates) {
  Registry registry;
  Counter* c = registry.GetCounter("disk.requests");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  const RegistrySnapshot snap = registry.Snapshot();
  const SeriesSnapshot* series = snap.Find("disk.requests");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->counter, 42);
}

TEST(Registry, GaugeSetAddMax) {
  Registry registry;
  Gauge* g = registry.GetGauge("buffer.resident");
  g->Set(10);
  g->Add(5);
  g->SetMax(12);  // below current 15: no effect
  EXPECT_EQ(g->value(), 15);
  g->SetMax(20);
  EXPECT_EQ(g->value(), 20);
}

TEST(Registry, HistogramBucketsAndSummary) {
  Registry registry;
  Histogram* h = registry.GetHistogram("latency_ms", {}, {1.0, 10.0});
  h->Record(0.5);   // bucket 0 (<= 1)
  h->Record(5.0);   // bucket 1 (<= 10)
  h->Record(50.0);  // overflow bucket
  EXPECT_EQ(h->count(), 3);
  const RegistrySnapshot snap = registry.Snapshot();
  const SeriesSnapshot* series = snap.Find("latency_ms");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->count, 3);
  ASSERT_EQ(series->buckets.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(series->buckets[0], 1);
  EXPECT_EQ(series->buckets[1], 1);
  EXPECT_EQ(series->buckets[2], 1);
  EXPECT_DOUBLE_EQ(series->min, 0.5);
  EXPECT_DOUBLE_EQ(series->max, 50.0);
}

TEST(Registry, SameNameAndLabelsSharesInstrument) {
  Registry registry;
  Counter* a = registry.GetCounter("io", {{"disk", "d0"}});
  Counter* b = registry.GetCounter("io", {{"disk", "d0"}});
  EXPECT_EQ(a, b);  // find-or-create: one series, one instrument
  a->Add(3);
  EXPECT_EQ(b->value(), 3);
}

TEST(Registry, LabelOrderDoesNotMatter) {
  Registry registry;
  Counter* a = registry.GetCounter("io", {{"queue", "rt"}, {"disk", "d0"}});
  Counter* b = registry.GetCounter("io", {{"disk", "d0"}, {"queue", "rt"}});
  EXPECT_EQ(a, b);
  // Find() normalizes too.
  a->Add();
  const RegistrySnapshot snap = registry.Snapshot();
  const SeriesSnapshot* series = snap.Find("io", {{"queue", "rt"}, {"disk", "d0"}});
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->counter, 1);
}

TEST(Registry, DistinctLabelsAreDistinctSeries) {
  Registry registry;
  Counter* rt = registry.GetCounter("io", {{"queue", "rt"}});
  Counter* nr = registry.GetCounter("io", {{"queue", "nr"}});
  EXPECT_NE(rt, nr);
  rt->Add(2);
  nr->Add(5);
  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Find("io", {{"queue", "rt"}})->counter, 2);
  EXPECT_EQ(snap.Find("io", {{"queue", "nr"}})->counter, 5);
  ASSERT_EQ(snap.families.size(), 1u);
  EXPECT_EQ(snap.families[0].series.size(), 2u);
}

TEST(Registry, SnapshotOrderIsLexicographic) {
  Registry registry;
  registry.GetCounter("zeta");
  registry.GetCounter("alpha", {{"disk", "d1"}});
  registry.GetCounter("alpha", {{"disk", "d0"}});
  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.families.size(), 2u);
  EXPECT_EQ(snap.families[0].name, "alpha");
  EXPECT_EQ(snap.families[1].name, "zeta");
  ASSERT_EQ(snap.families[0].series.size(), 2u);
  EXPECT_EQ(snap.families[0].series[0].labels, (Labels{{"disk", "d0"}}));
  EXPECT_EQ(snap.families[0].series[1].labels, (Labels{{"disk", "d1"}}));
}

TEST(Registry, FindMissingReturnsNull) {
  Registry registry;
  registry.GetCounter("io", {{"disk", "d0"}});
  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Find("nope"), nullptr);
  EXPECT_EQ(snap.Find("io", {{"disk", "d9"}}), nullptr);
}

// ---------------------------------------------------------------------------
// Snapshot determinism: two identical simulated runs must serialize to
// byte-identical metrics JSON (virtual time, deterministic event order).
// ---------------------------------------------------------------------------

std::string RunOnceAndSnapshot() {
  cras::VolumeTestbedOptions options;
  options.obs.trace.enabled = true;
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  auto movie = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(2));
  CRAS_CHECK(movie.ok());
  crsim::Task client = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie->inode;
        params.index = movie->index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        (void)co_await bed.cras_server.StartStream(
            *opened, bed.cras_server.SuggestedInitialDelay());
      });
  bed.engine().RunFor(Seconds(4));
  return bed.hub.MetricsJson();
}

TEST(Snapshot, DeterministicAcrossIdenticalRuns) {
  const std::string first = RunOnceAndSnapshot();
  const std::string second = RunOnceAndSnapshot();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Sanity: the run actually produced instrumented activity, and every
  // histogram family carries its interpolated percentiles.
  EXPECT_NE(first.find("\"cras.bytes_read\""), std::string::npos);
  EXPECT_NE(first.find("\"disk.requests\""), std::string::npos);
  EXPECT_NE(first.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace ring overflow policy: bounded memory, newest events win.
// ---------------------------------------------------------------------------

TEST(Trace, RingKeepsNewestEvents) {
  crsim::Engine engine;
  Tracer::Options options;
  options.enabled = true;
  options.capacity = 8;
  Tracer tracer(engine, options);
  const std::uint32_t track = tracer.InternTrack("t");
  const std::uint32_t name = tracer.InternName("tick");
  for (int i = 0; i < 20; ++i) {
    tracer.Instant(track, name, static_cast<double>(i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first ordering, holding the 8 most recent values (12..19).
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(12 + i));
  }
}

TEST(Trace, DisabledTracerRecordsNothing) {
  crsim::Engine engine;
  Tracer tracer(engine, Tracer::Options{});
  const std::uint32_t track = tracer.InternTrack("t");
  const std::uint32_t name = tracer.InternName("tick");
  tracer.Instant(track, name);
  tracer.Begin(track, name);
  tracer.End(track, name);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON well-formedness.
// ---------------------------------------------------------------------------

// Minimal recursive-descent JSON validator: accepts exactly well-formed
// JSON values (enough to guarantee chrome://tracing / Perfetto can load the
// export without a parse error).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (!Peek(':')) {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek('}')) {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek(']')) {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool String() {
    if (!Peek('"')) {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;  // escape: consume the escaped character blindly
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek('-')) {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) {
      return false;
    }
    pos_ += w.size();
    return true;
  }
  bool Peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Trace, ChromeJsonIsWellFormed) {
  crsim::Engine engine;
  Tracer::Options options;
  options.enabled = true;
  Tracer tracer(engine, options);
  const std::uint32_t track = tracer.InternTrack("disk0.queue");
  const std::uint32_t name = tracer.InternName("io \"quoted\"\n");  // escaping
  const std::uint32_t cat = tracer.InternName("queue");
  tracer.Begin(track, name);
  tracer.End(track, name);
  tracer.Complete(track, name, /*start=*/Milliseconds(1), /*dur=*/Milliseconds(2));
  tracer.Instant(track, name, 7.5);
  tracer.CounterSample(track, name, 42);
  tracer.AsyncBegin(track, cat, name, /*id=*/9);
  tracer.AsyncEnd(track, cat, name, /*id=*/9);

  std::ostringstream out;
  tracer.WriteChromeJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // All seven phases present, plus thread-name metadata for the track.
  for (const char* ph : {"\"ph\": \"B\"", "\"ph\": \"E\"", "\"ph\": \"X\"", "\"ph\": \"i\"",
                         "\"ph\": \"C\"", "\"ph\": \"b\"", "\"ph\": \"e\"",
                         "\"thread_name\""}) {
    EXPECT_NE(json.find(ph), std::string::npos) << ph;
  }
  EXPECT_NE(json.find("disk0.queue"), std::string::npos);
}

TEST(Trace, MetricsJsonIsWellFormedEndToEnd) {
  const std::string json = RunOnceAndSnapshot();
  EXPECT_TRUE(JsonChecker(json).Valid());
}

TEST(Trace, ChromeJsonCarriesDropStatsMetadata) {
  crsim::Engine engine;
  Tracer::Options options;
  options.enabled = true;
  options.capacity = 4;
  Tracer tracer(engine, options);
  const std::uint32_t track = tracer.InternTrack("t");
  const std::uint32_t name = tracer.InternName("tick");
  for (int i = 0; i < 10; ++i) {
    tracer.Instant(track, name);
  }
  std::ostringstream out;
  tracer.WriteChromeJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"trace_stats\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\": 4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram percentiles: interpolated p from the fixed bins.
// ---------------------------------------------------------------------------

std::vector<double> UnitBounds(int n) {
  std::vector<double> bounds;
  for (int i = 1; i <= n; ++i) {
    bounds.push_back(static_cast<double>(i));
  }
  return bounds;
}

TEST(Percentile, ExactOnBucketBoundaries) {
  Registry registry;
  Histogram* h = registry.GetHistogram("x", {}, UnitBounds(10));
  for (int i = 1; i <= 10; ++i) {
    h->Record(static_cast<double>(i));  // one sample per bucket
  }
  const RegistrySnapshot snap = registry.Snapshot();
  const SeriesSnapshot* s = snap.Find("x");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s->Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s->Percentile(95), 9.5);
  EXPECT_DOUBLE_EQ(s->Percentile(100), 10.0);
  // Out-of-range p clamps to the ends rather than extrapolating.
  EXPECT_DOUBLE_EQ(s->Percentile(-5), s->Percentile(0));
  EXPECT_DOUBLE_EQ(s->Percentile(150), s->Percentile(100));
}

TEST(Percentile, EmptySeriesIsZero) {
  Registry registry;
  registry.GetHistogram("x", {}, UnitBounds(4));
  const RegistrySnapshot snap = registry.Snapshot();
  const SeriesSnapshot* s = snap.Find("x");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s->Percentile(99), 0.0);
}

TEST(Percentile, SingleSampleIsThatSample) {
  Registry registry;
  Histogram* h = registry.GetHistogram("x", {}, UnitBounds(10));
  h->Record(7.0);
  const RegistrySnapshot snap = registry.Snapshot();
  const SeriesSnapshot* s = snap.Find("x");
  ASSERT_NE(s, nullptr);
  // The min/max clamp pins every percentile of a one-sample series.
  for (const double p : {0.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(s->Percentile(p), 7.0) << "p" << p;
  }
}

TEST(Percentile, OverflowBucketInterpolatesTowardMax) {
  Registry registry;
  Histogram* h = registry.GetHistogram("x", {}, {1.0, 2.0});
  h->Record(0.5);
  h->Record(50.0);  // overflow: upper edge is the recorded max
  const RegistrySnapshot snap = registry.Snapshot();
  const SeriesSnapshot* s = snap.Find("x");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->Percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s->Percentile(0), 0.5);
}

TEST(Percentile, AgreesWithRetainedSamples) {
  // The binned estimate must track the exact retained-sample percentile to
  // within one bucket width on a shared sample set.
  Registry registry;
  Histogram* h = registry.GetHistogram("x", {}, UnitBounds(100));
  crstats::Samples samples;
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i) + 0.5;
    h->Record(v);
    samples.Add(v);
  }
  const RegistrySnapshot snap = registry.Snapshot();
  const SeriesSnapshot* s = snap.Find("x");
  ASSERT_NE(s, nullptr);
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    EXPECT_NEAR(s->Percentile(p), samples.Percentile(p), 1.0) << "p" << p;
  }
}

TEST(Percentile, AppearsInMetricsJson) {
  Registry registry;
  registry.GetHistogram("latency_ms", {}, {1.0, 10.0})->Record(5.0);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* key : {"\"p50\"", "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Percentile, MoreBucketsThanBoundsStaysInRange) {
  // Regression: a snapshot whose buckets vector is longer than its bounds
  // (the trailing overflow bin plus any stale extras) indexed upper_bounds
  // past the end when computing a bucket's lower edge. Every percentile of
  // a hand-built snapshot must stay inside [min, max].
  SeriesSnapshot s;
  s.count = 3;
  s.buckets = {1, 1, 1};  // one real bound, two bins past it
  s.upper_bounds = {1.0};
  s.min = 0.5;
  s.max = 9.0;
  for (const double p : {0.0, 10.0, 60.0, 95.0, 100.0}) {
    const double v = s.Percentile(p);
    EXPECT_GE(v, s.min) << "p" << p;
    EXPECT_LE(v, s.max) << "p" << p;
  }
}

TEST(Percentile, SingleBinWithoutBoundsInterpolatesMinToMax) {
  // Regression: a single-bin histogram with an empty bounds vector walked
  // off upper_bounds for both edges. The only bin spans [min, max].
  SeriesSnapshot s;
  s.count = 2;
  s.buckets = {2};
  s.upper_bounds = {};
  s.min = 3.0;
  s.max = 5.0;
  EXPECT_DOUBLE_EQ(s.Percentile(0), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 4.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 5.0);
}

TEST(Snapshot, HealthBlockSurfacesRingPressure) {
  // MetricsJson leads with a health block so a scraper can tell whether the
  // observability rings themselves overflowed — a truncated flight ring or
  // a dropping tracer means later analysis runs on partial evidence.
  crsim::Engine engine;
  Hub::Options options;
  options.trace.enabled = true;
  options.trace.capacity = 4;
  options.flight.capacity = 2;
  Hub hub(engine, options);
  const std::uint32_t track = hub.trace().InternTrack("t");
  const std::uint32_t name = hub.trace().InternName("tick");
  for (int i = 0; i < 10; ++i) {
    hub.trace().Instant(track, name);
  }
  // Each flight event is also a trace instant: 15 events into 4 slots.
  for (int i = 0; i < 5; ++i) {
    hub.flight().Record(FlightEventKind::kDeadlineMiss, i);
  }
  const std::string json = hub.MetricsJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"health\": {"), std::string::npos);
  EXPECT_NE(json.find("\"trace_recorded\": 15"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_dropped_events\": 11"), std::string::npos) << json;
  // The health block is the one place the tracer's drops are reported.
  EXPECT_EQ(json.find("obs.trace_dropped_events"), std::string::npos) << json;
  EXPECT_NE(json.find("\"flight_ring_overwrites\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frame_conservation_violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"slo_burn_events\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder: bounded ring, dump window, trigger determinism.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingKeepsNewestEvents) {
  crsim::Engine engine;
  FlightRecorder::Options options;
  options.capacity = 4;
  FlightRecorder recorder(engine, nullptr, nullptr, options);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(FlightEventKind::kStreamShed, /*a=*/i);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // Oldest-first, holding sessions 6..9.
  int expected = 6;
  for (const FlightEvent& event : recorder.events()) {
    EXPECT_EQ(event.a, expected++);
  }
}

TEST(FlightRecorder, DumpWindowFiltersOldEvents) {
  crsim::Engine engine;
  FlightRecorder::Options options;
  options.window = Seconds(10);
  FlightRecorder recorder(engine, nullptr, nullptr, options);
  engine.ScheduleAt(Seconds(1), [&] {
    recorder.Record(FlightEventKind::kLeaseReap, 1, 0, 0, "early");
  });
  engine.ScheduleAt(Seconds(15), [&] {
    recorder.Record(FlightEventKind::kLeaseReap, 2, 0, 0, "late");
  });
  engine.RunUntil(Seconds(20));
  const std::string dump = recorder.RenderDump("window_test");
  EXPECT_TRUE(JsonChecker(dump).Valid()) << dump;
  // Both events stay in the ring; only the in-window one is serialized.
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_NE(dump.find("\"late\""), std::string::npos);
  EXPECT_EQ(dump.find("\"early\""), std::string::npos);
  EXPECT_NE(dump.find("\"events_recorded\": 2"), std::string::npos);
}

TEST(FlightRecorder, AutoTriggerFreezesDumpOnMaskedKind) {
  crsim::Engine engine;
  FlightRecorder::Options options;
  options.triggers = {FlightEventKind::kDeadlineMiss};
  FlightRecorder recorder(engine, nullptr, nullptr, options);
  recorder.Record(FlightEventKind::kAdmissionAccept);  // unmasked: no dump
  EXPECT_EQ(recorder.triggers_fired(), 0u);
  EXPECT_TRUE(recorder.dumps().empty());
  recorder.Record(FlightEventKind::kDeadlineMiss, /*a=*/7);
  EXPECT_EQ(recorder.triggers_fired(), 1u);
  ASSERT_EQ(recorder.dumps().size(), 1u);
  const std::string& dump = recorder.dumps().front();
  EXPECT_TRUE(JsonChecker(dump).Valid()) << dump;
  EXPECT_NE(dump.find("\"reason\": \"auto:deadline_miss\""), std::string::npos);
  // The triggering event itself is inside its own dump.
  EXPECT_NE(dump.find("\"deadline_miss\""), std::string::npos);
}

TEST(FlightRecorder, RetainedDumpsAreBounded) {
  crsim::Engine engine;
  FlightRecorder::Options options;
  options.max_dumps = 2;
  FlightRecorder recorder(engine, nullptr, nullptr, options);
  for (int i = 0; i < 5; ++i) {
    recorder.Trigger("r" + std::to_string(i));
  }
  EXPECT_EQ(recorder.triggers_fired(), 5u);
  ASSERT_EQ(recorder.dumps().size(), 2u);  // newest two survive
  EXPECT_NE(recorder.dumps().front().find("\"r3\""), std::string::npos);
  EXPECT_NE(recorder.dumps().back().find("\"r4\""), std::string::npos);
}

TEST(FlightRecorder, EachRecordIsOneInstantOnTheEventsTrackWhileTracing) {
  crsim::Engine engine;
  Hub::Options options;
  options.trace.enabled = true;
  Hub hub(engine, options);
  Tracer& tracer = hub.trace();
  for (int k = 0; k < kFlightEventKindCount; ++k) {
    const auto kind = static_cast<FlightEventKind>(k);
    hub.flight().Record(kind, /*a=*/7, /*b=*/1, /*value=*/k + 0.5, "detail");
    ASSERT_EQ(tracer.size(), static_cast<std::size_t>(k + 1)) << FlightEventKindName(kind);
    const TraceEvent event = tracer.Events().back();
    EXPECT_EQ(event.type, TraceEventType::kInstant);
    EXPECT_EQ(event.track, tracer.InternTrack("events"));
    EXPECT_EQ(event.name, tracer.InternName(FlightEventKindName(kind)));
    EXPECT_DOUBLE_EQ(event.value, k + 0.5);
  }
  EXPECT_EQ(hub.flight().size(), static_cast<std::size_t>(kFlightEventKindCount));
  std::ostringstream out;
  tracer.WriteChromeJson(out);
  EXPECT_NE(out.str().find("\"args\": {\"name\": \"events\"}"), std::string::npos);
  EXPECT_NE(out.str().find("\"name\": \"stream_shed\", \"ph\": \"i\""), std::string::npos);
}

TEST(FlightRecorder, RecordAddsNoInstantWithoutAnEnabledTracer) {
  crsim::Engine engine;
  Hub hub(engine, Hub::Options{});  // the hub's tracer is disabled
  hub.flight().Record(FlightEventKind::kLeaseReap, 4, 0, 12.0);
  EXPECT_EQ(hub.trace().recorded(), 0u);
  ASSERT_EQ(hub.flight().size(), 1u);
  EXPECT_EQ(hub.flight().events().back().a, 4);
  // The recorder follows the tracer's live switch.
  hub.trace().set_enabled(true);
  hub.flight().Record(FlightEventKind::kLeaseReap, 5);
  EXPECT_EQ(hub.trace().recorded(), 1u);
  EXPECT_EQ(hub.flight().size(), 2u);

  FlightRecorder bare(engine, nullptr, nullptr, FlightRecorder::Options{});  // no tracer
  bare.Record(FlightEventKind::kLeaseReap, 6);
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare.events().back().a, 6);
}

std::string RecordAndDumpOnce() {
  crsim::Engine engine;
  FlightRecorder recorder(engine, nullptr, nullptr, FlightRecorder::Options{});
  engine.ScheduleAt(Seconds(1), [&] {
    recorder.Record(FlightEventKind::kMemberChange, 1, 0, 0, "failed");
    recorder.Record(FlightEventKind::kStreamShed, 9);
  });
  engine.RunUntil(Seconds(2));
  return recorder.RenderDump("repro");
}

TEST(FlightRecorder, DumpIsDeterministicAcrossIdenticalRuns) {
  const std::string first = RecordAndDumpOnce();
  const std::string second = RecordAndDumpOnce();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FlightRecorder, HubDumpCarriesEventsLedgerAndMetrics) {
  cras::VolumeTestbedOptions options;
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  auto movie = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(2));
  CRAS_CHECK(movie.ok());
  crsim::Task client = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie->inode;
        params.index = movie->index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        (void)co_await bed.cras_server.StartStream(
            *opened, bed.cras_server.SuggestedInitialDelay());
      });
  bed.engine().RunFor(Seconds(4));
  const std::string dump = bed.hub.flight().RenderDump("test");
  EXPECT_TRUE(JsonChecker(dump).Valid()) << dump;
  // The admission verdict was recorded, and the dump stitches all three
  // sections together: event window, budget-ledger tail, metrics snapshot.
  EXPECT_NE(dump.find("\"admission_accept\""), std::string::npos);
  EXPECT_NE(dump.find("\"ledger_tail\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  EXPECT_NE(dump.find("\"ledger.intervals\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Budget ledger: prediction vs actuals, overrun detection, late attribution.
// ---------------------------------------------------------------------------

BudgetTerms MakeTerms(double command, double seek, double rotation, double transfer,
                      double other = 0) {
  BudgetTerms terms;
  terms.command_ms = command;
  terms.seek_ms = seek;
  terms.rotation_ms = rotation;
  terms.transfer_ms = transfer;
  terms.other_ms = other;
  return terms;
}

TEST(BudgetLedger, OverrunWhenActualTotalExceedsPrediction) {
  Registry registry;
  BudgetLedger ledger(&registry);
  ledger.BeginInterval(0, Milliseconds(0));
  ledger.SetPrediction(0, /*disk=*/0, MakeTerms(1, 4, 3, 2), /*requests=*/2);
  ledger.SetPrediction(0, /*disk=*/1, MakeTerms(1, 4, 3, 2), /*requests=*/2);
  // Disk 0 stays inside its 10 ms budget; disk 1 blows through it.
  ledger.AddActual(0, 0, MakeTerms(0.5, 2, 1.5, 2));
  ledger.AddActual(0, 1, MakeTerms(1, 5, 4, 2));
  ledger.CloseInterval(0);
  EXPECT_EQ(ledger.intervals_closed(), 1);
  EXPECT_EQ(ledger.overruns(), 1);
  EXPECT_EQ(ledger.late_attributions(), 0);
  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Find("ledger.intervals")->counter, 1);
  EXPECT_EQ(snap.Find("ledger.overruns")->counter, 1);
}

TEST(BudgetLedger, EmitsPerTermUtilizationHistograms) {
  Registry registry;
  BudgetLedger ledger(&registry);
  ledger.BeginInterval(3, Milliseconds(1500));
  ledger.SetPrediction(3, /*disk=*/0, MakeTerms(2, 10, 4, 8), /*requests=*/1);
  ledger.AddActual(3, 0, MakeTerms(1, 5, 1, 8));
  ledger.CloseInterval(3);
  const RegistrySnapshot snap = registry.Snapshot();
  const Labels seek_labels{{"disk", "disk0"}, {"term", "seek"}};
  const SeriesSnapshot* seek = snap.Find("ledger.util_pct", seek_labels);
  ASSERT_NE(seek, nullptr);
  EXPECT_EQ(seek->count, 1);
  EXPECT_DOUBLE_EQ(seek->mean, 50.0);  // 5 of 10 ms used
  const SeriesSnapshot* transfer =
      snap.Find("ledger.util_pct", {{"disk", "disk0"}, {"term", "transfer"}});
  ASSERT_NE(transfer, nullptr);
  EXPECT_DOUBLE_EQ(transfer->mean, 100.0);
  // A term with no predicted budget (other here) emits nothing.
  EXPECT_EQ(snap.Find("ledger.util_pct", {{"disk", "disk0"}, {"term", "other"}}), nullptr);
}

TEST(BudgetLedger, LateAttributionIsCountedNotApplied) {
  Registry registry;
  BudgetLedger ledger(&registry);
  ledger.BeginInterval(0, Milliseconds(0));
  ledger.SetPrediction(0, 0, MakeTerms(1, 1, 1, 1), 1);
  ledger.CloseInterval(0);  // nothing issued: audited at once
  ledger.AddActual(0, 0, MakeTerms(9, 9, 9, 9));  // after the audit: refused
  ledger.AddActual(42, 0, MakeTerms(1, 1, 1, 1));  // unknown slot: refused
  EXPECT_EQ(ledger.late_attributions(), 2);
  EXPECT_EQ(ledger.overruns(), 0);  // the refused actuals changed nothing
  EXPECT_EQ(registry.Snapshot().Find("ledger.late_attributions")->counter, 2);
  // Closing again is idempotent.
  ledger.CloseInterval(0);
  EXPECT_EQ(ledger.intervals_closed(), 1);
}

TEST(BudgetLedger, EvictingUnclosedRowCountsAsLate) {
  Registry registry;
  BudgetLedger::Options options;
  options.max_intervals = 2;
  BudgetLedger ledger(&registry, options);
  ledger.BeginInterval(0, Milliseconds(0));
  ledger.BeginInterval(1, Milliseconds(500));
  ledger.BeginInterval(2, Milliseconds(1000));  // evicts slot 0, never closed
  EXPECT_EQ(ledger.rows().size(), 2u);
  EXPECT_EQ(ledger.late_attributions(), 1);
  EXPECT_EQ(ledger.rows().front().slot, 1);
}

TEST(BudgetLedger, AuditWaitsForTheLastIssuedRequest) {
  Registry registry;
  BudgetLedger ledger(&registry);
  ledger.BeginInterval(0, Milliseconds(0));
  ledger.SetPrediction(0, 0, MakeTerms(1, 4, 3, 2), /*requests=*/2);  // 10 ms
  ledger.AddIssued(0, 0);
  ledger.AddIssued(0, 0);
  ledger.AddActual(0, 0, MakeTerms(1, 2, 1, 1));
  ledger.CloseInterval(0);  // deadline passed with one request outstanding
  EXPECT_FALSE(ledger.rows().front().closed);
  EXPECT_EQ(ledger.intervals_closed(), 0);
  EXPECT_EQ(registry.Snapshot().Find("ledger.intervals")->counter, 0);
  // The late completion is applied, and it tips the row over its budget.
  ledger.AddActual(0, 0, MakeTerms(1, 2, 1, 2));
  EXPECT_TRUE(ledger.rows().front().closed);
  EXPECT_EQ(ledger.intervals_closed(), 1);
  EXPECT_EQ(ledger.overruns(), 1);
  EXPECT_EQ(ledger.late_attributions(), 0);
  EXPECT_EQ(ledger.rows().front().disks.front().actual_requests, 2);
}

// Runs `bed` on until its one disk has drained (a device counts a request
// when its service starts), audits every row, and checks that the ledger
// accounts for every request the disk served, with its whole service time,
// and refused no completion.
void ExpectLedgerAccountsForEveryRequest(cras::VolumeTestbed& bed) {
  const crdisk::DiskDevice& device = bed.volume.device(0);
  for (int i = 0; i < 60 && (device.busy() || bed.volume.driver(0).realtime_depth() > 0); ++i) {
    bed.engine().RunFor(Seconds(1));
  }
  bed.engine().RunFor(Seconds(1));  // the last completions reach the server
  ASSERT_FALSE(device.busy());
  ASSERT_EQ(bed.volume.driver(0).realtime_depth(), 0u);
  BudgetLedger* ledger = bed.hub.ledger();
  ASSERT_NE(ledger, nullptr);
  ledger->CloseAll();
  std::int64_t requests = 0;
  double total_ms = 0;
  for (const BudgetLedger::IntervalRow& row : ledger->rows()) {
    for (const BudgetLedger::DiskRow& disk : row.disks) {
      requests += disk.actual_requests;
      total_ms += disk.actual.total_ms();
    }
  }
  EXPECT_GT(requests, 0);
  EXPECT_EQ(requests, device.stats().requests);
  EXPECT_NEAR(total_ms, ToMillis(device.stats().busy_time), 1e-6);
  EXPECT_EQ(ledger->late_attributions(), 0);
}

// Spawns one player per file, each playing `play_length` from the start.
std::vector<crsim::Task> SpawnPlayers(cras::VolumeTestbed& bed,
                                      const std::vector<crmedia::MediaFile>& files,
                                      crbase::Duration play_length,
                                      std::vector<cras::PlayerStats>* stats) {
  stats->resize(files.size());
  cras::PlayerOptions options;
  options.play_length = play_length;
  std::vector<crsim::Task> players;
  for (std::size_t i = 0; i < files.size(); ++i) {
    players.push_back(
        cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, files[i], options, &(*stats)[i]));
  }
  return players;
}

TEST(BudgetLedger, AccountsForEveryRequestOfAnOverloadedDisk) {
  // Eight fragmented MPEG1 streams need more disk time per interval than T,
  // so their I/O lands intervals after its deadline; every completion still
  // counts toward its own interval.
  cras::VolumeTestbed bed;
  bed.StartServers();
  crbase::Rng rng(7);
  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < 8; ++i) {
    auto file = crmedia::WriteMpeg1File(bed.fs, "movie" + std::to_string(i), Seconds(15));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(bed.fs.Fragment(file->inode, rng).ok());
    files.push_back(std::move(*file));
  }
  std::vector<cras::PlayerStats> stats;
  std::vector<crsim::Task> players = SpawnPlayers(bed, files, Seconds(12), &stats);
  bed.engine().RunFor(Seconds(20));
  EXPECT_GT(bed.cras_server.stats().deadline_misses, 0);
  ExpectLedgerAccountsForEveryRequest(bed);
}

TEST(BudgetLedger, ChargesATransientStallToOther) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < 4; ++i) {
    auto file = crmedia::WriteMpeg1File(bed.fs, "movie" + std::to_string(i), Seconds(8));
    ASSERT_TRUE(file.ok());
    files.push_back(std::move(*file));
  }
  std::vector<cras::PlayerStats> stats;
  std::vector<crsim::Task> players = SpawnPlayers(bed, files, Seconds(6), &stats);
  bed.engine().RunFor(Seconds(2));
  bed.volume.device(0).InjectTransientFault(Milliseconds(20), 5);
  bed.engine().RunFor(Seconds(8));
  ASSERT_EQ(bed.volume.device(0).faults_applied(), 5);
  ExpectLedgerAccountsForEveryRequest(bed);
  // The stall is in no mechanical phase; the measured "other" holds it.
  double other_ms = 0;
  for (const BudgetLedger::IntervalRow& row : bed.hub.ledger()->rows()) {
    for (const BudgetLedger::DiskRow& disk : row.disks) {
      other_ms += disk.actual.other_ms;
    }
  }
  EXPECT_NEAR(other_ms, 100.0, 1e-6);
}

TEST(BudgetLedger, JsonTailIsWellFormed) {
  Registry registry;
  BudgetLedger ledger(&registry);
  for (int slot = 0; slot < 4; ++slot) {
    ledger.BeginInterval(slot, Milliseconds(500) * slot);
    ledger.SetPrediction(slot, 0, MakeTerms(1, 4, 3, 2, 0.5), 2);
    ledger.AddActual(slot, 0, MakeTerms(0.5, 2, 1, 2));
    ledger.CloseInterval(slot);
  }
  std::ostringstream out;
  ledger.WriteJsonTail(out, /*max_rows=*/2);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Only the newest two rows appear.
  EXPECT_EQ(json.find("\"slot\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"slot\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"slot\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"overrun\": false"), std::string::npos);
}

}  // namespace
}  // namespace crobs
