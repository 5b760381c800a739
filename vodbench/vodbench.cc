// vodbench: one seeded video-on-demand benchmark for the CRAS server.
//
// A VOD server's users are viewers. They arrive on their own schedule (an
// open loop: the next arrival never waits for the server), pick a title,
// watch a prefix of it and leave. The benchmark draws such an arrival trace
// from --seed, replays it against a fresh four-disk CRAS rig, and reports
// what the viewers saw and what the simulation cost on the host:
//   startup_p95_ms        arrival to first frame, 95th percentile of viewers
//   frame_delay_mean_ms   frame due to frame in the player's hands (Fig. 7)
//   frame_margin_p10_ms   frame data landing in the viewer's buffer to the
//                         frame falling due, 10th percentile: how close the
//                         tightest frames come to being late
//   delivered_pct         frames played / frames due, rejected viewers included
//   cpu_us_per_stream_s   host CPU time per simulated stream-second
//   setup_s               host CPU time to build the rig, catalog and viewers
// The same trace is replayed until --seconds of wall time have passed; every
// replay must reproduce the first one exactly. setup_s is the median over
// the replays; the simulation's cost sums, over one-second slices of
// simulated time, each slice's fastest time in any replay. Both are scaled to
// a reference host speed measured by a probe run alongside (SpeedProbe).
//
// Workloads (--workload):
//   uniform  local viewers, uniform picks over the 400-title catalog: almost
//            every stream is a disk stream; the cache finds little to share.
//   zipf     local viewers, Zipf(1.0) picks over 12 hot titles at almost
//            three times the arrival rate: hot titles ride interval and
//            prefix caching.
//   remote   viewers on a client host, each behind its own 10 Mb/s link with
//            jitter, reordering and duplication, fed by NPS with NAK repair.
//
// --trace 0 reports the end-to-end metrics. --trace 1 turns on frame
// tracing and the trace ring, reports per-layer metrics instead, and writes
// the first replay's frame attribution and Chrome trace to --trace-dir
// (<workload>.frames.json, <workload>.trace.json).
//
// Usage:
//   vodbench --workload uniform --seed 1 --seconds 10 --trace 0 [--trace-dir DIR]
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/logging.h"
#include "src/base/random.h"
#include "src/core/testbed.h"
#include "src/media/chunk_index.h"
#include "src/media/media_file.h"
#include "src/net/link.h"
#include "src/net/nps.h"
#include "src/obs/frame_trace.h"

namespace {

using crbase::Duration;
using crbase::Milliseconds;
using crbase::Seconds;
using crbase::Time;

struct Workload {
  const char* name;
  int picked_titles;  // viewers pick among the first this many titles
  double zipf_alpha;  // 0: uniform picks
  bool remote;        // viewers play over NPS across impaired links
  int viewers;
  Duration mean_gap;  // mean time between arrivals
};

constexpr Workload kWorkloads[] = {
    {"uniform", 400, 0.0, false, 480, Milliseconds(1400)},
    {"zipf", 12, 1.0, false, 720, Milliseconds(500)},
    {"remote", 400, 0.0, true, 320, Milliseconds(1400)},
};

constexpr int kDisks = 4;
constexpr int kTitles = 400;
constexpr Duration kTitleLength = Seconds(75);
constexpr Duration kMinWatch = Seconds(20);
constexpr Duration kMaxWatch = Seconds(60);
static_assert(kMaxWatch < kTitleLength, "a control file needs one chunk past the watch");
// Remote links: 10 Mb/s Ethernet with up to 5 ms of jitter; 1% of packets
// held back 30 ms, past the receiver's 20 ms reordering grace, so they draw
// NAKs and retransmissions; 0.5% delivered twice.
crnet::LinkImpairments RemoteImpairments() {
  crnet::LinkImpairments impairments;
  impairments.jitter = Milliseconds(5);
  impairments.reorder_probability = 0.01;
  impairments.reorder_delay = Milliseconds(30);
  impairments.duplicate_probability = 0.005;
  return impairments;
}
// Player behaviour, as in cras::PlayerOptions.
constexpr Duration kPoll = Milliseconds(2);
constexpr Duration kGiveUp = Milliseconds(100);
constexpr Duration kCpuPerFrame = crbase::Microseconds(200);
// A remote player trails the server's clock so that chunks published at an
// interval boundary still cross the wire in time.
constexpr Duration kRemotePlayoutSlack = Milliseconds(200);
constexpr std::uint64_t kCatalogSeed = 0x766f64;  // "vod"
// Simulated time per timed slice of a replay (see main).
constexpr Duration kTimingSlice = Seconds(1);

// Host time is the simulator thread's CPU time: the simulation is one
// thread, and CPU time leaves out the spells other processes hold the core,
// which wall time would count as the benchmark's own.
double CpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

// A fixed computation shaped like the simulator's hot path: a binary-heap
// queue, an ordered map and small allocations over a working set of a few
// hundred KiB. It does not depend on the server code, so its fastest time
// tracks only how fast the host runs such code at the moment. Host figures
// are scaled by kProbeReferenceS / (fastest probe), i.e. to a host on which
// one probe sample takes kProbeReferenceS, as on a 2.0 GHz Xeon vCPU. On such
// a shared vCPU the speed of identical runs minutes apart drifted by a fifth
// and more; the scaling takes most of that drift out.
constexpr double kProbeReferenceS = 360e-6;

class SpeedProbe {
 public:
  void Sample() {
    const double start = CpuSeconds();
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t r = rng_.NextU64();
      heap_.push(r);
      if (heap_.size() > 8192) {
        heap_.pop();
      }
      map_[r % 8192] = std::make_unique<std::uint64_t>(r);
    }
    fastest_s_ = std::min(fastest_s_, CpuSeconds() - start);
  }
  double fastest_s() const { return fastest_s_; }

 private:
  crbase::Rng rng_{1};
  std::priority_queue<std::uint64_t> heap_;
  std::map<std::uint64_t, std::unique_ptr<std::uint64_t>> map_;
  double fastest_s_ = 1e9;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Arrival {
  Time at = 0;
  int title = 0;
  Duration watch = 0;
};

// The open-loop arrival trace: gaps uniform in [0.5, 1.5) x the mean gap,
// titles uniform or Zipf-ranked, watch lengths uniform in [min, max).
std::vector<Arrival> MakeArrivals(const Workload& workload, std::uint64_t seed) {
  crbase::Rng rng(seed);
  crbase::ZipfGenerator picks(static_cast<std::size_t>(workload.picked_titles),
                              workload.zipf_alpha, rng.NextU64());
  std::vector<Arrival> arrivals;
  Time at = 0;
  for (int i = 0; i < workload.viewers; ++i) {
    at += workload.mean_gap / 2 +
          static_cast<Duration>(rng.NextBelow(static_cast<std::uint64_t>(workload.mean_gap)));
    Arrival arrival;
    arrival.at = at;
    arrival.title = static_cast<int>(picks.Next());
    arrival.watch =
        kMinWatch +
        static_cast<Duration>(rng.NextBelow(static_cast<std::uint64_t>(kMaxWatch - kMinWatch)));
    arrivals.push_back(arrival);
  }
  return arrivals;
}

// The control file a viewer sends: the title's chunks up to its watch length
// plus one. The extra chunk is never played; it lets an NPS receiver detect a
// missing last watched chunk by the sequence gap, as for any other chunk.
crmedia::ChunkIndex ControlFile(const crmedia::ChunkIndex& title, Duration watch) {
  std::vector<crmedia::Chunk> chunks;
  for (const crmedia::Chunk& chunk : title.chunks()) {
    chunks.push_back(chunk);
    if (chunk.timestamp >= watch) {
      break;
    }
  }
  return crmedia::ChunkIndex(std::move(chunks));
}

cras::VolumeTestbedOptions RigOptions(bool trace) {
  cras::VolumeTestbedOptions options;
  options.volume.disks = kDisks;
  options.cras.memory_budget_bytes = 128 * crbase::kMiB;
  options.cras.cache.enabled = true;
  options.cras.cache.prefix_length = Seconds(12);
  options.cras.cache.prefix_pool_bytes = 24 * crbase::kMiB;
  options.cras.cache.interval_pool_bytes = 40 * crbase::kMiB;
  if (trace) {
    options.obs.frames.enabled = true;
    options.obs.trace.enabled = true;
    options.obs.trace.capacity = 1 << 14;
  }
  return options;
}

// ---------------------------------------------------------------------------
// One replay of the trace on a fresh rig.

struct Viewer {
  Arrival in;
  crmedia::ChunkIndex index;
  std::size_t frames = 0;  // chunks watched: all of `index` but the last
  bool rejected = false;
  Time first_frame_at = -1;
  Time ended_at = -1;
  std::int64_t played = 0;
  std::int64_t missed = 0;
  std::int64_t wrong = 0;  // a delivered chunk that is not the frame asked for
  std::int64_t bytes = 0;
  // Remote viewers only: the NPS endpoint. Declared so that the sender's
  // task dies first.
  std::unique_ptr<crnet::Link> forward;
  std::unique_ptr<crnet::Link> reverse;
  std::unique_ptr<crnet::NpsReceiver> receiver;
  std::unique_ptr<crnet::NpsSender> sender;
  crsim::Task sender_task;
};

struct Outcome {
  std::int64_t viewers = 0;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;  // rejected, or missed at least one frame
  std::int64_t frames_due = 0;
  std::int64_t frames_played = 0;
  double stream_seconds = 0;        // simulated playback of admitted viewers
  std::vector<Duration> startups;   // arrival -> first frame, sorted
  std::vector<Duration> delays;     // frame due -> obtained, sorted
  std::vector<Duration> margins;    // buffer landing -> frame due, sorted
  std::uint64_t digest = 0;         // replay fingerprint
  std::vector<std::string> errors;  // failed output checks
  std::vector<std::pair<std::string, double>> layer;  // simulated per-layer values
  std::uint64_t events = 0;
};

class Digest {
 public:
  void Add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

class Replay {
 public:
  // Set-up: rig, catalog, then one viewer thread per arrival. Timed in three
  // phases (rig, catalog, viewers) into `phase_s`.
  Replay(const Workload& workload, const std::vector<Arrival>& arrivals, bool trace,
         std::uint64_t seed, double phase_s[3])
      : workload_(workload) {
    const double t0 = CpuSeconds();
    bed_ = std::make_unique<cras::VolumeTestbed>(RigOptions(trace));
    bed_->StartServers();
    const double t1 = CpuSeconds();
    crbase::Rng catalog_rng(kCatalogSeed);
    for (int i = 0; i < kTitles; ++i) {
      // Half the catalog is constant-rate MPEG1, half variable-rate at the
      // same mean (log-normal frame sizes), whose worst-case window rate
      // admission must reserve.
      crmedia::ChunkIndex index =
          i % 2 == 0 ? crmedia::BuildCbrIndex(crmedia::kMpeg1BytesPerSec, crmedia::kVideoFps,
                                               kTitleLength)
                     : crmedia::BuildVbrIndex(crmedia::kMpeg1BytesPerSec, 0.3,
                                              crmedia::kVideoFps, kTitleLength, catalog_rng);
      auto file =
          crmedia::WriteMediaFile(bed_->fs, "title" + std::to_string(i), std::move(index));
      CRAS_CHECK(file.ok()) << file.status().ToString();
      catalog_.push_back(std::move(*file));
    }
    const double t2 = CpuSeconds();
    if (workload.remote) {
      client_host_ = std::make_unique<crrt::Kernel>(bed_->engine(), crrt::Kernel::Options{});
    }
    viewers_ = std::vector<Viewer>(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      Viewer& viewer = viewers_[i];
      viewer.in = arrivals[i];
      viewer.index = ControlFile(catalog_[static_cast<std::size_t>(viewer.in.title)].index,
                                 viewer.in.watch);
      viewer.frames = viewer.index.count() - 1;
      if (workload.remote) {
        crnet::Link::Options forward;
        forward.impairments = RemoteImpairments();
        forward.impairment_seed = seed * 1000003 + i;
        viewer.forward = std::make_unique<crnet::Link>(bed_->engine(), forward);
        viewer.reverse = std::make_unique<crnet::Link>(bed_->engine());  // NAKs; clean
      }
      crrt::Kernel& host = workload.remote ? *client_host_ : bed_->kernel;
      tasks_.push_back(host.Spawn(
          "viewer", crrt::kPriorityClient,
          [this, &viewer](crrt::ThreadContext& ctx) { return Watch(ctx, viewer); }));
    }
    const double t3 = CpuSeconds();
    phase_s[0] = t1 - t0;
    phase_s[1] = t2 - t1;
    phase_s[2] = t3 - t2;
  }

  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;
  ~Replay() {
    // Threads first, then the viewers whose endpoints they use, then the rig.
    tasks_.clear();
    viewers_.clear();
  }

  // Runs until every viewer has left, appending the CPU time of each
  // kTimingSlice of simulated time to `slice_s`.
  void Run(std::vector<double>* slice_s, SpeedProbe* probe) {
    const Time end = (viewers_.empty() ? 0 : viewers_.back().in.at) + kMaxWatch + Seconds(5);
    crsim::Engine& engine = bed_->engine();
    while (engine.Now() < end) {
      const double start = CpuSeconds();
      engine.RunUntil(std::min(end, engine.Now() + kTimingSlice));
      slice_s->push_back(CpuSeconds() - start);
      if (slice_s->size() % 2 == 0) {
        probe->Sample();
      }
    }
  }

  Outcome Collect(bool trace) const;

  const crobs::Hub& hub() const { return bed_->hub; }

 private:
  crsim::Task Watch(crrt::ThreadContext& ctx, Viewer& viewer);
  template <typename GetFn>
  crsim::Task Play(crrt::ThreadContext& ctx, Viewer& viewer, Time zero_at, GetFn get,
                   crobs::SessionTrace* ftrace);

  const Workload& workload_;
  std::unique_ptr<cras::VolumeTestbed> bed_;
  // The one host all remote viewers play on (null for local workloads).
  std::unique_ptr<crrt::Kernel> client_host_;
  std::vector<crmedia::MediaFile> catalog_;
  std::vector<Viewer> viewers_;
  std::vector<Duration> delays_;
  std::vector<Duration> margins_;  // frame due - landed in the buffer
  std::vector<crsim::Task> tasks_;
};

// Renders every frame of the watched prefix at its due time, polling the
// buffer until the frame lands or the give-up horizon passes (the
// cras::SpawnCrasPlayer rule).
template <typename GetFn>
crsim::Task Replay::Play(crrt::ThreadContext& ctx, Viewer& viewer, Time zero_at, GetFn get,
                         crobs::SessionTrace* ftrace) {
  for (std::size_t i = 0; i < viewer.frames; ++i) {
    const crmedia::Chunk& chunk = viewer.index.at(i);
    const auto frame = static_cast<std::int64_t>(i);
    const Time due = zero_at + chunk.timestamp;
    if (due > ctx.Now()) {
      co_await ctx.Sleep(due - ctx.Now());
    }
    co_await ctx.Compute(kCpuPerFrame);
    bool got = false;
    while (ctx.Now() - due < kGiveUp) {
      const std::optional<cras::BufferedChunk> buffered = get(chunk.timestamp);
      if (buffered.has_value()) {
        if (buffered->chunk_index != frame || buffered->size != chunk.size) {
          ++viewer.wrong;
        }
        const Time obtained = std::max(due, ctx.Now());
        if (viewer.first_frame_at < 0) {
          viewer.first_frame_at = obtained;
        }
        delays_.push_back(obtained - due);
        margins_.push_back(due - buffered->filled_at);
        ++viewer.played;
        viewer.bytes += buffered->size;
        if (ftrace != nullptr) {
          ftrace->Deliver(frame);
        }
        got = true;
        break;
      }
      co_await ctx.Sleep(kPoll);
    }
    if (!got) {
      ++viewer.missed;
      if (ftrace != nullptr) {
        ftrace->Miss(frame, crobs::FrameStage::kPlayout);
      }
    }
  }
}

// One viewer: arrive, open, play the watched frames locally from the shared
// buffer or remotely through NPS, then stop and close.
crsim::Task Replay::Watch(crrt::ThreadContext& ctx, Viewer& viewer) {
  cras::CrasServer& server = bed_->cras_server;
  co_await ctx.Sleep(viewer.in.at);
  cras::OpenParams params;
  params.inode = catalog_[static_cast<std::size_t>(viewer.in.title)].inode;
  params.index = viewer.index;
  auto opened = co_await server.Open(std::move(params));
  if (!opened.ok()) {
    viewer.rejected = true;
    viewer.ended_at = ctx.Now();
    co_return;
  }
  const cras::SessionId id = *opened;
  const Duration delay = server.SuggestedInitialDelay();
  if (!workload_.remote) {
    (void)co_await server.StartStream(id, delay);
    co_await Play(
        ctx, viewer, ctx.Now() + delay, [&](Time t) { return server.Get(id, t); },
        server.FrameTrace(id));
  } else {
    viewer.receiver = std::make_unique<crnet::NpsReceiver>(*client_host_);
    viewer.sender = std::make_unique<crnet::NpsSender>(bed_->kernel, server, *viewer.forward,
                                                       *viewer.receiver);
    viewer.receiver->ConnectReverse(*viewer.reverse, *viewer.sender);
    (void)co_await server.StartStream(id, delay);
    viewer.sender_task = viewer.sender->Start(id, &viewer.index);
    const Duration playout = delay + kRemotePlayoutSlack;
    viewer.receiver->clock().Start(playout);
    crnet::NpsReceiver& receiver = *viewer.receiver;
    co_await Play(
        ctx, viewer, ctx.Now() + playout, [&](Time t) { return receiver.Get(t); },
        receiver.frame_trace());
  }
  (void)co_await server.StopStream(id);
  (void)co_await server.Close(id);
  viewer.ended_at = ctx.Now();
}

// Totals over the series of one metric family that carry every label in
// `match`: counter sum, and histogram sample count and sample sum.
struct FamilyTotal {
  std::int64_t counter = 0;
  std::int64_t samples = 0;
  double sum = 0;
  double mean() const { return samples > 0 ? sum / static_cast<double>(samples) : 0.0; }
};

FamilyTotal Total(const crobs::RegistrySnapshot& snap, std::string_view name,
                  const crobs::Labels& match = {}) {
  FamilyTotal total;
  for (const crobs::FamilySnapshot& family : snap.families) {
    if (family.name != name) {
      continue;
    }
    for (const crobs::SeriesSnapshot& series : family.series) {
      const bool matches = std::all_of(match.begin(), match.end(), [&](const auto& label) {
        return std::find(series.labels.begin(), series.labels.end(), label) !=
               series.labels.end();
      });
      if (matches) {
        total.counter += series.counter;
        total.samples += series.count;
        total.sum += series.mean * static_cast<double>(series.count);
      }
    }
  }
  return total;
}

// Largest number of viewers between first frame and departure at once.
std::int64_t PeakStreams(const std::vector<Viewer>& viewers) {
  std::vector<std::pair<Time, int>> edges;
  for (const Viewer& viewer : viewers) {
    if (!viewer.rejected && viewer.first_frame_at >= 0) {
      edges.emplace_back(viewer.first_frame_at, 1);
      edges.emplace_back(viewer.ended_at, -1);
    }
  }
  std::sort(edges.begin(), edges.end());
  std::int64_t open = 0;
  std::int64_t peak = 0;
  for (const auto& edge : edges) {
    open += edge.second;
    peak = std::max(peak, open);
  }
  return peak;
}

Outcome Replay::Collect(bool trace) const {
  Outcome out;
  const cras::CrasServer& server = bed_->cras_server;
  auto fail = [&out](std::string what) { out.errors.push_back(std::move(what)); };
  Digest digest;
  std::int64_t admitted = 0;
  std::int64_t local_bytes = 0;
  for (const Viewer& viewer : viewers_) {
    ++out.viewers;
    digest.Add(viewer.rejected);
    digest.Add(viewer.first_frame_at);
    digest.Add(viewer.ended_at);
    digest.Add(viewer.played);
    digest.Add(viewer.missed);
    digest.Add(viewer.bytes);
    if (viewer.ended_at < 0) {
      fail("a viewer never finished");
      continue;
    }
    const auto frames = static_cast<std::int64_t>(viewer.frames);
    out.frames_due += frames;
    if (viewer.rejected) {
      ++out.rejected;
      ++out.failed;
      continue;
    }
    ++admitted;
    if (viewer.played + viewer.missed != frames) {
      fail("frames played + missed != frames watched");
    }
    if (viewer.wrong != 0) {
      fail("a viewer was handed the wrong chunk");
    }
    if (viewer.missed > 0) {
      ++out.failed;
    }
    if (viewer.first_frame_at >= 0) {
      out.startups.push_back(viewer.first_frame_at - viewer.in.at);
    }
    out.frames_played += viewer.played;
    out.stream_seconds += crbase::ToSeconds(viewer.index.at(viewer.frames).timestamp);
    if (!workload_.remote) {
      local_bytes += viewer.bytes;
    }
  }
  const cras::ServerStats& stats = server.stats();
  if (stats.sessions_opened != admitted || stats.sessions_rejected != out.rejected) {
    fail("server session counts disagree with the viewers");
  }
  if (server.open_sessions() != 0 || server.buffer_bytes_reserved() != 0) {
    fail("sessions or buffer reservations left open after every viewer left");
  }
  if (local_bytes > stats.bytes_read + stats.bytes_from_cache) {
    fail("viewers consumed more bytes than the server retrieved");
  }
  for (std::int64_t v : {stats.bytes_read, stats.read_requests, stats.bytes_from_cache,
                         stats.deadline_misses}) {
    digest.Add(v);
  }
  out.events = bed_->engine().events_fired();
  digest.Add(static_cast<std::int64_t>(out.events));
  out.delays = delays_;
  out.margins = margins_;
  std::sort(out.margins.begin(), out.margins.end());
  std::sort(out.delays.begin(), out.delays.end());
  std::sort(out.startups.begin(), out.startups.end());
  for (Duration d : out.delays) {
    digest.Add(d);
  }

  const crobs::FrameTracer& frames = bed_->hub.frames();
  if (trace) {
    const crobs::StageAttribution& totals = frames.Totals();
    if (totals.conservation_violations != 0 || totals.unattributed_ns != 0) {
      fail("frame stage latencies do not sum to end-to-end time");
    }
    if (totals.frames_resolved() == 0) {
      fail("frame tracer resolved no frames");
    }
  }
  out.digest = digest.value();

  // Per-layer values of the simulated system (deterministic for a seed).
  const crobs::RegistrySnapshot snap = bed_->hub.Snapshot();
  auto& layer = out.layer;
  const crobs::StageAttribution& totals = frames.Totals();
  layer.emplace_back("frames_traced", static_cast<double>(totals.frames_resolved()));
  for (int b = 0; b < crobs::kStageBucketCount; ++b) {
    const auto bucket = static_cast<crobs::StageBucket>(b);
    layer.emplace_back(std::string("stage_") + crobs::StageBucketName(bucket) + "_ms",
                       totals.MeanBucketMs(bucket));
  }
  layer.emplace_back("peak_streams", static_cast<double>(PeakStreams(viewers_)));
  layer.emplace_back(
      "admission_accepts",
      static_cast<double>(Total(snap, "admission.decisions", {{"outcome", "accept"}}).counter));
  // Real-time (CRAS) requests; the busy share also counts the Unix server's.
  const FamilyTotal service = Total(snap, "disk.service_ms", {{"queue", "rt"}});
  layer.emplace_back("disk_requests", static_cast<double>(service.samples));
  layer.emplace_back("disk_service_ms", service.mean());
  const double sim_ms = crbase::ToMilliseconds(bed_->Now());
  layer.emplace_back("disk_busy_pct",
                     100.0 * Total(snap, "disk.service_ms").sum / (kDisks * sim_ms));
  layer.emplace_back("driver_queue_ms", Total(snap, "driver.queue_ms", {{"queue", "rt"}}).mean());
  // Measured / predicted disk time per disk-interval (BudgetLedger).
  layer.emplace_back("ledger_use_pct",
                     Total(snap, "ledger.util_pct", {{"term", "total"}}).mean());
  layer.emplace_back("ledger_overruns",
                     static_cast<double>(Total(snap, "ledger.overruns").counter));
  layer.emplace_back("deadline_misses", static_cast<double>(stats.deadline_misses));
  const crcache::StreamCache* cache = server.cache();
  const std::int64_t hit_chunks =
      cache == nullptr
          ? 0
          : cache->counters().prefix_hit_chunks + cache->counters().interval_hit_chunks;
  layer.emplace_back("cache_hit_chunks", static_cast<double>(hit_chunks));
  const double retrieved = static_cast<double>(stats.bytes_read + stats.bytes_from_cache);
  layer.emplace_back("cache_byte_share_pct",
                     retrieved > 0 ? 100.0 * static_cast<double>(stats.bytes_from_cache) / retrieved
                                   : 0.0);
  layer.emplace_back("cache_fallbacks",
                     static_cast<double>(cache == nullptr ? 0 : cache->counters().fallbacks));
  std::int64_t retransmits = 0;
  std::int64_t naks = 0;
  std::int64_t abandoned = 0;
  std::int64_t duplicates = 0;
  for (const Viewer& viewer : viewers_) {
    if (viewer.sender != nullptr) {
      retransmits += viewer.sender->stats().fragments_retransmitted;
      naks += viewer.receiver->stats().naks_sent;
      abandoned += viewer.receiver->stats().chunks_abandoned;
      duplicates += viewer.receiver->stats().duplicate_fragments;
    }
  }
  layer.emplace_back("nps_retransmits", static_cast<double>(retransmits));
  layer.emplace_back("nps_naks", static_cast<double>(naks));
  layer.emplace_back("nps_abandoned", static_cast<double>(abandoned));
  layer.emplace_back("nps_duplicates", static_cast<double>(duplicates));
  layer.emplace_back("sim_events", static_cast<double>(out.events));
  layer.emplace_back("frame_stamps", static_cast<double>(frames.stamps()));
  return out;
}

// ---------------------------------------------------------------------------
// Command line and result.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 && args->trace >= 0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile of a sorted sample, in milliseconds.
double PercentileMs(const std::vector<Duration>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(sorted.size()));
  rank = std::min(rank, sorted.size() - 1);
  return crbase::ToMilliseconds(sorted[rank]);
}

double MeanMs(const std::vector<Duration>& samples) {
  double total = 0;
  for (Duration d : samples) {
    total += crbase::ToMilliseconds(d);
  }
  return samples.empty() ? 0 : total / static_cast<double>(samples.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (!crbase::SetLogLevelFromEnv()) {
    crbase::SetLogLevel(crbase::LogLevel::kError);
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vodbench --workload <uniform|zipf|remote> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "vodbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool trace = args.trace == 1;
  const std::vector<Arrival> arrivals = MakeArrivals(*workload, args.seed);

  // Replays until the wall-clock budget is spent (at least three, so the
  // first can be dropped as warm-up and determinism is checked twice).
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  Outcome first;
  SpeedProbe probe;
  bool correct = true;
  std::vector<double> setup_s;
  std::vector<double> phase_s[3];
  // Every replay does the same work, so the spread between replays is
  // interference from other processes on the host, which only ever adds
  // time, and it comes in spells of seconds. The simulation's cost is
  // therefore each simulated slice's fastest time over the replays, summed.
  std::vector<double> fastest_slice_s;
  std::vector<double> teardown_s;
  for (int rep = 0; rep < 3 || Clock::now() < deadline; ++rep) {
    double phases[3] = {};
    auto replay = std::make_unique<Replay>(*workload, arrivals, trace, args.seed, phases);
    std::vector<double> slices;
    replay->Run(&slices, &probe);
    Outcome outcome = replay->Collect(trace);
    if (trace && rep == 0 && !args.trace_dir.empty()) {
      // One file pair per workload, overwritten by the next traced run.
      const std::string stem = args.trace_dir + "/" + workload->name;
      std::ofstream attribution(stem + ".frames.json");
      replay->hub().frames().WriteJson(attribution);
      replay->hub().WriteTraceFile(stem + ".trace.json");
    }
    const double t2 = CpuSeconds();
    replay.reset();
    const double t3 = CpuSeconds();

    setup_s.push_back(phases[0] + phases[1] + phases[2]);
    for (int p = 0; p < 3; ++p) {
      phase_s[p].push_back(phases[p]);
    }
    if (rep > 0) {  // the first replay warms caches and the allocator
      if (fastest_slice_s.empty()) {
        fastest_slice_s = slices;
      }
      for (std::size_t i = 0; i < slices.size() && i < fastest_slice_s.size(); ++i) {
        fastest_slice_s[i] = std::min(fastest_slice_s[i], slices[i]);
      }
      teardown_s.push_back(t3 - t2);
    }
    for (const std::string& error : outcome.errors) {
      std::fprintf(stderr, "vodbench: replay %d: %s\n", rep, error.c_str());
      correct = false;
    }
    if (rep == 0) {
      first = std::move(outcome);
    } else if (outcome.digest != first.digest) {
      std::fprintf(stderr, "vodbench: replay %d diverged from replay 0 on the same seed\n", rep);
      correct = false;
    }
  }
  if (first.stream_seconds <= 0 || first.startups.empty() || first.delays.empty()) {
    std::fprintf(stderr, "vodbench: no viewer played a frame\n");
    correct = false;
  }

  std::fprintf(stderr,
               "vodbench: %s seed %llu: %zu replays, %lld viewers (%lld rejected, %lld failed), "
               "%zu startups, %zu frames, %.0f stream-s, %llu events\n",
               workload->name, static_cast<unsigned long long>(args.seed), setup_s.size(),
               static_cast<long long>(first.viewers), static_cast<long long>(first.rejected),
               static_cast<long long>(first.failed), first.startups.size(), first.delays.size(),
               first.stream_seconds, static_cast<unsigned long long>(first.events));

  std::vector<Metric> metrics;
  double sim_fastest = 0;
  for (double slice : fastest_slice_s) {
    sim_fastest += slice;
  }
  // Host figures are scaled to the reference host speed.
  const double speed = kProbeReferenceS / probe.fastest_s();
  sim_fastest *= speed;
  if (!trace) {
    // Viewer-side figures of the simulated system: deterministic for a seed.
    metrics.push_back({"startup_p95_ms", PercentileMs(first.startups, 95), "ms"});
    metrics.push_back({"frame_delay_mean_ms", MeanMs(first.delays), "ms"});
    metrics.push_back({"frame_margin_p10_ms", PercentileMs(first.margins, 10), "ms"});
    metrics.push_back(
        {"delivered_pct",
         first.frames_due > 0 ? 100.0 * static_cast<double>(first.frames_played) /
                                    static_cast<double>(first.frames_due)
                              : 0.0,
         "%"});
    metrics.push_back(
        {"cpu_us_per_stream_s",
         first.stream_seconds > 0 ? sim_fastest * 1e6 / first.stream_seconds : 0.0, "us"});
    metrics.push_back({"setup_s", Median(setup_s) * speed, "s"});
  } else {
    // Simulated per-layer values: unit from the name's suffix.
    for (const auto& [name, value] : first.layer) {
      std::string unit = "count";
      if (name.ends_with("_ms")) {
        unit = "ms";
      } else if (name.ends_with("_pct")) {
        unit = "%";
      }
      metrics.push_back({name, value, unit});
    }
    metrics.push_back({"host_probe_us", probe.fastest_s() * 1e6, "us"});
    metrics.push_back({"host_rig_ms", Median(phase_s[0]) * speed * 1e3, "ms"});
    metrics.push_back({"host_catalog_ms", Median(phase_s[1]) * speed * 1e3, "ms"});
    metrics.push_back({"host_viewers_ms", Median(phase_s[2]) * speed * 1e3, "ms"});
    metrics.push_back({"host_sim_ms", sim_fastest * 1e3, "ms"});
    metrics.push_back({"host_teardown_ms", Median(teardown_s) * speed * 1e3, "ms"});
    metrics.push_back({"host_ns_per_event",
                       first.events > 0 ? sim_fastest * 1e9 / static_cast<double>(first.events)
                                        : 0.0,
                       "ns"});
  }
  std::fflush(stderr);
  PrintResult(correct, first.viewers, first.failed, metrics);
  return 0;
}
