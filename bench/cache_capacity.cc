// Cache capacity sweep: admitted streams vs cache size under Zipf demand.
//
// The admission formulas cap a single ST32550N at ~14 MPEG1 streams because
// every stream pays full worst-case disk time. The stream buffer cache
// (interval + prefix caching, DESIGN.md §5.11) breaks that ceiling for
// skewed demand: streams of a hot title chain behind one disk-served head,
// charged buffer memory plus a shared fallback reserve instead of disk time.
//
// The bench replays one arrival trace — 100 viewers arriving every 200 ms,
// titles drawn Zipf(alpha) over a 16-title catalog — against cache budgets
// of 0 (disk only), 6, 24 and 96 MiB (3/8 prefix pool, 5/8 interval pool)
// for alpha in {0.6, 0.8, 1.0}. The trace is seeded, so every sweep point
// sees the identical demand. Expected: admitted streams grow with cache
// size and skew, reaching >= 5x the disk-only capacity at the largest cache
// under alpha = 1.0 — with zero deadline misses, zero missed frames, and a
// clean budget-ledger audit (no interval ran past its predicted worst case)
// at every point: the cache adds capacity, never risk.
//
// Output: a table and BENCH_cache_capacity.json (--out <file>).

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/admission_accuracy.h"
#include "bench/bench_util.h"
#include "src/obs/ledger.h"

namespace {

constexpr int kTitles = 16;
constexpr int kArrivals = 100;
constexpr std::uint64_t kTraceSeed = 12345;

struct SweepPoint {
  std::int64_t cache_mib = 0;
  double alpha = 0;
  int admitted = 0;
  int rejected = 0;
  std::int64_t pairs_formed = 0;
  std::int64_t pairs_end = 0;        // chains still fed at end of run
  std::int64_t pinned_titles = 0;
  std::int64_t prefix_hit_chunks = 0;
  std::int64_t interval_hit_chunks = 0;
  std::int64_t fallbacks = 0;
  std::int64_t bytes_from_cache = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t frames_missed = 0;
  std::int64_t streams_shed = 0;
  std::int64_t overruns = 0;
  std::int64_t late_attributions = 0;
};

// Replays the seeded arrival trace against one cache budget.
SweepPoint MeasurePoint(std::int64_t cache_bytes, double alpha) {
  SweepPoint point;
  point.cache_mib = cache_bytes / crbase::kMiB;
  point.alpha = alpha;

  cras::VolumeTestbedOptions options;
  // Generous wired budget: the cache, not stream buffers, is the binding
  // constraint being swept.
  options.cras.memory_budget_bytes = 256 * crbase::kMiB;
  options.cras.cache.enabled = cache_bytes > 0;
  options.cras.cache.prefix_length = crbase::Seconds(12);
  options.cras.cache.prefix_pool_bytes = cache_bytes * 3 / 8;
  options.cras.cache.interval_pool_bytes = cache_bytes * 5 / 8;
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  const auto files = crbench::MakeMpeg1Files(bed, kTitles, crbase::Seconds(60));

  crbase::ZipfGenerator zipf(kTitles, alpha, kTraceSeed);
  std::vector<std::unique_ptr<cras::PlayerStats>> stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions player_options;
  // Nobody finishes inside the run: pair churn from closes is the cache
  // tests' subject; this bench measures steady concurrent capacity.
  player_options.play_length = crbase::Seconds(40);
  for (int i = 0; i < kArrivals; ++i) {
    player_options.start_delay = crbase::Milliseconds(200) * i;
    stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[zipf.Next()], player_options,
                                            stats.back().get()));
  }
  bed.engine().RunFor(crbase::Seconds(32));

  for (const auto& s : stats) {
    if (s->open_rejected) {
      ++point.rejected;
      continue;
    }
    ++point.admitted;
    if (!s->shed) {
      point.frames_missed += s->frames_missed;
    }
  }
  const cras::ServerStats& server = bed.cras_server.stats();
  point.deadline_misses = server.deadline_misses;
  point.bytes_from_cache = server.bytes_from_cache;
  point.streams_shed = server.streams_shed;
  if (const crcache::StreamCache* cache = bed.cras_server.cache()) {
    point.pairs_formed = cache->counters().pairs_formed;
    point.pairs_end = cache->pairs_active();
    point.pinned_titles = cache->pinned_titles();
    point.prefix_hit_chunks = cache->counters().prefix_hit_chunks;
    point.interval_hit_chunks = cache->counters().interval_hit_chunks;
    point.fallbacks = cache->counters().fallbacks;
  }

  // The ledger audit must stay clean: cache-served intervals issue less
  // disk I/O than predicted, never more.
  crobs::BudgetLedger* ledger = bed.hub.ledger();
  CRAS_CHECK(ledger != nullptr);
  ledger->CloseAll();
  point.overruns = ledger->overruns();
  point.late_attributions = ledger->late_attributions();

  CRAS_CHECK(point.deadline_misses == 0)
      << point.deadline_misses << " deadline misses at cache " << point.cache_mib
      << " MiB, alpha " << alpha;
  CRAS_CHECK(point.frames_missed == 0)
      << point.frames_missed << " missed frames at cache " << point.cache_mib
      << " MiB, alpha " << alpha;
  CRAS_CHECK(point.overruns == 0)
      << point.overruns << " ledger overruns at cache " << point.cache_mib
      << " MiB, alpha " << alpha;
  return point;
}

void WriteJson(const std::string& path, int disk_only_admitted,
               const std::vector<SweepPoint>& points) {
  std::ofstream out(path);
  CRAS_CHECK(out.good()) << "cannot write " << path;
  out << "{\n"
      << "  \"bench\": \"cache_capacity\",\n"
      << "  \"stream\": \"MPEG1 1.5 Mb/s\",\n"
      << "  \"titles\": " << kTitles << ",\n"
      << "  \"arrivals\": " << kArrivals << ",\n"
      << "  \"interval_ms\": 500,\n"
      << "  \"prefix_length_s\": 12,\n"
      << "  \"disk_only_admitted\": " << disk_only_admitted << ",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    out << "    {\"cache_mib\": " << p.cache_mib << ", \"alpha\": " << p.alpha
        << ", \"admitted\": " << p.admitted << ", \"rejected\": " << p.rejected
        << ", \"pairs_formed\": " << p.pairs_formed << ", \"pairs_end\": " << p.pairs_end
        << ", \"pinned_titles\": " << p.pinned_titles << ",\n     \"prefix_hit_chunks\": "
        << p.prefix_hit_chunks << ", \"interval_hit_chunks\": " << p.interval_hit_chunks
        << ", \"fallbacks\": " << p.fallbacks
        << ", \"bytes_from_cache\": " << p.bytes_from_cache
        << ",\n     \"deadline_misses\": " << p.deadline_misses
        << ", \"frames_missed\": " << p.frames_missed
        << ", \"streams_shed\": " << p.streams_shed << ", \"overruns\": " << p.overruns
        << ", \"late_attributions\": " << p.late_attributions << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  std::string json_path = "BENCH_cache_capacity.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out" && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }

  crstats::PrintBanner("Cache capacity: admitted streams vs cache size, Zipf demand");
  std::printf("1 disk, T = 0.5 s, %d titles, %d arrivals at 5/s, 12 s prefixes,\n"
              "cache split 3/8 prefix + 5/8 interval pool\n",
              kTitles, kArrivals);

  // Disk-only capacity of the same rig: distinct cold titles opened until
  // admission refuses one (the classic formulas' ceiling, ~14).
  cras::VolumeTestbedOptions baseline;
  baseline.volume.disks = 1;
  baseline.cras.memory_budget_bytes = 256 * crbase::kMiB;
  const int disk_only = crbench::CountAdmittedStreams(baseline, 3 * kTitles);
  std::printf("disk-only admitted capacity: %d streams\n\n", disk_only);

  crstats::Table table({"cache_mib", "alpha", "admitted", "rejected", "pairs", "pinned",
                        "prefix_hits", "interval_hits", "fallbacks", "cache_MB", "misses",
                        "shed"});
  table.SetCsv(csv);
  std::vector<SweepPoint> points;
  for (const std::int64_t cache_mib : {0, 6, 24, 96}) {
    for (const double alpha : {0.6, 0.8, 1.0}) {
      const SweepPoint point = MeasurePoint(cache_mib * crbase::kMiB, alpha);
      table.Cell(point.cache_mib)
          .Cell(point.alpha, 1)
          .Cell(static_cast<std::int64_t>(point.admitted))
          .Cell(static_cast<std::int64_t>(point.rejected))
          .Cell(point.pairs_end)
          .Cell(point.pinned_titles)
          .Cell(point.prefix_hit_chunks)
          .Cell(point.interval_hit_chunks)
          .Cell(point.fallbacks)
          .Cell(static_cast<double>(point.bytes_from_cache) / 1e6, 1)
          .Cell(point.deadline_misses)
          .Cell(point.streams_shed);
      table.EndRow();
      points.push_back(point);
    }
  }
  table.Print();

  // The headline acceptance: the largest cache under the classic
  // video-popularity skew carries at least 5x the disk-only load.
  const SweepPoint& best = points.back();  // 96 MiB, alpha = 1.0
  CRAS_CHECK(best.admitted >= 5 * disk_only)
      << "expected >= " << 5 * disk_only << " admitted at " << best.cache_mib
      << " MiB, alpha " << best.alpha << "; measured " << best.admitted;

  WriteJson(json_path, disk_only, points);
  std::printf("\nWrote %s. Expected: admitted growing with cache size and skew —\n"
              "%d disk-only, >= %d (5x) at 96 MiB under alpha = 1.0 — with zero\n"
              "deadline misses, zero missed frames, and zero ledger overruns at\n"
              "every sweep point.\n",
              json_path.c_str(), disk_only, 5 * disk_only);
  return 0;
}
