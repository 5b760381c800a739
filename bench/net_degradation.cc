// Lossy-network degradation: missed-frame rate of a remote QtPlay stream as
// i.i.d. wire loss grows, with and without the NPS reliability layer.
//
// For each loss rate in {0, 0.1, 1, 5}% the bench streams one MPEG1 movie
// from a CRAS server host through an impaired 10 Mb/s link to a client-host
// NpsReceiver, twice: best-effort (no reverse link, the classic NPS), and
// with NAK repair enabled (ConnectReverse). The client consumes every frame
// by logical time; a frame absent from the time-driven buffer at its
// timestamp is missed.
//
// Expected shape: without repair the missed-frame rate tracks the wire loss
// rate; with repair it collapses to ~0 until loss is high enough that
// retransmissions themselves die or arrive past the playout deadline. Two
// checks are asserted: at 1% loss, repair cuts missed frames by at least
// 10x; and with repair no frame is missed at any swept rate, up to 5%. This
// viewer plays 250 ms behind the session, so the second check fails if the
// sender refuses a repair the viewer could still use. Every row also checks
// that the frame tracer resolved every frame.
//
// Besides the table, the bench writes BENCH_net_degradation.json (current
// directory, or the path given with --out <file>).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/link.h"
#include "src/net/nps.h"
#include "src/obs/frame_trace.h"

namespace {

using crbase::Milliseconds;
using crbase::Seconds;

constexpr crbase::Duration kMovieLength = Seconds(60);

struct NetPoint {
  double loss_pct = 0.0;
  bool reliability = false;
  std::int64_t frames_total = 0;
  std::int64_t frames_ok = 0;
  std::int64_t frames_missed = 0;
  double missed_rate = 0.0;  // frames_missed / frames_total
  std::int64_t wire_drops = 0;
  std::int64_t naks_sent = 0;
  std::int64_t fragments_retransmitted = 0;
  std::int64_t chunks_abandoned = 0;
  // Fleet frame-trace totals: every resolved frame's stage decomposition,
  // conservation-checked (unattributed_ns must be 0).
  crobs::StageAttribution attribution;
};

// Streams one movie through a fresh server-host/client-host pair over a
// link with the given i.i.d. loss probability.
NetPoint RunPoint(double loss_probability, bool reliability) {
  cras::VolumeTestbedOptions bed_options;
  bed_options.obs.frames.enabled = true;
  cras::VolumeTestbed bed(bed_options);
  crrt::Kernel client_host(bed.engine(), crrt::Kernel::Options{});
  crnet::Link::Options forward_options;  // the default 10 Mb/s Ethernet
  forward_options.impairments.loss_probability = loss_probability;
  crnet::Link forward(bed.engine(), forward_options);
  crnet::Link reverse(bed.engine());  // NAK path; kept clean
  crnet::NpsReceiver receiver(client_host);
  crnet::NpsSender sender(bed.kernel, bed.cras_server, forward, receiver);
  if (reliability) {
    receiver.ConnectReverse(reverse, sender);
  }
  bed.StartServers();

  auto movie = crmedia::WriteMpeg1File(bed.fs, "movie", kMovieLength);
  CRAS_CHECK(movie.ok()) << movie.status().ToString();

  cras::SessionId session = cras::kInvalidSession;
  crsim::Task opener = bed.kernel.Spawn(
      "qtserver", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie->inode;
        params.index = movie->index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok()) << opened.status().ToString();
        session = *opened;
        (void)co_await bed.cras_server.StartStream(session,
                                                   bed.cras_server.SuggestedInitialDelay());
      });
  bed.engine().RunFor(Milliseconds(50));
  CRAS_CHECK(session != cras::kInvalidSession);
  crsim::Task sender_task = sender.Start(session, &movie->index);

  NetPoint point;
  point.loss_pct = loss_probability * 100.0;
  point.reliability = reliability;
  crsim::Task player = client_host.Spawn(
      "qtclient", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        const crbase::Duration delay =
            bed.cras_server.SuggestedInitialDelay() + Milliseconds(200);
        receiver.clock().Start(delay);
        co_await ctx.Sleep(delay);
        for (const crmedia::Chunk& chunk : movie->index.chunks()) {
          while (receiver.clock().Now() < chunk.timestamp) {
            co_await ctx.Sleep(Milliseconds(2));
          }
          if (receiver.Get(chunk.timestamp).has_value()) {
            ++point.frames_ok;
          } else {
            ++point.frames_missed;
          }
        }
      });
  bed.engine().RunFor(kMovieLength + Seconds(10));

  point.frames_total = static_cast<std::int64_t>(movie->index.count());
  CRAS_CHECK(point.frames_ok + point.frames_missed == point.frames_total);
  point.missed_rate =
      static_cast<double>(point.frames_missed) / static_cast<double>(point.frames_total);
  point.wire_drops = forward.stats().wire_drops;
  point.naks_sent = receiver.stats().naks_sent;
  point.fragments_retransmitted = sender.stats().fragments_retransmitted;
  point.chunks_abandoned = receiver.stats().chunks_abandoned;
  point.attribution = bed.hub.frames().Totals();
  // Attribution conservation: every frame the tracer resolved — delivered,
  // NAK-abandoned, or discarded — decomposes into stage buckets that sum
  // exactly to its end-to-end time.
  CRAS_CHECK(point.attribution.conservation_violations == 0)
      << point.attribution.conservation_violations
      << " non-monotone frame(s) at loss " << point.loss_pct << "%";
  CRAS_CHECK(point.attribution.unattributed_ns == 0)
      << point.attribution.unattributed_ns << " ns unattributed at loss "
      << point.loss_pct << "%";
  // Every frame is resolved, a wholly lost one too: the receiver names it
  // from the control file, with or without a reverse link.
  CRAS_CHECK(point.attribution.frames_resolved() == point.frames_total)
      << point.attribution.frames_resolved() << " of " << point.frames_total
      << " frames resolved at loss " << point.loss_pct << "%";
  return point;
}

void WriteJson(const std::string& path, const std::vector<NetPoint>& points) {
  std::ofstream out(path);
  CRAS_CHECK(out.good()) << "cannot write " << path;
  out << "{\n"
      << "  \"bench\": \"net_degradation\",\n"
      << "  \"stream\": \"MPEG1 1.5 Mb/s\",\n"
      << "  \"link\": \"10 Mb/s Ethernet\",\n"
      << "  \"loss_model\": \"iid\",\n"
      << "  \"movie_seconds\": " << kMovieLength / Seconds(1) << ",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const NetPoint& p = points[i];
    out << "    {\"loss_pct\": " << p.loss_pct
        << ", \"reliability\": " << (p.reliability ? "true" : "false")
        << ", \"frames_total\": " << p.frames_total << ", \"frames_ok\": " << p.frames_ok
        << ", \"frames_missed\": " << p.frames_missed << ", \"missed_rate\": " << p.missed_rate
        << ", \"wire_drops\": " << p.wire_drops << ", \"naks_sent\": " << p.naks_sent
        << ", \"fragments_retransmitted\": " << p.fragments_retransmitted
        << ", \"chunks_abandoned\": " << p.chunks_abandoned
        << ",\n     \"frames_resolved\": " << p.attribution.frames_resolved()
        << ", \"unattributed_ns\": " << p.attribution.unattributed_ns
        << ", \"bucket_mean_ms\": {";
    for (int b = 0; b < crobs::kStageBucketCount; ++b) {
      const auto bucket = static_cast<crobs::StageBucket>(b);
      out << (b > 0 ? ", " : "") << "\"" << crobs::StageBucketName(bucket)
          << "\": " << p.attribution.MeanBucketMs(bucket);
    }
    out << "}}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  std::string json_path = "BENCH_net_degradation.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") {
      json_path = argv[i + 1];
    }
  }

  crstats::PrintBanner("Lossy-network degradation: missed frames vs wire loss");
  crstats::Table table({"loss_%", "repair", "frames", "missed", "missed_%", "wire_drops",
                        "naks", "retransmits", "abandoned"});
  table.SetCsv(csv);

  const double losses[] = {0.0, 0.001, 0.01, 0.05};
  std::vector<NetPoint> points;
  for (double loss : losses) {
    for (bool reliability : {false, true}) {
      NetPoint p = RunPoint(loss, reliability);
      table.Cell(p.loss_pct, 1)
          .Cell(p.reliability ? "on" : "off")
          .Cell(p.frames_total)
          .Cell(p.frames_missed)
          .Cell(100.0 * p.missed_rate)
          .Cell(p.wire_drops)
          .Cell(p.naks_sent)
          .Cell(p.fragments_retransmitted)
          .Cell(p.chunks_abandoned);
      table.EndRow();
      points.push_back(p);
    }
  }
  table.Print();

  // Where each configuration's latency lives, frame by frame: the
  // telescoping decomposition means each row's buckets sum to its
  // end-to-end mean.
  crstats::PrintBanner("Per-stage latency attribution (mean ms per resolved frame)");
  crstats::Table attr({"loss_%", "repair", "resolved", "disk_q", "disk_svc", "buf_wait",
                       "wire", "repair_ms", "playout", "e2e"});
  attr.SetCsv(csv);
  for (const NetPoint& p : points) {
    const crobs::StageAttribution& a = p.attribution;
    attr.Cell(p.loss_pct, 1)
        .Cell(p.reliability ? "on" : "off")
        .Cell(a.frames_resolved())
        .Cell(a.MeanBucketMs(crobs::StageBucket::kDiskQueue), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kDiskService), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kBufferWait), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kWire), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kRepair), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kPlayoutSlack), 2)
        .Cell(a.MeanEndToEndMs(), 2);
    attr.EndRow();
  }
  attr.Print();

  // Headline criterion: at 1% i.i.d. loss, repair cuts missed frames >= 10x.
  const NetPoint* without = nullptr;
  const NetPoint* with = nullptr;
  for (const NetPoint& p : points) {
    if (p.loss_pct == 1.0) {
      (p.reliability ? with : without) = &p;
    }
  }
  CRAS_CHECK(without != nullptr && with != nullptr);
  CRAS_CHECK(without->frames_missed > 0)
      << "1% loss lost no frames even without repair; lengthen the movie";
  CRAS_CHECK(with->frames_missed * 10 <= without->frames_missed)
      << "repair missed " << with->frames_missed << " vs " << without->frames_missed
      << " without: less than the required 10x improvement";
  std::printf("\nAt 1%% loss: %lld missed without repair, %lld with (>= 10x check passed).\n",
              static_cast<long long>(without->frames_missed),
              static_cast<long long>(with->frames_missed));
  for (const NetPoint& p : points) {
    CRAS_CHECK(!p.reliability || p.frames_missed == 0)
        << "repair missed " << p.frames_missed << " frame(s) at loss " << p.loss_pct << "%";
  }
  std::printf("With repair: 0 missed at every loss rate (check passed).\n");

  WriteJson(json_path, points);
  std::printf("Wrote %s\n", json_path.c_str());
  return 0;
}
