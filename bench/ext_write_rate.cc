// Extension (paper §4): constant-rate writing. Recorders produce chunks at
// the stream rate into write sessions over contiguously preallocated files;
// the same interval scheduler and admission formulas stage them to disk.
//
// Reported: sustained write rate per recorder count, write-queue deadline
// health, and read/write coexistence.

#include <cstdio>

#include "bench/bench_util.h"

namespace {

using cras::SessionId;
using cras::VolumeTestbed;
using crbase::Seconds;

constexpr crbase::Duration kRecordLength = crbase::Seconds(12);

crsim::Task SpawnRecorder(VolumeTestbed& bed, crufs::InodeNumber inode,
                          const crmedia::ChunkIndex* index, SessionId* id_out, bool* rejected) {
  return bed.kernel.Spawn(
      "recorder", crrt::kPriorityClient,
      [&bed, inode, index, id_out, rejected](crrt::ThreadContext& ctx) -> crsim::Task {
        cras::OpenParams params;
        params.inode = inode;
        params.index = *index;
        params.kind = cras::SessionKind::kWrite;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        if (!opened.ok()) {
          *rejected = true;
          co_return;
        }
        *id_out = *opened;
        (void)co_await bed.cras_server.StartStream(*opened, 0);
        const crbase::Time start = ctx.Now();
        for (std::size_t c = 0; c < index->count(); ++c) {
          const crmedia::Chunk& chunk = index->at(c);
          if (chunk.timestamp > kRecordLength) {
            break;
          }
          const crbase::Time due = start + chunk.timestamp;
          if (due > ctx.Now()) {
            co_await ctx.Sleep(due - ctx.Now());
          }
          (void)bed.cras_server.PutChunk(*id_out, static_cast<std::int64_t>(c));
        }
      });
}

struct Outcome {
  int admitted = 0;
  double write_mbps = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t player_missed = -1;
};

Outcome RunOne(int recorders, bool mpeg2, bool with_player) {
  VolumeTestbed bed;
  bed.StartServers();
  std::vector<crmedia::ChunkIndex> indexes;
  std::vector<crufs::InodeNumber> inodes;
  for (int i = 0; i < recorders; ++i) {
    indexes.push_back(crmedia::BuildCbrIndex(
        mpeg2 ? crmedia::kMpeg2BytesPerSec : crmedia::kMpeg1BytesPerSec, 30.0,
        kRecordLength + Seconds(2)));
    crufs::InodeNumber inode = *bed.fs.Create("capture" + std::to_string(i));
    CRAS_CHECK_OK(bed.fs.PreallocateContiguous(inode, indexes.back().total_bytes()));
    inodes.push_back(inode);
  }
  std::vector<SessionId> ids(static_cast<std::size_t>(recorders), cras::kInvalidSession);
  std::vector<crsim::Task> tasks;
  bool any_rejected = false;
  for (int i = 0; i < recorders; ++i) {
    tasks.push_back(SpawnRecorder(bed, inodes[static_cast<std::size_t>(i)],
                                  &indexes[static_cast<std::size_t>(i)],
                                  &ids[static_cast<std::size_t>(i)], &any_rejected));
  }
  cras::PlayerStats player_stats;
  crsim::Task player;
  std::unique_ptr<crmedia::MediaFile> movie;
  if (with_player) {
    auto file = crmedia::WriteMpeg1File(bed.fs, "movie", kRecordLength + Seconds(2));
    movie = std::make_unique<crmedia::MediaFile>(std::move(*file));
    cras::PlayerOptions options;
    options.play_length = kRecordLength - Seconds(2);
    player = cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, *movie, options, &player_stats);
  }
  bed.engine().RunFor(kRecordLength + Seconds(4));

  Outcome outcome;
  for (SessionId id : ids) {
    if (id != cras::kInvalidSession) {
      ++outcome.admitted;
    }
  }
  outcome.write_mbps = crbench::ToMBps(
      static_cast<double>(bed.cras_server.stats().bytes_written) /
      crbase::ToSeconds(kRecordLength));
  outcome.deadline_misses = bed.cras_server.stats().deadline_misses;
  if (with_player) {
    outcome.player_missed = player_stats.frames_missed;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  crstats::PrintBanner("Extension: constant-rate writing (paper section 4)");
  crstats::Table table({"recorders", "rate", "with_player", "admitted", "write_MBps",
                        "deadline_misses", "player_missed_frames"});
  table.SetCsv(csv);
  struct Config {
    int recorders;
    bool mpeg2;
    bool with_player;
  };
  const Config configs[] = {
      {1, false, false}, {4, false, false}, {8, false, false},
      {1, true, false},  {3, true, false},  {2, false, true},
  };
  for (const Config& config : configs) {
    const Outcome o = RunOne(config.recorders, config.mpeg2, config.with_player);
    table.Cell(static_cast<std::int64_t>(config.recorders))
        .Cell(config.mpeg2 ? "6Mbps" : "1.5Mbps")
        .Cell(config.with_player ? "yes" : "no")
        .Cell(static_cast<std::int64_t>(o.admitted))
        .Cell(o.write_mbps, 3)
        .Cell(o.deadline_misses)
        .Cell(o.player_missed);
    table.EndRow();
  }
  table.Print();
  std::printf("\nExpected: sustained write rate = recorders x stream rate with zero\n"
              "deadline misses, and recording coexists with playback (player_missed=0).\n");
  return 0;
}
