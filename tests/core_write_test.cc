// Constant-rate writing (the paper's §4 extension): recording sessions over
// preallocated files, staged through the interval scheduler.

#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/core/cras.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

// A recorder: opens a write session over a preallocated file and produces
// chunks at the stream's frame rate (a capture device writing live video).
crsim::Task SpawnRecorder(VolumeTestbed& bed, crufs::InodeNumber inode,
                          const crmedia::ChunkIndex& index, crbase::Duration record_length,
                          SessionId* id_out, crbase::Status* status_out) {
  return bed.kernel.Spawn(
      "recorder", crrt::kPriorityClient, [&bed, inode, &index, record_length, id_out,
                                          status_out](crrt::ThreadContext& ctx) -> crsim::Task {
        OpenParams params;
        params.inode = inode;
        params.index = index;
        params.kind = SessionKind::kWrite;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        if (!opened.ok()) {
          *status_out = opened.status();
          co_return;
        }
        const SessionId id = *opened;
        *id_out = id;
        *status_out = co_await bed.cras_server.StartStream(id, 0);
        const crbase::Time start = ctx.Now();
        for (std::size_t c = 0; c < index.count(); ++c) {
          const crmedia::Chunk& chunk = index.at(c);
          if (chunk.timestamp > record_length) {
            break;
          }
          const crbase::Time due = start + chunk.timestamp;
          if (due > ctx.Now()) {
            co_await ctx.Sleep(due - ctx.Now());
          }
          CRAS_CHECK_OK(bed.cras_server.PutChunk(id, static_cast<std::int64_t>(c)));
        }
      });
}

crmedia::ChunkIndex Mpeg1Index(crbase::Duration length) {
  return crmedia::BuildCbrIndex(crmedia::kMpeg1BytesPerSec, 30.0, length);
}

crufs::InodeNumber PreallocatedFile(VolumeTestbed& bed, const std::string& name,
                                    std::int64_t bytes) {
  crufs::InodeNumber inode = *bed.fs.Create(name);
  CRAS_CHECK_OK(bed.fs.PreallocateContiguous(inode, bytes));
  return inode;
}

TEST(CrasWrite, RecordsAtConstantRate) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::ChunkIndex index = Mpeg1Index(Seconds(10));
  crufs::InodeNumber inode = PreallocatedFile(bed, "capture", index.total_bytes());
  SessionId id = kInvalidSession;
  crbase::Status status = crbase::InternalError("not run");
  crsim::Task recorder = SpawnRecorder(bed, inode, index, Seconds(8), &id, &status);
  bed.engine().RunFor(Seconds(10));
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto stats = bed.cras_server.GetSessionStats(id);
  ASSERT_TRUE(stats.ok());
  // ~241 frames produced over 8 s; all must have hit the disk by now.
  EXPECT_GE(stats->chunks_written, 240);
  EXPECT_GT(bed.cras_server.stats().bytes_written, 235LL * 6250);
  EXPECT_GT(bed.cras_server.stats().write_requests, 10);
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

TEST(CrasWrite, WriteSessionCountsAgainstAdmission) {
  VolumeTestbed bed;
  bed.StartServers();
  // Fill admission with write sessions: capacity is the same 14 as reads.
  int accepted = 0;
  crsim::Task opener = bed.kernel.Spawn(
      "opener", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        for (int i = 0; i < 16; ++i) {
          crmedia::ChunkIndex index = Mpeg1Index(Seconds(2));
          crufs::InodeNumber inode =
              PreallocatedFile(bed, "cap" + std::to_string(i), index.total_bytes());
          OpenParams params;
          params.inode = inode;
          params.index = std::move(index);
          params.kind = SessionKind::kWrite;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          if (opened.ok()) {
            ++accepted;
          }
        }
      });
  bed.engine().RunFor(Seconds(2));
  EXPECT_EQ(accepted, 14);
}

TEST(CrasWrite, MixedReadAndWriteSessionsCoexist) {
  VolumeTestbed bed;
  bed.StartServers();
  // One recorder and one player simultaneously; both meet their rates.
  crmedia::ChunkIndex rec_index = Mpeg1Index(Seconds(8));
  crufs::InodeNumber rec_inode = PreallocatedFile(bed, "capture", rec_index.total_bytes());
  SessionId rec_id = kInvalidSession;
  crbase::Status rec_status = crbase::InternalError("not run");
  crsim::Task recorder =
      SpawnRecorder(bed, rec_inode, rec_index, Seconds(6), &rec_id, &rec_status);

  auto movie = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  PlayerStats player_stats;
  PlayerOptions options;
  options.play_length = Seconds(6);
  crsim::Task player =
      SpawnCrasPlayer(bed.kernel, bed.cras_server, *movie, options, &player_stats);

  bed.engine().RunFor(Seconds(10));
  ASSERT_TRUE(rec_status.ok());
  EXPECT_EQ(player_stats.frames_missed, 0);
  EXPECT_LE(player_stats.max_delay(), Milliseconds(1));
  auto rec_stats = bed.cras_server.GetSessionStats(rec_id);
  ASSERT_TRUE(rec_stats.ok());
  EXPECT_GE(rec_stats->chunks_written, 175);
}

TEST(CrasWrite, PutChunkValidation) {
  VolumeTestbed bed;
  bed.StartServers();
  crmedia::ChunkIndex index = Mpeg1Index(Seconds(2));
  crufs::InodeNumber inode = PreallocatedFile(bed, "capture", index.total_bytes());
  auto movie = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(2));
  ASSERT_TRUE(movie.ok());
  crbase::Status on_read_session;
  crbase::Status out_of_range;
  crsim::Task t = bed.kernel.Spawn(
      "val", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        OpenParams write_params;
        write_params.inode = inode;
        write_params.index = index;
        write_params.kind = SessionKind::kWrite;
        auto write_session = co_await bed.cras_server.Open(std::move(write_params));
        CRAS_CHECK(write_session.ok());
        out_of_range = bed.cras_server.PutChunk(*write_session, 1 << 20);

        OpenParams read_params;
        read_params.inode = movie->inode;
        read_params.index = movie->index;
        auto read_session = co_await bed.cras_server.Open(std::move(read_params));
        CRAS_CHECK(read_session.ok());
        on_read_session = bed.cras_server.PutChunk(*read_session, 0);
      });
  bed.engine().RunFor(Seconds(1));
  EXPECT_EQ(out_of_range.code(), crbase::StatusCode::kOutOfRange);
  EXPECT_EQ(on_read_session.code(), crbase::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cras
