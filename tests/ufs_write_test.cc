// Unix-server write-path tests (the editing workloads of §3.2).

#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"
#include "src/ufs/unix_server.h"

namespace crufs {
namespace {

using crbase::kKiB;
using crbase::Milliseconds;
using crbase::Seconds;

TEST(UnixServerWrite, WriteWithinFileIssuesDiskWrites) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  InodeNumber n = *bed.fs.Create("doc");
  ASSERT_TRUE(bed.fs.Append(n, 256 * kKiB).ok());
  crbase::Status result = crbase::InternalError("not run");
  crsim::Task t = bed.kernel.Spawn(
      "writer", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        result = co_await bed.unix_server.Write(n, 0, 64 * kKiB);
      });
  bed.engine().RunFor(Seconds(1));
  ASSERT_TRUE(result.ok()) << result.ToString();
  // 64 KiB contiguous = one clustered disk write.
  EXPECT_EQ(bed.unix_server.stats().disk_writes, 1);
  EXPECT_EQ(bed.unix_server.stats().blocks_to_disk, 8);
}

TEST(UnixServerWrite, WriteExtendsFile) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  InodeNumber n = *bed.fs.Create("doc");
  ASSERT_TRUE(bed.fs.Append(n, 8 * kKiB).ok());
  crbase::Status result;
  crsim::Task t = bed.kernel.Spawn(
      "writer", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        // Append 40 KiB past EOF.
        result = co_await bed.unix_server.Write(n, 8 * kKiB, 40 * kKiB);
      });
  bed.engine().RunFor(Seconds(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(bed.fs.inode(n).size_bytes, 48 * kKiB);
}

TEST(UnixServerWrite, WrittenBlocksAreCached) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  InodeNumber n = *bed.fs.Create("doc");
  ASSERT_TRUE(bed.fs.Append(n, 64 * kKiB).ok());
  crsim::Task t = bed.kernel.Spawn(
      "rw", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        (void)co_await bed.unix_server.Write(n, 0, 64 * kKiB);
        (void)co_await bed.unix_server.Read(n, 0, 64 * kKiB);
      });
  bed.engine().RunFor(Seconds(1));
  // The read after the write is served entirely from cache.
  EXPECT_EQ(bed.unix_server.stats().disk_reads, 0);
  EXPECT_GT(bed.unix_server.cache().hits(), 0);
}

TEST(UnixServerWrite, ZeroLengthWriteSucceeds) {
  cras::VolumeTestbed bed;
  bed.StartServers();
  InodeNumber n = *bed.fs.Create("doc");
  ASSERT_TRUE(bed.fs.Append(n, 8 * kKiB).ok());
  crbase::Status result = crbase::InternalError("not run");
  crsim::Task t = bed.kernel.Spawn(
      "writer", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        result = co_await bed.unix_server.Write(n, 0, 0);
      });
  bed.engine().RunFor(Seconds(1));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(bed.unix_server.stats().disk_writes, 0);
}

TEST(UnixServerWrite, EditorAndCrasCoexist) {
  // The paper's deployment story: the Unix file system handles editing
  // while CRAS plays back — same disk, same layout, different queues. An
  // editor rewriting a document must not disturb an active stream.
  cras::VolumeTestbed bed;
  bed.StartServers();
  auto movie = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(10));
  ASSERT_TRUE(movie.ok());
  InodeNumber doc = *bed.fs.Create("edit_target");
  ASSERT_TRUE(bed.fs.Append(doc, 4 * crbase::kMiB).ok());

  crsim::Task editor = bed.kernel.Spawn(
      "editor", crrt::kPriorityTimesharing, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        crbase::Rng rng(5);
        for (;;) {
          const std::int64_t offset =
              static_cast<std::int64_t>(rng.NextBelow(3 * 1024)) * kKiB;
          (void)co_await bed.unix_server.Write(doc, offset, 64 * kKiB);
          co_await ctx.Sleep(Milliseconds(40));
        }
      });

  cras::PlayerStats stats;
  cras::PlayerOptions options;
  options.play_length = Seconds(8);
  crsim::Task player =
      cras::SpawnCrasPlayer(bed.kernel, bed.cras_server, *movie, options, &stats);
  bed.engine().RunFor(Seconds(12));

  EXPECT_GT(bed.unix_server.stats().disk_writes, 50);  // the editor was busy
  EXPECT_EQ(stats.frames_missed, 0);
  EXPECT_LE(stats.max_delay(), Milliseconds(2));
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

}  // namespace
}  // namespace crufs
