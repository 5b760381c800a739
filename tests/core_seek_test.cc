// Mid-playback crs_seek behaviour: forward, backward, and edge positions.

#include <gtest/gtest.h>

#include "src/core/cras.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

struct SeekRig {
  VolumeTestbed bed;
  crmedia::MediaFile file;
  SessionId id = kInvalidSession;

  SeekRig() {
    bed.StartServers();
    file = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(60));
  }

  void Run(std::function<crsim::Task(crrt::ThreadContext&, SeekRig&)> fn,
           crbase::Duration run_for) {
    crsim::Task t = bed.kernel.Spawn(
        "seek-client", crrt::kPriorityClient,
        [this, fn](crrt::ThreadContext& ctx) -> crsim::Task {
          OpenParams params;
          params.inode = file.inode;
          params.index = file.index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok());
          id = *opened;
          (void)co_await bed.cras_server.StartStream(
              id, bed.cras_server.SuggestedInitialDelay());
          co_await fn(ctx, *this);
        });
    bed.engine().RunFor(run_for);
  }

  // Polls crs_get at the session's logical now for up to `budget`.
  crsim::Task WaitForFrame(crrt::ThreadContext& ctx, crbase::Duration budget, bool* got,
                           crbase::Time* at_logical) {
    const crbase::Time give_up = ctx.Now() + budget;
    *got = false;
    while (ctx.Now() < give_up) {
      const crbase::Time logical = bed.cras_server.LogicalNow(id);
      if (logical >= 0 && bed.cras_server.Get(id, logical).has_value()) {
        *got = true;
        *at_logical = logical;
        co_return;
      }
      co_await ctx.Sleep(Milliseconds(5));
    }
  }
};

TEST(CrasSeek, ForwardSeekResumesAtNewPosition) {
  SeekRig rig;
  bool got = false;
  crbase::Time at_logical = 0;
  rig.Run(
      [&](crrt::ThreadContext& ctx, SeekRig& r) -> crsim::Task {
        co_await ctx.Sleep(Seconds(3));  // play a while
        CRAS_CHECK_OK(co_await r.bed.cras_server.Seek(r.id, Seconds(40)));
        // Seek repositions the clock and flushes the buffer; data for the
        // new position arrives within the usual pipeline depth.
        co_await r.WaitForFrame(ctx, Seconds(2), &got, &at_logical);
      },
      Seconds(8));
  EXPECT_TRUE(got);
  EXPECT_GE(at_logical, Seconds(40));
  EXPECT_LT(at_logical, Seconds(43));
}

TEST(CrasSeek, BackwardSeekReplays) {
  SeekRig rig;
  bool got = false;
  crbase::Time at_logical = 0;
  rig.Run(
      [&](crrt::ThreadContext& ctx, SeekRig& r) -> crsim::Task {
        co_await ctx.Sleep(Seconds(5));  // logical ~4 s
        CRAS_CHECK_OK(co_await r.bed.cras_server.Seek(r.id, Seconds(1)));
        co_await r.WaitForFrame(ctx, Seconds(2), &got, &at_logical);
      },
      Seconds(10));
  EXPECT_TRUE(got);
  EXPECT_GE(at_logical, Seconds(1));
  EXPECT_LT(at_logical, Seconds(4));
}

TEST(CrasSeek, SeekToNegativeClampsToStart) {
  SeekRig rig;
  crbase::Status status;
  rig.Run(
      [&](crrt::ThreadContext&, SeekRig& r) -> crsim::Task {
        status = co_await r.bed.cras_server.Seek(r.id, -Seconds(5));
      },
      Seconds(1));
  // Clamped to the first chunk; the call itself succeeds.
  EXPECT_TRUE(status.ok());
}

TEST(CrasSeek, RepeatedSeeksDontLeakBufferSpace) {
  SeekRig rig;
  rig.Run(
      [&](crrt::ThreadContext& ctx, SeekRig& r) -> crsim::Task {
        crbase::Rng rng(7);
        for (int i = 0; i < 10; ++i) {
          co_await ctx.Sleep(Milliseconds(700));
          const crbase::Time target =
              static_cast<crbase::Time>(rng.NextBelow(50)) * Seconds(1);
          CRAS_CHECK_OK(co_await r.bed.cras_server.Seek(r.id, target));
        }
      },
      Seconds(12));
  const TimeDrivenBufferStats* stats = rig.bed.cras_server.GetBufferStats(rig.id);
  ASSERT_NE(stats, nullptr);
  // The buffer never exceeded its reservation despite the churn.
  EXPECT_LE(stats->max_resident_bytes, rig.bed.cras_server.buffer_bytes_reserved());
  EXPECT_EQ(rig.bed.cras_server.stats().deadline_misses, 0);
}

}  // namespace
}  // namespace cras
