// Mid-session rate changes (crs_set_rate): fast-forward with re-admission.

#include <gtest/gtest.h>

#include <vector>

#include "src/base/bytes.h"
#include "src/core/cras.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

struct RateRig {
  VolumeTestbed bed;
  crmedia::MediaFile file;
  SessionId id = kInvalidSession;

  RateRig() {
    bed.StartServers();
    file = *crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(30));
  }

  // Opens+starts the session and runs `fn` in a client thread.
  void Run(std::function<crsim::Task(crrt::ThreadContext&, RateRig&)> fn,
           crbase::Duration run_for = Seconds(10)) {
    crsim::Task t = bed.kernel.Spawn(
        "client", crrt::kPriorityClient, [this, fn](crrt::ThreadContext& ctx) -> crsim::Task {
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
};

TEST(SetRate, FastForwardDoublesClockAndRetrieval) {
  RateRig rig;
  crbase::Time logical_before = 0;
  crbase::Time logical_mid = 0;
  std::int64_t bytes_at_switch = 0;
  rig.Run([&](crrt::ThreadContext& ctx, RateRig& r) -> crsim::Task {
    co_await ctx.Sleep(Seconds(3));
    logical_before = r.bed.cras_server.LogicalNow(r.id);
    bytes_at_switch = r.bed.cras_server.stats().bytes_read;
    crbase::Status st = co_await r.bed.cras_server.SetRate(r.id, 2.0);
    CRAS_CHECK_OK(st);
    co_await ctx.Sleep(Seconds(3));
    logical_mid = r.bed.cras_server.LogicalNow(r.id);
  });
  // 3 s of wall time at 2x advanced the clock ~6 s.
  EXPECT_NEAR(crbase::ToSeconds(logical_mid - logical_before), 6.0, 0.1);
  // Retrieval kept pace with the doubled rate (~2x 187.5 KB/s for 3+ s).
  EXPECT_GT(rig.bed.cras_server.stats().bytes_read - bytes_at_switch,
            static_cast<std::int64_t>(2 * 187500 * 2.5));
}

TEST(SetRate, SlowMotionReducesRetrieval) {
  RateRig rig;
  std::int64_t bytes_in_window = 0;
  rig.Run([&](crrt::ThreadContext& ctx, RateRig& r) -> crsim::Task {
    co_await ctx.Sleep(Seconds(3));
    crbase::Status st = co_await r.bed.cras_server.SetRate(r.id, 0.5);
    CRAS_CHECK_OK(st);
    const std::int64_t at_switch = r.bed.cras_server.stats().bytes_read;
    co_await ctx.Sleep(Seconds(4));
    bytes_in_window = r.bed.cras_server.stats().bytes_read - at_switch;
  });
  // Half-rate retrieval over exactly 4 s: ~375 KB plus block-alignment
  // overhead; well under the ~750 KB a full-rate window would read.
  EXPECT_LT(bytes_in_window, static_cast<std::int64_t>(187500 * 3.0));
  EXPECT_GT(bytes_in_window, static_cast<std::int64_t>(187500 * 1.2));
}

TEST(SetRate, SpeedUpRefusedWhenDiskIsFull) {
  // Fill the disk's admission capacity, then ask one session for 4x.
  VolumeTestbed bed;
  bed.StartServers();
  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < 14; ++i) {
    files.push_back(*crmedia::WriteMpeg1File(bed.fs, "m" + std::to_string(i), Seconds(5)));
  }
  crbase::Status rate_status = crbase::InternalError("not run");
  crsim::Task t = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        SessionId first = kInvalidSession;
        for (const auto& file : files) {
          OpenParams params;
          params.inode = file.inode;
          params.index = file.index;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok());
          if (first == kInvalidSession) {
            first = *opened;
          }
        }
        rate_status = co_await bed.cras_server.SetRate(first, 4.0);
      });
  bed.engine().RunFor(Seconds(2));
  EXPECT_EQ(rate_status.code(), crbase::StatusCode::kResourceExhausted);
}

TEST(SetRate, GrowsBufferReservation) {
  RateRig rig;
  std::int64_t reserved_before = 0;
  std::int64_t reserved_after = 0;
  rig.Run([&](crrt::ThreadContext& ctx, RateRig& r) -> crsim::Task {
    co_await ctx.Sleep(Seconds(2));
    reserved_before = r.bed.cras_server.buffer_bytes_reserved();
    (void)co_await r.bed.cras_server.SetRate(r.id, 2.0);
    reserved_after = r.bed.cras_server.buffer_bytes_reserved();
  });
  EXPECT_GT(reserved_after, reserved_before);
}

TEST(SetRate, SlowDownNeverWiresPastTheMemoryBudget) {
  // Room for one 2x MPEG1 buffer (387,500 B), not for it plus a 1x one
  // (200,000 B). Slowing the first stream to 1x keeps its larger buffer
  // wired, so a second 1x stream must be refused on memory.
  VolumeTestbedOptions options;
  options.cras.memory_budget_bytes = 400000;
  VolumeTestbed bed(options);
  bed.StartServers();
  const crmedia::MediaFile a = *crmedia::WriteMpeg1File(bed.fs, "a", Seconds(10));
  const crmedia::MediaFile b = *crmedia::WriteMpeg1File(bed.fs, "b", Seconds(10));
  std::vector<std::int64_t> reserved;
  crbase::Status slow_status = crbase::InternalError("not run");
  crbase::Status second_status = crbase::InternalError("not run");
  crsim::Task t = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        OpenParams fast;
        fast.inode = a.inode;
        fast.index = a.index;
        fast.rate_factor = 2.0;
        auto first = co_await bed.cras_server.Open(std::move(fast));
        CRAS_CHECK(first.ok());
        reserved.push_back(bed.cras_server.buffer_bytes_reserved());
        slow_status = co_await bed.cras_server.SetRate(*first, 1.0);
        reserved.push_back(bed.cras_server.buffer_bytes_reserved());
        OpenParams plain;
        plain.inode = b.inode;
        plain.index = b.index;
        second_status = (co_await bed.cras_server.Open(std::move(plain))).status();
        reserved.push_back(bed.cras_server.buffer_bytes_reserved());
      });
  bed.engine().RunFor(Seconds(1));
  EXPECT_TRUE(slow_status.ok()) << slow_status.ToString();
  EXPECT_EQ(second_status.code(), crbase::StatusCode::kResourceExhausted);
  ASSERT_EQ(reserved.size(), 3u);
  EXPECT_EQ(reserved[0], 387500);
  for (const std::int64_t bytes : reserved) {
    EXPECT_LE(bytes, options.cras.memory_budget_bytes);
  }
  EXPECT_EQ(bed.kernel.wired_bytes(), 250 * 1024 + reserved.back());
}

TEST(SetRate, SpeedUpKeepsBufferStatistics) {
  // The buffer grows in place across a speed-up: resident chunks and the
  // running counters carry over instead of starting again from zero.
  RateRig rig;
  TimeDrivenBufferStats before;
  TimeDrivenBufferStats after;
  rig.Run([&](crrt::ThreadContext& ctx, RateRig& r) -> crsim::Task {
    co_await ctx.Sleep(r.bed.cras_server.SuggestedInitialDelay() + Seconds(2));
    for (int i = 0; i < 10; ++i) {
      (void)r.bed.cras_server.Get(r.id, r.bed.cras_server.LogicalNow(r.id));
      co_await ctx.Sleep(Milliseconds(33));
    }
    before = *r.bed.cras_server.GetBufferStats(r.id);
    CRAS_CHECK_OK(co_await r.bed.cras_server.SetRate(r.id, 2.0));
    after = *r.bed.cras_server.GetBufferStats(r.id);
  });
  EXPECT_GT(before.puts, 0);
  EXPECT_GE(before.get_hits, 10);
  EXPECT_GE(after.puts, before.puts);
  EXPECT_GE(after.get_hits, before.get_hits);
  EXPECT_GE(after.get_misses, before.get_misses);
  EXPECT_GE(after.discarded_obsolete, before.discarded_obsolete);
  EXPECT_GE(after.overflow_evictions, before.overflow_evictions);
  EXPECT_GE(after.rejected_late, before.rejected_late);
  EXPECT_GE(after.replaced, before.replaced);
  EXPECT_GE(after.max_resident_bytes, before.max_resident_bytes);
}

TEST(SetRate, Validation) {
  RateRig rig;
  crbase::Status bad_rate;
  crbase::Status bad_session;
  rig.Run([&](crrt::ThreadContext&, RateRig& r) -> crsim::Task {
    bad_rate = co_await r.bed.cras_server.SetRate(r.id, -1.0);
    bad_session = co_await r.bed.cras_server.SetRate(999, 2.0);
  });
  EXPECT_EQ(bad_rate.code(), crbase::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_session.code(), crbase::StatusCode::kNotFound);
}

TEST(SetRate, PlaybackStaysCleanAcrossTheSwitch) {
  // A player that switches to 2x mid-stream and keeps fetching by logical
  // time must see no gaps: data follows the accelerated clock.
  RateRig rig;
  std::int64_t hits = 0;
  std::int64_t transient_misses = 0;  // during pipeline re-priming after the switch
  std::int64_t late_misses = 0;       // after the pipeline should have recovered
  rig.Run(
      [&](crrt::ThreadContext& ctx, RateRig& r) -> crsim::Task {
        co_await ctx.Sleep(r.bed.cras_server.SuggestedInitialDelay() + Milliseconds(50));
        bool switched = false;
        for (int tick = 0; tick < 200; ++tick) {
          co_await ctx.Sleep(Milliseconds(33));
          if (!switched && tick == 100) {
            CRAS_CHECK_OK(co_await r.bed.cras_server.SetRate(r.id, 2.0));
            switched = true;
          }
          const crbase::Time logical = r.bed.cras_server.LogicalNow(r.id);
          if (logical < 0) {
            continue;
          }
          if (r.bed.cras_server.Get(r.id, logical).has_value()) {
            ++hits;
          } else if (tick < 140) {
            ++transient_misses;
          } else {
            ++late_misses;
          }
        }
      },
      Seconds(14));
  // A speed-up may stall the pipeline briefly (the accelerated clock runs
  // ahead of in-flight windows) but must recover within ~2 intervals.
  EXPECT_LE(transient_misses, 40);
  EXPECT_EQ(late_misses, 0);
  EXPECT_GT(hits, 155);
}

}  // namespace
}  // namespace cras
