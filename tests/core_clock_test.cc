#include "src/core/logical_clock.h"

#include <gtest/gtest.h>

#include "src/base/time_units.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

TEST(LogicalClock, StoppedAtZeroInitially) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  EXPECT_FALSE(clock.running());
  EXPECT_EQ(clock.Now(), 0);
  engine.ScheduleAt(Seconds(5), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), 0);  // stopped clocks do not advance
}

TEST(LogicalClock, AdvancesWithRealTimeWhenRunning) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(3), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(3));
}

TEST(LogicalClock, InitialDelayStartsNegative) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start(Seconds(1));
  EXPECT_EQ(clock.Now(), -Seconds(1));
  engine.ScheduleAt(Milliseconds(400), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), -Milliseconds(600));
  engine.ScheduleAt(Seconds(1), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), 0);  // logical zero exactly after the delay
}

TEST(LogicalClock, StopFreezesAndResumesFromSameValue) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(2), [] {});
  engine.Run();
  clock.Stop();
  engine.ScheduleAt(Seconds(10), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(2));
  clock.Start();
  EXPECT_EQ(clock.Now(), Seconds(2));  // resumes where it froze
  engine.ScheduleAt(Seconds(11), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(3));
}

TEST(LogicalClock, StartWhileRunningBacksOffFromItsReading) {
  // A second Start on a playing clock backs off from where the clock is,
  // not from where it last started.
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(2), [] {});
  engine.Run();
  ASSERT_EQ(clock.Now(), Seconds(2));
  clock.Start(Milliseconds(100));
  EXPECT_EQ(clock.Now(), Seconds(2) - Milliseconds(100));
  engine.ScheduleAt(Seconds(3), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(3) - Milliseconds(100));
}

TEST(LogicalClock, SeekRepositions) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(1), [] {});
  engine.Run();
  clock.SeekTo(Seconds(42));
  EXPECT_EQ(clock.Now(), Seconds(42));
  engine.ScheduleAt(Seconds(2), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(43));
}

TEST(LogicalClock, RateScalesAdvance) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.SetRate(2.0);  // the paper's fast-forward example
  clock.Start();
  engine.ScheduleAt(Seconds(3), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(6));
}

TEST(LogicalClock, RateChangeMidFlightKeepsReading) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(2), [] {});
  engine.Run();
  clock.SetRate(0.5);
  EXPECT_EQ(clock.Now(), Seconds(2));
  engine.ScheduleAt(Seconds(4), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(3));
}

TEST(LogicalClock, InitialDelayScalesWithRate) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.SetRate(2.0);
  clock.Start(Seconds(1));
  // After 1 s of real time the clock must read zero regardless of rate.
  engine.ScheduleAt(Seconds(1), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), 0);
}

}  // namespace
}  // namespace cras
