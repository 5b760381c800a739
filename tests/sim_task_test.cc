#include "src/sim/task.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/time_units.h"
#include "src/sim/awaitables.h"
#include "src/sim/engine.h"

namespace crsim {
namespace {

using crbase::Milliseconds;

Task Nop(bool* ran) {
  *ran = true;
  co_return;
}

TEST(Task, RunsEagerlyToCompletion) {
  bool ran = false;
  Task t = Nop(&ran);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(t.done());
}

Task SleepTwice(Engine& e, std::vector<Time>* wakeups) {
  co_await Sleep(e, Milliseconds(10));
  wakeups->push_back(e.Now());
  co_await Sleep(e, Milliseconds(15));
  wakeups->push_back(e.Now());
}

TEST(Task, SleepSuspendsForVirtualTime) {
  Engine e;
  std::vector<Time> wakeups;
  Task t = SleepTwice(e, &wakeups);
  EXPECT_FALSE(t.done());
  EXPECT_TRUE(wakeups.empty());
  e.Run();
  EXPECT_TRUE(t.done());
  ASSERT_EQ(wakeups.size(), 2u);
  EXPECT_EQ(wakeups[0], Milliseconds(10));
  EXPECT_EQ(wakeups[1], Milliseconds(25));
}

TEST(Task, ZeroSleepDoesNotSuspend) {
  Engine e;
  std::vector<Time> wakeups;
  Task t = [](Engine& eng, std::vector<Time>* w) -> Task {
    co_await Sleep(eng, 0);
    w->push_back(eng.Now());
  }(e, &wakeups);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(wakeups.size(), 1u);
}

Task Child(Engine& e, int* state) {
  co_await Sleep(e, Milliseconds(5));
  *state = 1;
}

Task Parent(Engine& e, int* state, Time* joined_at) {
  Task child = Child(e, state);
  co_await child;
  *joined_at = e.Now();
}

TEST(Task, AwaitingTaskJoinsIt) {
  Engine e;
  int state = 0;
  Time joined_at = -1;
  Task p = Parent(e, &state, &joined_at);
  e.Run();
  EXPECT_EQ(state, 1);
  EXPECT_EQ(joined_at, Milliseconds(5));
  EXPECT_TRUE(p.done());
}

TEST(Task, AwaitingFinishedTaskCompletesImmediately) {
  Engine e;
  bool ran = false;
  Task finished = Nop(&ran);
  bool after = false;
  Task waiter = [](const Task& t, bool* done) -> Task {
    co_await t;
    *done = true;
  }(finished, &after);
  EXPECT_TRUE(after);
  EXPECT_TRUE(waiter.done());
}

TEST(Task, DetachedTaskKeepsRunning) {
  Engine e;
  std::vector<Time> wakeups;
  {
    Task t = SleepTwice(e, &wakeups);
    // t destroyed while suspended: the coroutine must continue detached.
  }
  e.Run();
  ASSERT_EQ(wakeups.size(), 2u);
  EXPECT_EQ(wakeups[1], Milliseconds(25));
}

TEST(Task, MoveTransfersOwnership) {
  Engine e;
  std::vector<Time> wakeups;
  Task a = SleepTwice(e, &wakeups);
  Task b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing moved-from state
  EXPECT_TRUE(b.valid());
  e.Run();
  EXPECT_TRUE(b.done());
}

}  // namespace
}  // namespace crsim
