// Priority-inversion tests: the classic three-thread scenario with and
// without priority inheritance.

#include "src/rtmach/mutex.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/time_units.h"

namespace crrt {
namespace {

using crbase::Milliseconds;
using crbase::Time;

TEST(Mutex, BasicLockUnlock) {
  Kernel kernel;
  Mutex mutex(kernel, Mutex::Protocol::kNone);
  std::vector<int> order;
  auto worker = [&](int id, int priority) {
    return kernel.Spawn("w" + std::to_string(id), priority,
                        [&, id](ThreadContext& ctx) -> crsim::Task {
                          co_await mutex.Lock(ctx);
                          co_await ctx.Sleep(Milliseconds(10));
                          order.push_back(id);
                          mutex.Unlock();
                        });
  };
  crsim::Task a = worker(1, 5);
  crsim::Task b = worker(2, 5);
  kernel.engine().Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(mutex.locked());
}

TEST(Mutex, HighestPriorityWaiterAcquiresFirst) {
  Kernel kernel;
  Mutex mutex(kernel, Mutex::Protocol::kNone);
  std::vector<int> order;
  crsim::Task holder = kernel.Spawn("holder", 5, [&](ThreadContext& ctx) -> crsim::Task {
    co_await mutex.Lock(ctx);
    co_await ctx.Sleep(Milliseconds(20));
    mutex.Unlock();
  });
  auto waiter = [&](int id, int priority) {
    return kernel.Spawn("waiter" + std::to_string(id), priority,
                        [&, id](ThreadContext& ctx) -> crsim::Task {
                          co_await ctx.Sleep(Milliseconds(1));
                          co_await mutex.Lock(ctx);
                          order.push_back(id);
                          mutex.Unlock();
                        });
  };
  crsim::Task lo = waiter(1, 1);
  crsim::Task hi = waiter(2, 9);
  crsim::Task mid = waiter(3, 5);
  kernel.engine().Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

// The classic scenario: a low-priority thread takes the lock and needs
// 20 ms of CPU inside it; a medium-priority CPU hog runs for 200 ms; a
// high-priority thread arrives and blocks on the lock.
//
// Without inheritance the holder only gets the CPU after the hog finishes:
// the high thread waits ~220 ms (unbounded inversion). With inheritance the
// holder computes at the waiter's priority, preempts the hog, and the high
// thread gets the lock after ~the critical section.
Time MeasureInversion(Mutex::Protocol protocol) {
  Kernel kernel;
  Mutex mutex(kernel, protocol);
  Time high_acquired = -1;

  crsim::Task low = kernel.Spawn("low", 1, [&](ThreadContext& ctx) -> crsim::Task {
    co_await mutex.Lock(ctx);
    co_await mutex.LockedCompute(Milliseconds(20));
    mutex.Unlock();
  });
  crsim::Task medium = kernel.Spawn("medium", 5, [&](ThreadContext& ctx) -> crsim::Task {
    co_await ctx.Sleep(Milliseconds(1));
    co_await ctx.Compute(Milliseconds(200));
  });
  crsim::Task high = kernel.Spawn("high", 9, [&](ThreadContext& ctx) -> crsim::Task {
    co_await ctx.Sleep(Milliseconds(2));
    co_await mutex.Lock(ctx);
    high_acquired = ctx.Now();
    mutex.Unlock();
  });
  kernel.engine().Run();
  CRAS_CHECK(high_acquired >= 0);
  return high_acquired;
}

TEST(Mutex, UnboundedInversionWithoutInheritance) {
  const Time acquired = MeasureInversion(Mutex::Protocol::kNone);
  // The hog's full 200 ms sits in front of the holder's critical section.
  EXPECT_GT(acquired, Milliseconds(200));
}

TEST(Mutex, InheritanceBoundsTheInversion) {
  const Time acquired = MeasureInversion(Mutex::Protocol::kPriorityInheritance);
  // Bounded by the critical section, not by the hog.
  EXPECT_LT(acquired, Milliseconds(25));
}

TEST(Mutex, EffectivePriorityTracksWaiters) {
  Kernel kernel;
  Mutex mutex(kernel, Mutex::Protocol::kPriorityInheritance);
  bool release = false;
  crsim::Task low = kernel.Spawn("low", 1, [&](ThreadContext& ctx) -> crsim::Task {
    co_await mutex.Lock(ctx);
    while (!release) {
      co_await ctx.Sleep(Milliseconds(1));
    }
    mutex.Unlock();
  });
  EXPECT_EQ(mutex.EffectivePriority(), 1);
  crsim::Task high = kernel.Spawn("high", 9, [&](ThreadContext& ctx) -> crsim::Task {
    co_await mutex.Lock(ctx);
    mutex.Unlock();
  });
  kernel.engine().RunFor(Milliseconds(5));
  EXPECT_EQ(mutex.waiters(), 1u);
  EXPECT_EQ(mutex.EffectivePriority(), 9);  // inherited
  release = true;
  kernel.engine().RunFor(Milliseconds(5));
  EXPECT_FALSE(mutex.locked());
}

TEST(Mutex, NoInheritanceKeepsHolderPriority) {
  Kernel kernel;
  Mutex mutex(kernel, Mutex::Protocol::kNone);
  bool release = false;
  crsim::Task low = kernel.Spawn("low", 1, [&](ThreadContext& ctx) -> crsim::Task {
    co_await mutex.Lock(ctx);
    while (!release) {
      co_await ctx.Sleep(Milliseconds(1));
    }
    mutex.Unlock();
  });
  crsim::Task high = kernel.Spawn("high", 9, [&](ThreadContext& ctx) -> crsim::Task {
    co_await mutex.Lock(ctx);
    mutex.Unlock();
  });
  kernel.engine().RunFor(Milliseconds(5));
  EXPECT_EQ(mutex.EffectivePriority(), 1);  // no boost
  release = true;
  kernel.engine().RunFor(Milliseconds(5));
}

// Bumps a counter when the coroutine frame holding it is destroyed.
struct FrameGuard {
  int* destroyed;
  ~FrameGuard() { ++*destroyed; }
};

TEST(Mutex, TeardownReclaimsWaiterHandedTheLock) {
  int destroyed = 0;
  bool acquired = false;
  {
    Kernel kernel;
    Mutex mutex(kernel, Mutex::Protocol::kNone);
    crsim::Task holder = kernel.Spawn("holder", 5, [&](ThreadContext& ctx) -> crsim::Task {
      co_await mutex.Lock(ctx);
      co_await ctx.Sleep(Milliseconds(10));
      mutex.Unlock();
      // Stop with the waiter's handoff wakeup still queued.
      ctx.kernel().engine().Stop();
    });
    crsim::Task waiter = kernel.Spawn("waiter", 5, [&](ThreadContext& ctx) -> crsim::Task {
      FrameGuard guard{&destroyed};
      co_await mutex.Lock(ctx);
      acquired = true;
      mutex.Unlock();
    });
    kernel.engine().Run();
    EXPECT_FALSE(acquired);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

}  // namespace
}  // namespace crrt
