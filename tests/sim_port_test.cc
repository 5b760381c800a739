#include "src/sim/port.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/sim/task.h"

namespace crsim {
namespace {

using crbase::Milliseconds;

TEST(Port, TryReceiveOnEmptyFails) {
  Engine e;
  Port<int> port(e);
  int out = 0;
  EXPECT_FALSE(port.TryReceive(&out));
}

TEST(Port, SendThenTryReceiveIsFifo) {
  Engine e;
  Port<int> port(e);
  port.Send(1);
  port.Send(2);
  port.Send(3);
  EXPECT_EQ(port.size(), 3u);
  int out = 0;
  EXPECT_TRUE(port.TryReceive(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(port.TryReceive(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(port.TryReceive(&out));
  EXPECT_EQ(out, 3);
  EXPECT_TRUE(port.empty());
}

Task Receiver(Port<int>& port, std::vector<int>* out, int count) {
  for (int i = 0; i < count; ++i) {
    const int v = co_await port.Receive();
    out->push_back(v);
  }
}

TEST(Port, ReceiveOnNonEmptyDoesNotSuspend) {
  Engine e;
  Port<int> port(e);
  port.Send(7);
  std::vector<int> got;
  Task t = Receiver(port, &got, 1);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(got, std::vector<int>{7});
}

TEST(Port, BlockedReceiverWokenBySend) {
  Engine e;
  Port<int> port(e);
  std::vector<int> got;
  Task t = Receiver(port, &got, 2);
  EXPECT_FALSE(t.done());
  e.ScheduleAt(Milliseconds(10), [&] { port.Send(1); });
  e.ScheduleAt(Milliseconds(20), [&] { port.Send(2); });
  e.Run();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Port, MultipleWaitersServedFifo) {
  Engine e;
  Port<std::string> port(e);
  std::vector<std::string> log;
  // Coroutine parameters must be taken by value: a reference parameter would
  // dangle once the caller's temporary dies at the first suspension point.
  auto waiter = [](Port<std::string>& p, std::vector<std::string>* out, std::string tag) -> Task {
    const std::string v = co_await p.Receive();
    out->push_back(tag + ":" + v);
  };
  Task a = waiter(port, &log, "a");
  Task b = waiter(port, &log, "b");
  port.Send("x");
  port.Send("y");
  e.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a:x", "b:y"}));
}

TEST(Port, DirectHandoffBypassesQueue) {
  Engine e;
  Port<int> port(e);
  std::vector<int> got;
  Task t = Receiver(port, &got, 1);
  port.Send(5);
  EXPECT_EQ(port.size(), 0u);  // handed to the waiter, never queued
  e.Run();
  EXPECT_EQ(got, std::vector<int>{5});
}

}  // namespace
}  // namespace crsim
