// The event queue of the deterministic backend: (time, insertion
// order) firing, cancellation and the clock.
#include "runtime/sim_runtime.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace predis::runtime {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  SimRuntime sim{LatencyMatrix::uniform(1, 0)};
  std::vector<int> order;
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TieBreaksByInsertionOrder) {
  SimRuntime sim{LatencyMatrix::uniform(1, 0)};
  std::vector<int> order;
  sim.schedule_at(milliseconds(5), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(5), [&] { order.push_back(2); });
  sim.schedule_at(milliseconds(5), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NowAdvancesToEventTime) {
  SimRuntime sim{LatencyMatrix::uniform(1, 0)};
  SimTime seen = -1;
  sim.schedule_after(milliseconds(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, milliseconds(7));
}

TEST(Simulator, RunUntilStopsAtLimit) {
  SimRuntime sim{LatencyMatrix::uniform(1, 0)};
  int fired = 0;
  sim.schedule_at(milliseconds(10), [&] { ++fired; });
  sim.schedule_at(milliseconds(20), [&] { ++fired; });
  sim.run_until(milliseconds(15));
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(15));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  SimRuntime sim{LatencyMatrix::uniform(1, 0)};
  bool fired = false;
  TimerHandle h = sim.schedule_after(milliseconds(5), [&] { fired = true; });
  EXPECT_TRUE(h.scheduled());
  h.cancel();
  EXPECT_FALSE(h.scheduled());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  SimRuntime sim{LatencyMatrix::uniform(1, 0)};
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_after(milliseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulator, SchedulingInPastThrows) {
  SimRuntime sim{LatencyMatrix::uniform(1, 0)};
  sim.schedule_at(milliseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(milliseconds(5), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, CountsExecutedEvents) {
  SimRuntime sim{LatencyMatrix::uniform(1, 0)};
  for (int i = 0; i < 4; ++i) sim.schedule_after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 4u);
}

}  // namespace
}  // namespace predis::runtime
