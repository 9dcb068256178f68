// Deterministic discrete-event scheduler.
//
// Events fire in (time, insertion-sequence) order, so two runs with the
// same seed produce byte-identical traces. All simulated components —
// the network, actors' timers, workload generators — schedule through
// this single queue.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "runtime/timer.hpp"

namespace predis::sim {

/// Timer handles are shared across backends (runtime/timer.hpp); the
/// simulator hands out the same cancellable handle ThreadRuntime does.
using TimerHandle = runtime::TimerHandle;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute simulated time `t` (>= now).
  TimerHandle schedule_at(SimTime t, std::function<void()> fn);

  /// Schedule `fn` after a relative delay (>= 0).
  TimerHandle schedule_after(SimTime delay, std::function<void()> fn);

  /// Run until the queue drains or `limit` is reached, whichever first.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime limit);

  /// Run until the queue drains completely.
  std::size_t run();

  /// Total events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  bool empty() const { return queue_.empty(); }

 private:
  /// The one event loop: fire events up to `limit` in (time, seq) order.
  std::size_t drain(SimTime limit);

  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<std::atomic<bool>> alive;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Binary heap under Later (std::push_heap/pop_heap), so the next
  /// event is moved out of the container instead of copied off top().
  std::vector<Event> queue_;
};

}  // namespace predis::sim
