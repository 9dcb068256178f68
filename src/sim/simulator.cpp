#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace predis::sim {

TimerHandle Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  auto alive = std::make_shared<std::atomic<bool>>(true);
  queue_.push_back(Event{t, next_seq_++, std::move(fn), alive});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return TimerHandle{std::move(alive)};
}

TimerHandle Simulator::schedule_after(SimTime delay, std::function<void()> fn) {
  if (delay < 0) {
    throw std::invalid_argument("Simulator::schedule_after: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

std::size_t Simulator::drain(SimTime limit) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.front().time <= limit) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    now_ = ev.time;
    if (ev.alive->exchange(false, std::memory_order_relaxed)) {
      ev.fn();
      ++n;
      ++executed_;
    }
  }
  return n;
}

std::size_t Simulator::run_until(SimTime limit) {
  const std::size_t n = drain(limit);
  if (now_ < limit) now_ = limit;
  return n;
}

std::size_t Simulator::run() {
  return drain(std::numeric_limits<SimTime>::max());
}

}  // namespace predis::sim
