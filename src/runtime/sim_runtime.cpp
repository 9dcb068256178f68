#include "runtime/sim_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace predis::runtime {

NodeId SimRuntime::add_node(const NodeConfig& config) {
  if (config.region >= latency_.regions()) {
    throw std::invalid_argument("SimRuntime::add_node: unknown region");
  }
  if (config.up_bw <= 0 || config.down_bw <= 0) {
    throw std::invalid_argument("SimRuntime::add_node: non-positive bandwidth");
  }
  nodes_.push_back(Node{config, nullptr, false, 0, 0, {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

TimerHandle SimRuntime::schedule(NodeId /*owner*/, SimTime delay,
                                 std::function<void()> fn) {
  if (delay < 0) {
    throw std::invalid_argument("SimRuntime::schedule: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

TimerHandle SimRuntime::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) {
    throw std::invalid_argument("SimRuntime::schedule_at: time in the past");
  }
  auto alive = std::make_shared<std::atomic<bool>>(true);
  queue_.push_back(Event{t, next_seq_++, std::move(fn), alive});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return TimerHandle{std::move(alive)};
}

void SimRuntime::send(NodeId from, NodeId to, MsgPtr msg) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw std::out_of_range("SimRuntime::send: unknown node");
  }
  Node& src = nodes_[from];
  Node& dst = nodes_[to];
  if (src.down) {
    ++src.stats.messages_dropped;
    return;
  }

  const std::size_t size = msg->wire_size() + kTransportOverhead;

  if (dst.down || (drop_filter_ && drop_filter_(from, to, *msg))) {
    ++src.stats.messages_dropped;
    return;
  }

  // Sender uplink serialization (FIFO).
  const SimTime t0 = std::max(now_, src.uplink_busy);
  const auto tx_time = static_cast<SimTime>(
      std::llround(static_cast<double>(size) / src.config.up_bw * 1e9));
  const SimTime t1 = t0 + tx_time;
  src.uplink_busy = t1;
  src.stats.bytes_sent += size;
  ++src.stats.messages_sent;

  SimTime lat = latency_.at(src.config.region, dst.config.region);
  if (extra_delay_) lat += extra_delay_(from, to);

  // Receiver downlink: cut-through — cannot complete before the last
  // byte arrives, and queues behind other inbound flows.
  const auto rx_time = static_cast<SimTime>(
      std::llround(static_cast<double>(size) / dst.config.down_bw * 1e9));
  const SimTime first_byte_at = t0 + lat;
  const SimTime rx_start = std::max(first_byte_at, dst.downlink_busy);
  const SimTime done = std::max(t1 + lat, rx_start + rx_time);
  dst.downlink_busy = done;
  schedule_at(done, [this, from, to, msg = std::move(msg), size]() {
    deliver(from, to, size, msg);
  });
}

void SimRuntime::deliver(NodeId from, NodeId to, std::size_t size,
                         const MsgPtr& msg) {
  Node& dst = nodes_[to];
  if (dst.down || dst.actor == nullptr) return;
  dst.stats.bytes_received += size;
  ++dst.stats.messages_received;
  if (tracer_ != nullptr) {
    tracer_->record_delivery(now_, from, to, size, msg->name());
  }
  dst.actor->on_message(from, msg);
}

void SimRuntime::multicast(NodeId from, const std::vector<NodeId>& to,
                           const MsgPtr& msg) {
  for (NodeId dest : to) {
    if (dest == from) continue;
    send(from, dest, msg);
  }
}

void SimRuntime::start() {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    Actor* actor = nodes_[id].actor;
    if (actor != nullptr && !nodes_[id].down) actor->on_start();
  }
}

std::size_t SimRuntime::drain(SimTime limit) {
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

void SimRuntime::run_until(SimTime limit) {
  drain(limit);
  if (now_ < limit) now_ = limit;
}

std::size_t SimRuntime::run() {
  return drain(std::numeric_limits<SimTime>::max());
}

void SimRuntime::set_node_down(NodeId id, bool down) {
  Node& node = nodes_.at(id);
  const bool restarting = node.down && !down;
  node.down = down;
  // After the flag flips, so the hook can send.
  if (restarting && node.actor != nullptr) node.actor->on_restart();
}

void SimRuntime::notify_reconnect(NodeId id) {
  const Node& node = nodes_.at(id);
  if (!node.down && node.actor != nullptr) node.actor->on_restart();
}

std::uint64_t SimRuntime::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node.stats.bytes_sent;
  return total;
}

}  // namespace predis::runtime
