// SimRuntime: the deterministic discrete-event backend.
//
// One class owns the whole simulated world:
//
//   * the node table — config, attached actor, down flag, link state
//     and traffic counters per node;
//   * the cut-through fluid link model of the paper's throughput
//     analysis (§III-F: uploading bandwidth x_i, delay ls). For a
//     message of S bytes from A to B,
//       first byte leaves A at  t0 = max(now, A.uplink_busy)
//       last  byte leaves A at  t1 = t0 + S / A.up_bw
//       first byte reaches B at t0 + lat(A,B)
//       delivery completes at   max(t1 + lat, max(t0 + lat, B.downlink_busy)
//                                              + S / B.down_bw)
//     With symmetric idle links this yields S/bw + latency (no double
//     serialization); concurrent inbound flows queue at the receiver's
//     downlink, concurrent outbound flows at the sender's uplink;
//   * the event heap. Events fire in (time, insertion-sequence) order,
//     so two runs with the same seed produce byte-identical delivery
//     traces. Message deliveries, actor timers and harness callbacks
//     all schedule through this one queue.
//
// Everything runs on the calling thread; timers' owner ids are
// irrelevant because every callback already serializes through the
// queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace predis::runtime {

class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(LatencyMatrix latency) : latency_(std::move(latency)) {}
  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  // --- Runtime ---------------------------------------------------------

  NodeId add_node(const NodeConfig& config) override;
  void attach(NodeId id, Actor* actor) override { nodes_.at(id).actor = actor; }
  std::size_t node_count() const override { return nodes_.size(); }
  std::uint32_t region_of(NodeId id) const override {
    return nodes_[id].config.region;
  }

  SimTime now() const override { return now_; }
  TimerHandle schedule(NodeId owner, SimTime delay,
                       std::function<void()> fn) override;

  void send(NodeId from, NodeId to, MsgPtr msg) override;
  void multicast(NodeId from, const std::vector<NodeId>& to,
                 const MsgPtr& msg) override;

  void start() override;
  /// Fire every event due at or before `limit`, then advance the clock
  /// to `limit`.
  void run_until(SimTime limit) override;

  void set_node_down(NodeId id, bool down) override;
  void notify_reconnect(NodeId id) override;
  bool is_down(NodeId id) const override { return nodes_[id].down; }

  void set_drop_filter(DropFilter filter) override {
    drop_filter_ = std::move(filter);
  }
  void set_extra_delay(DelayFn fn) override { extra_delay_ = std::move(fn); }
  void set_tracer(TraceHasher* tracer) override { tracer_ = tracer; }

  TrafficStats stats(NodeId id) const override { return nodes_[id].stats; }
  SimTime uplink_backlog(NodeId id) const override {
    return nodes_[id].uplink_busy > now_ ? nodes_[id].uplink_busy - now_ : 0;
  }
  std::uint64_t total_bytes_sent() const override;

  // --- Deterministic-backend extras ------------------------------------

  /// Schedule `fn` at absolute simulated time `t` (>= now).
  TimerHandle schedule_at(SimTime t, std::function<void()> fn);

  /// Run until the queue drains completely; returns events executed.
  std::size_t run();

  /// Total events executed so far (cancelled timers excluded).
  std::uint64_t events_executed() const { return executed_; }

  /// simbench/scenarios.cpp reaches the Runtime and the event counter
  /// through these two accessors and changes only with the benchmark,
  /// so they stay; both return the backend itself.
  Runtime& runtime() { return *this; }
  SimRuntime& simulator() { return *this; }

 private:
  struct Node {
    NodeConfig config;
    Actor* actor = nullptr;
    bool down = false;
    SimTime uplink_busy = 0;
    SimTime downlink_busy = 0;
    TrafficStats stats;
  };

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

  /// The one event loop: fire events up to `limit` in (time, seq) order.
  std::size_t drain(SimTime limit);

  /// Receiver-side half of a transfer, run when it completes.
  void deliver(NodeId from, NodeId to, std::size_t size, const MsgPtr& msg);

  LatencyMatrix latency_;
  std::vector<Node> nodes_;
  DropFilter drop_filter_;
  DelayFn extra_delay_;
  TraceHasher* tracer_ = nullptr;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Binary heap under Later (std::push_heap/pop_heap), so the next
  /// event is moved out of the container instead of copied off top().
  std::vector<Event> queue_;
};

}  // namespace predis::runtime
