// Wall-mode backend contract. ThreadRuntime runs the same scenario
// objects as SimRuntime, but on a real worker pool with wall-clock
// timers and no bandwidth or latency model, so its delivery order (and
// hence any trace digest) changes from run to run. What must hold on
// both backends is the outcome: every submitted transaction commits,
// no two nodes decide differently, and the per-node hash-chained
// ledgers agree at every common height. On the wall backend,
// run_until() also drains everything in flight, so every message a
// node sent has been delivered once it returns. A backend that loses a
// message or runs one node's callbacks concurrently breaks at least
// one of these. SimRuntime's exact behaviour is pinned separately by
// test_golden_digests.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "multizone/experiments.hpp"
#include "runtime/thread_runtime.hpp"

namespace predis {
namespace {

runtime::ThreadRuntimeConfig wall_config() {
  runtime::ThreadRuntimeConfig cfg;
  cfg.workers = 4;
  return cfg;
}

// The load is low enough that a ThreadSanitizer build keeps up with
// wall-clock time.
core::ClusterConfig small_cluster(runtime::Runtime* backend) {
  core::ClusterConfig cfg;
  cfg.protocol = core::Protocol::kPredisPbft;
  cfg.wan = false;
  cfg.offered_load_tps = 1000.0;
  cfg.n_clients = 4;
  cfg.duration = seconds(3);
  cfg.warmup = seconds(1);
  cfg.seed = 7;
  cfg.ctx.backend = backend;
  return cfg;
}

void expect_cluster_contract(const core::ClusterResult& r) {
  EXPECT_GT(r.submitted_txs, 0u);
  EXPECT_EQ(r.committed_txs, r.submitted_txs);
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.ledgers_consistent);
}

// Nothing is down and no drop filter is set, so sent == received.
void expect_messages_conserved(const runtime::Runtime& net) {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (NodeId id = 0; id < net.node_count(); ++id) {
    sent += net.stats(id).messages_sent;
    received += net.stats(id).messages_received;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(sent, received);
}

TEST(WallContract, ClusterCommitsEverySubmittedTxOnBothBackends) {
  {
    SCOPED_TRACE("SimRuntime");
    expect_cluster_contract(core::run_cluster(small_cluster(nullptr)));
  }
  {
    SCOPED_TRACE("ThreadRuntime");
    runtime::ThreadRuntime wall(wall_config());
    expect_cluster_contract(core::run_cluster(small_cluster(&wall)));
    expect_messages_conserved(wall);
  }
}

multizone::ThroughputConfig small_zone(runtime::Runtime* backend) {
  multizone::ThroughputConfig cfg;
  cfg.n_full = 6;
  cfg.n_zones = 2;
  cfg.offered_load_tps = 1000.0;
  cfg.n_clients = 4;
  cfg.duration = seconds(3);
  cfg.warmup = seconds(1);
  cfg.seed = 9;
  cfg.ctx.backend = backend;
  return cfg;
}

TEST(WallContract, MultiZoneRunIsConsistentOnBothBackends) {
  {
    SCOPED_TRACE("SimRuntime");
    const auto r = multizone::run_distribution_cluster(small_zone(nullptr));
    EXPECT_TRUE(r.consistent);
    EXPECT_GT(r.throughput_tps, 0.0);
  }
  {
    SCOPED_TRACE("ThreadRuntime");
    runtime::ThreadRuntime wall(wall_config());
    const auto r = multizone::run_distribution_cluster(small_zone(&wall));
    EXPECT_TRUE(r.consistent);
    EXPECT_GT(r.throughput_tps, 0.0);
  }
}

}  // namespace
}  // namespace predis
