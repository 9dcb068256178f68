// Golden digests: literal values of deterministic SimRuntime runs. The
// delivery-trace digest folds (time, from, to, size, name) of every
// delivery, so an unchanged digest means the whole message schedule is
// unchanged. Unlike SeedDeterminism, which compares a run with itself,
// these pin behaviour across commits. A deliberate behaviour change
// updates the literals and says why in CHANGES.md.
#include <gtest/gtest.h>

#include "common/sha256.hpp"
#include "core/experiment.hpp"
#include "core/swarm.hpp"
#include "multizone/experiments.hpp"
#include "runtime/trace.hpp"

namespace predis {
namespace {

TEST(GoldenDigests, PredisPbftLanCluster) {
  core::ClusterConfig cfg;
  cfg.protocol = core::Protocol::kPredisPbft;
  cfg.wan = false;
  cfg.offered_load_tps = 3000.0;
  cfg.n_clients = 4;
  cfg.duration = seconds(3);
  cfg.warmup = seconds(1);
  cfg.seed = 7;
  runtime::TraceHasher trace;
  cfg.ctx.trace = &trace;
  const core::ClusterResult r = core::run_cluster(cfg);

  EXPECT_EQ(to_hex(trace.digest()),
            "9fb3580ea8e22e80efa0c287cd5eb22779904a05bc95f2085d1235af188c0a7a");
  EXPECT_EQ(trace.events(), 5858u);
  EXPECT_EQ(r.commit_digest,
            "95c4254485612656de29b6ce2e55d5082685a98c90fe5632364f0b547514f856");
  EXPECT_EQ(r.committed_txs, 9000u);
}

TEST(GoldenDigests, MultiZoneDistribution) {
  multizone::ThroughputConfig cfg;
  cfg.n_full = 6;
  cfg.n_zones = 2;
  cfg.offered_load_tps = 2000.0;
  cfg.n_clients = 4;
  cfg.duration = seconds(3);
  cfg.warmup = seconds(1);
  cfg.seed = 9;
  runtime::TraceHasher trace;
  cfg.ctx.trace = &trace;
  const multizone::ThroughputResult r =
      multizone::run_distribution_cluster(cfg);

  EXPECT_EQ(to_hex(trace.digest()),
            "e435d196aa8d5fa20642fc5b288a86c4531404d42a408c57b0fd35e3bc2a55a3");
  EXPECT_EQ(trace.events(), 34259u);
  EXPECT_DOUBLE_EQ(r.full_node_coverage, 0.94444444444444431);
  EXPECT_DOUBLE_EQ(r.throughput_tps, 2026.0);
}

TEST(GoldenDigests, PredisSwarmCase) {
  // The fault-injected case SeedDeterminism replays (seed 5).
  core::SwarmCaseConfig cfg;
  cfg.protocol = core::Protocol::kPredisPbft;
  cfg.seed = 5;
  cfg.duration = seconds(2);
  cfg.offered_load_tps = 1'000.0;
  cfg.faults.events = 4;
  cfg.faults.start = milliseconds(300);
  cfg.faults.horizon = seconds(1);
  const core::SwarmCaseResult r = core::run_swarm_case(cfg);

  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_EQ(to_hex(r.metrics_digest),
            "b2cb48b7d4a4fc9077687c3bc82fe52a083a17a18238735645640e2656b558b4");
  EXPECT_EQ(to_hex(r.trace_digest),
            "ea211661805c44ae890208607db85753a72ebbd65342bff30469ba181185872e");
  EXPECT_EQ(r.trace_events, 3013u);
}

}  // namespace
}  // namespace predis
