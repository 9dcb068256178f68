#include "core/swarm.hpp"

#include "common/thread_annotations.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/codec.hpp"
#include "core/recovery.hpp"
#include "common/metrics_registry.hpp"
#include "consensus/hotstuff/hotstuff_node.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "consensus/pbft/pbft_node.hpp"
#include "consensus/predis/predis_nodes.hpp"
#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"
#include "txpool/client.hpp"

namespace predis::core {

using namespace predis::consensus;

namespace {

bool has_predis_engine(Protocol p) {
  return p == Protocol::kPredisPbft || p == Protocol::kPredisHotStuff;
}

}  // namespace

SwarmCaseResult run_swarm_case(const SwarmCaseConfig& cfg) {
  runtime::SimRuntime backend(cfg.wan ? runtime::wan_latency()
                                      : runtime::lan_latency());
  runtime::Runtime& net = backend;
  const std::size_t regions = cfg.wan ? runtime::kWanRegions : 1;

  runtime::TraceHasher tracer;
  net.set_tracer(&tracer);

  // Block-lifecycle tracer shared by every consensus node: its folded
  // metrics digest must be reproducible for a given seed, which the
  // swarm tool's --verify-determinism sweep asserts.
  BlockTracer block_tracer;

  // --- Consensus nodes -------------------------------------------------
  std::vector<NodeId> consensus_ids;
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    consensus_ids.push_back(net.add_node(
        runtime::node_100mbps(static_cast<std::uint32_t>(i % regions))));
  }

  ConsensusConfig ccfg;
  ccfg.nodes = consensus_ids;
  ccfg.f = cfg.f;

  std::vector<PublicKey> keys;
  for (NodeId id : consensus_ids) {
    keys.push_back(KeyPair::from_seed(id).public_key());
  }

  Metrics metrics;
  CommitLedger ledger(metrics);

  // --- Fault schedule --------------------------------------------------
  sim::FaultPlanConfig fplan = cfg.faults;
  fplan.seed = cfg.seed;
  if (cfg.attack != AttackKind::kNone) {
    configure_attack(fplan, cfg.attack, cfg.faults.events);
  }
  fplan.max_crashed = std::min(fplan.max_crashed, cfg.f);
  fplan.max_equivocators = std::min(fplan.max_equivocators, cfg.f);
  fplan.max_withholders = std::min(fplan.max_withholders, cfg.f);
  fplan.max_garbage = std::min(fplan.max_garbage, cfg.f);
  // Equivocation needs a bundle producer to corrupt.
  fplan.equivocation =
      fplan.equivocation && has_predis_engine(cfg.protocol);
  sim::FaultScheduler faults(net, consensus_ids, fplan);

  InvariantConfig icfg = cfg.invariants;
  icfg.n_nodes = cfg.n_consensus;
  icfg.f = cfg.f;
  icfg.quiet_after = faults.healed_by();
  // Serialized P-PBFT proposers always build on the last committed
  // block, so consecutive executed blocks must hash-chain there.
  if (cfg.protocol == Protocol::kPredisPbft) icfg.check_chain_link = true;
  InvariantChecker inv(icfg);

  // Per-node first commit at-or-after the heal instant: the recovery
  // campaign's time-to-catch-up is the slowest node's gap to it.
  const SimTime healed_at = faults.healed_by();
  std::vector<SimTime> first_commit_after_heal(cfg.n_consensus, 0);
  ledger.set_observer([&inv, &first_commit_after_heal, healed_at](
                          std::size_t node_index, std::uint64_t slot,
                          const Hash32& digest, std::size_t /*tx_count*/,
                          SimTime when) {
    inv.on_commit(node_index, slot, digest, when);
    if (healed_at > 0 && when >= healed_at &&
        node_index < first_commit_after_heal.size() &&
        first_commit_after_heal[node_index] == 0) {
      first_commit_after_heal[node_index] = when;
    }
  });

  std::vector<std::unique_ptr<runtime::Actor>> actors;
  std::vector<predis::PredisEngine*> engines(cfg.n_consensus, nullptr);
  // Typed core handles kept alongside the type-erased actors so the
  // collect block can read recovery counters (catch-up batches, stall
  // escalations, GC accounting) without reflection.
  std::vector<pbft::PbftCore*> pbft_cores(cfg.n_consensus, nullptr);
  std::vector<hotstuff::HotStuffCore*> hs_cores(cfg.n_consensus, nullptr);
  std::vector<narwhal::SharedMempoolNode*> pools(cfg.n_consensus, nullptr);
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    NodeContext ctx(net, consensus_ids[i], ccfg);
    switch (cfg.protocol) {
      case Protocol::kPbft: {
        pbft::PbftNodeConfig ncfg;
        auto node = std::make_unique<pbft::PbftNode>(ctx, ncfg, ledger);
        node->core().set_tracer(&block_tracer);
        node->core().set_recovery_seed(cfg.seed ^ ((i + 1) * 0x9e3779b9ULL));
        pbft_cores[i] = &node->core();
        actors.push_back(std::move(node));
        break;
      }
      case Protocol::kHotStuff: {
        hotstuff::HotStuffNodeConfig ncfg;
        auto node =
            std::make_unique<hotstuff::HotStuffNode>(ctx, ncfg, ledger);
        node->core().set_tracer(&block_tracer);
        node->core().set_recovery_seed(cfg.seed ^ ((i + 1) * 0x9e3779b9ULL));
        hs_cores[i] = &node->core();
        actors.push_back(std::move(node));
        break;
      }
      case Protocol::kPredisPbft:
      case Protocol::kPredisHotStuff: {
        predis::PredisConfig pcfg;
        pcfg.seed = cfg.seed;
        KeyPair own = KeyPair::from_seed(consensus_ids[i]);
        if (cfg.protocol == Protocol::kPredisPbft) {
          auto node = std::make_unique<predis::PredisPbftNode>(
              ctx, pcfg, keys, own, ledger);
          engines[i] = &node->engine();
          engines[i]->set_tracer(&block_tracer);
          node->core().set_recovery_seed(cfg.seed ^
                                         ((i + 1) * 0x9e3779b9ULL));
          pbft_cores[i] = &node->core();
          actors.push_back(std::move(node));
        } else {
          auto node = std::make_unique<predis::PredisHotStuffNode>(
              ctx, pcfg, keys, own, ledger);
          engines[i] = &node->engine();
          engines[i]->set_tracer(&block_tracer);
          node->core().set_recovery_seed(cfg.seed ^
                                         ((i + 1) * 0x9e3779b9ULL));
          hs_cores[i] = &node->core();
          actors.push_back(std::move(node));
        }
        break;
      }
      case Protocol::kNarwhal:
      case Protocol::kStratus: {
        narwhal::SharedMempoolConfig ncfg;
        ncfg.seed = cfg.seed;
        ncfg.ack_quorum = cfg.protocol == Protocol::kNarwhal
                              ? cfg.n_consensus - cfg.f
                              : cfg.f + 1;
        auto node =
            std::make_unique<narwhal::SharedMempoolNode>(ctx, ncfg, ledger);
        node->set_tracer(&block_tracer);
        node->core().set_recovery_seed(cfg.seed ^ ((i + 1) * 0x9e3779b9ULL));
        pools[i] = node.get();
        hs_cores[i] = &node->core();
        actors.push_back(std::move(node));
        break;
      }
    }
    net.attach(consensus_ids[i], actors.back().get());

    if (engines[i] != nullptr) {
      predis::PredisEngine* engine = engines[i];
      engine->on_block_executed =
          [&inv, &net, engine, i](const PredisBlock& block,
                                  const std::vector<Transaction>&) {
            inv.on_predis_executed(i, block, engine->mempool(), net.now());
          };
      engine->on_block_proposal = [&inv, &net, i](
                                      const PredisBlock& block) {
        inv.on_predis_proposed(i, block, net.now());
      };
      engine->mempool().on_ban = [&inv, &net, i](NodeId producer) {
        inv.on_ban(i, producer, net.now());
      };
      engine->mempool().on_unban = [&inv, i](NodeId producer) {
        inv.on_unban(i, producer);
      };
    }
  }

  faults.on_equivocate = [&](NodeId id) {
    for (std::size_t i = 0; i < consensus_ids.size(); ++i) {
      if (consensus_ids[i] != id) continue;
      inv.set_byzantine(i, true);
      if (engines[i] != nullptr) engines[i]->inject_equivocation();
    }
  };
  // Hostile-injector and withholding hooks. The injector sends garbage
  // *as* the attacker (its signature, its uplink); invariants excuse
  // the node because signed junk at absurd heights can legitimately get
  // it banned. A withholder looks like a silent producer to everyone
  // else, so it too is excused from producer-side invariants.
  HostileInjector injector(net, cfg.protocol, consensus_ids);
  auto excuse = [&](NodeId id) {
    for (std::size_t i = 0; i < consensus_ids.size(); ++i) {
      if (consensus_ids[i] == id) inv.set_byzantine(i, true);
    }
  };
  faults.on_garbage = [&](NodeId id, SimTime window) {
    excuse(id);
    // Spread a handful of bursts over the fault window.
    constexpr std::size_t kBursts = 4;
    for (std::size_t b = 0; b < kBursts; ++b) {
      PREDIS_FIRE_AND_FORGET(net.schedule_after(
          window * static_cast<SimTime>(b) / static_cast<SimTime>(kBursts),
          [&injector, id] { injector.burst(id); }));
    }
  };
  faults.on_withhold = excuse;
  faults.arm();

  // --- Clients ---------------------------------------------------------
  const double per_client =
      cfg.offered_load_tps / static_cast<double>(cfg.n_clients);
  std::vector<std::unique_ptr<ClientActor>> clients;
  for (std::size_t c = 0; c < cfg.n_clients; ++c) {
    runtime::NodeConfig ncfg;
    ncfg.region = static_cast<std::uint32_t>(c % regions);
    ncfg.up_bw = 10 * runtime::kBandwidth100Mbps;
    ncfg.down_bw = 10 * runtime::kBandwidth100Mbps;
    const NodeId id = net.add_node(ncfg);

    ClientConfig ccfg2;
    ccfg2.self = id;
    if (cfg.protocol == Protocol::kPbft ||
        cfg.protocol == Protocol::kHotStuff) {
      ccfg2.targets = consensus_ids;
    } else {
      ccfg2.targets = {consensus_ids[c % cfg.n_consensus]};
    }
    ccfg2.tx_per_second = per_client;
    ccfg2.tx_size = cfg.tx_size;
    ccfg2.stop_at = cfg.duration;
    ccfg2.record_from = 0;
    ccfg2.seed = cfg.seed * 1000 + c;
    clients.push_back(std::make_unique<ClientActor>(net, ccfg2, metrics));
    net.attach(id, clients.back().get());
  }

  // --- Run -------------------------------------------------------------
  net.start();
  net.run_until(cfg.duration + milliseconds(500));
  inv.finalize();

  // --- Collect ---------------------------------------------------------
  SwarmCaseResult result;
  result.seed = cfg.seed;
  result.ok = inv.ok();
  result.violations = inv.violations();
  result.report = inv.report();
  result.fault_plan = faults.describe();
  result.trace_digest = tracer.digest();
  result.trace_events = tracer.events();
  result.committed_txs = metrics.committed_txs();
  result.hostile_msgs = injector.injected();
  {
    const auto samples = block_tracer.stage_samples();
    const auto it = samples.find("production");
    if (it != samples.end() && it->second.count() > 0) {
      result.production_p99_ms = it->second.percentile(99.0);
    }
  }
  {
    MetricsRegistry registry;
    block_tracer.fold_into(registry);
    Writer w;
    w.hash(registry.digest());
    w.hash(block_tracer.digest());
    // Fold the degradation metrics in as well: a nondeterministic
    // commit count or latency tail must flip the digest even if the
    // trace content itself happened to collide.
    w.u64(result.committed_txs);
    w.u64(static_cast<std::uint64_t>(result.production_p99_ms * 1000.0));
    result.metrics_digest = Sha256::hash(BytesView{w.data()});
  }
  result.commits_checked = inv.commits_checked();
  result.reconstructions_checked = inv.reconstructions_checked();
  result.faults_injected = faults.faults_injected();
  result.committed_slots = ledger.committed_slots();
  result.throughput_tps = metrics.throughput_tps(0, cfg.duration);
  result.healed_by = faults.healed_by();
  if (result.healed_by > 0 && result.healed_by < cfg.duration) {
    result.post_heal_tps =
        metrics.throughput_tps(result.healed_by, cfg.duration);
  }

  // Recovery counters, summed across nodes. GC stats come from every
  // layer that prunes below a checkpoint: consensus slot/block logs and
  // (for Predis) the mempool bundle chains.
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    GcStats gc;
    if (pbft_cores[i] != nullptr) {
      result.catch_up_batches += pbft_cores[i]->catch_up_batches();
      result.state_transfers +=
          static_cast<std::size_t>(pbft_cores[i]->state_transfers());
      result.sync_stalls += pbft_cores[i]->sync_stalls();
      gc.merge(pbft_cores[i]->gc_stats());
    }
    if (hs_cores[i] != nullptr) {
      result.catch_up_batches += hs_cores[i]->catch_up_batches();
      result.sync_stalls += hs_cores[i]->sync_stalls();
      gc.merge(hs_cores[i]->gc_stats());
    }
    if (pools[i] != nullptr) gc.merge(pools[i]->gc_stats());
    if (engines[i] != nullptr) {
      result.sync_stalls += engines[i]->fetch_stalls();
      gc.merge(engines[i]->gc_stats());
    }
    result.gc_bytes += gc.bytes;
    result.gc_items += gc.items;
  }
  result.duplicate_payloads = ledger.duplicate_payloads();
  if (result.healed_by > 0 && result.healed_by < cfg.duration) {
    SimTime latest = 0;
    for (const SimTime t : first_commit_after_heal) {
      latest = std::max(latest, t);
    }
    if (latest > 0) {
      result.catch_up_ms = to_milliseconds(latest - result.healed_by);
    }
  }
  return result;
}

}  // namespace predis::core
