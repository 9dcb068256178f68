// Regression tests for the random-gossip pull path: a digest receiver
// that is still missing the block must keep pulling against rotating
// targets until the block lands. The pre-fix node pulled exactly once,
// aimed only at the original digest sender — if that sender crashed
// (or its reply was lost) the block never arrived anywhere downstream.
#include "multizone/random_gossip.hpp"

#include <gtest/gtest.h>

#include "common/block_tracer.hpp"
#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"

namespace predis::multizone {
namespace {

struct GossipNet {
  GossipNet()
      : backend(runtime::LatencyMatrix::uniform(1, milliseconds(10))),
        net(backend) {
    for (int i = 0; i < 3; ++i) {
      ids.push_back(net.add_node(runtime::node_100mbps(0)));
    }
    GossipConfig cfg;
    cfg.fanout = 1;
    // source / backup hold the block natively and relay to no one, so
    // the victim can only get it by pulling.
    source = std::make_unique<RandomGossipNode>(net, ids[0], cfg, 1);
    backup = std::make_unique<RandomGossipNode>(net, ids[1], cfg, 2);
    victim = std::make_unique<RandomGossipNode>(net, ids[2], cfg, 3);
    victim->set_peers({ids[0], ids[1]});
    victim->set_tracer(&tracer);
    net.attach(ids[0], source.get());
    net.attach(ids[1], backup.get());
    net.attach(ids[2], victim.get());
  }

  void seed_block() {
    source->inject(1, 4096);
    backup->inject(1, 4096);
  }

  void digest_to_victim_from_source() {
    auto digest = std::make_shared<BlockDigestMsg>();
    digest->block_id = 1;
    victim->on_message(ids[0], digest);
  }

  runtime::SimRuntime backend;
  runtime::Runtime& net;
  std::vector<NodeId> ids;
  BlockTracer tracer;
  std::unique_ptr<RandomGossipNode> source;
  std::unique_ptr<RandomGossipNode> backup;
  std::unique_ptr<RandomGossipNode> victim;
};

TEST(RandomGossipPull, RetargetsWhenDigestSenderCrashes) {
  GossipNet g;
  g.seed_block();
  g.digest_to_victim_from_source();

  std::uint64_t got = 0;
  g.victim->on_block = [&](std::uint64_t id, SimTime) { got = id; };

  // The only node the victim has heard from about block 1 goes down
  // before the pull grace period elapses.
  g.net.set_node_down(g.ids[0], true);
  g.net.run_until(seconds(2));

  EXPECT_EQ(got, 1u) << "pull stalled on the crashed digest sender";
  // First pull aimed at the dead sender, the retry rotated to the
  // backup peer — and the loop stopped once the block arrived.
  const std::size_t pulls = g.tracer.pull_count(trace_key(1), g.ids[2]);
  EXPECT_GE(pulls, 2u);
  EXPECT_LE(pulls, 3u);
  const std::size_t settled = pulls;
  g.net.run_until(seconds(6));
  EXPECT_EQ(g.tracer.pull_count(trace_key(1), g.ids[2]), settled)
      << "pull loop kept firing after the block arrived";
}

TEST(RandomGossipPull, SinglePullSufficesOnHealthyPath) {
  GossipNet g;
  g.seed_block();
  g.digest_to_victim_from_source();

  std::uint64_t got = 0;
  g.victim->on_block = [&](std::uint64_t id, SimTime) { got = id; };
  g.net.run_until(seconds(2));

  EXPECT_EQ(got, 1u);
  EXPECT_EQ(g.tracer.pull_count(trace_key(1), g.ids[2]), 1u);
}

TEST(RandomGossipPull, DuplicateDigestsStartOneLoop) {
  GossipNet g;
  g.seed_block();
  g.net.set_node_down(g.ids[0], true);
  // Three digests for the same block (one per gossip round is normal);
  // only one pull loop may spin up.
  g.digest_to_victim_from_source();
  g.digest_to_victim_from_source();
  g.digest_to_victim_from_source();
  g.net.run_until(seconds(2));

  // One loop rotated to the healthy backup and delivered the block.
  EXPECT_TRUE(g.tracer.has(TraceStage::kBlockReconstructed, trace_key(1)));
  EXPECT_LE(g.tracer.pull_count(trace_key(1), g.ids[2]), 3u);
}

}  // namespace
}  // namespace predis::multizone
