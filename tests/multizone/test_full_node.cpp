// Multi-Zone topology behaviour: Algorithm 1 joins, Algorithm 2
// trimming, relayer-count maintenance, stripe flow + decoding, block
// reconstruction, leave/crash recovery and the backup digest path.
#include "multizone/full_node.hpp"

#include <gtest/gtest.h>

#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"

namespace predis::multizone {
namespace {

constexpr std::size_t kN = 4;  // consensus nodes / stripes
constexpr std::size_t kF = 1;

/// Minimal stripe source standing in for consensus node `index`.
class TestProducer final : public runtime::Actor {
 public:
  TestProducer(runtime::Runtime& net, NodeId self, StripeIndex index)
      : net_(net), self_(self), index_(index) {}

  void on_message(NodeId from, const runtime::MsgPtr& msg) override {
    if (const auto* m = dynamic_cast<const SubscribeMsg*>(msg.get())) {
      std::vector<StripeIndex> ok;
      for (StripeIndex s : m->stripes) {
        if (s == index_) {
          subscribers.insert(from);
          ok.push_back(s);
        }
      }
      if (!ok.empty()) {
        auto accept = std::make_shared<AcceptSubscribeMsg>();
        accept->stripes = std::move(ok);
        accept->from_consensus = true;
        net_.send(self_, from, std::move(accept));
      }
      return;
    }
    if (const auto* m = dynamic_cast<const UnsubscribeMsg*>(msg.get())) {
      for (StripeIndex s : m->stripes) {
        if (s == index_) subscribers.erase(from);
      }
      return;
    }
    if (const auto* m = dynamic_cast<const HeartbeatMsg*>(msg.get())) {
      if (!m->reply) {
        auto echo = std::make_shared<HeartbeatMsg>();
        echo->reply = true;
        net_.send(self_, from, std::move(echo));
      }
      return;
    }
  }

  void send_stripe(const BundleHeader& header, std::size_t bundle_bytes,
                   std::shared_ptr<const erasure::Stripe> payload = nullptr) {
    auto msg = std::make_shared<StripeMsg>();
    msg->header = header;
    msg->index = index_;
    msg->body_bytes = (bundle_bytes + kN - kF - 1) / (kN - kF);
    msg->proof_bytes = 64;
    msg->payload = std::move(payload);
    for (NodeId sub : subscribers) net_.send(self_, sub, msg);
  }

  void send_block(const PredisBlock& block) {
    auto msg = std::make_shared<PredisBlockMsg>();
    msg->block = block;
    for (NodeId sub : subscribers) net_.send(self_, sub, msg);
  }

  std::set<NodeId> subscribers;

 private:
  runtime::Runtime& net_;
  NodeId self_;
  StripeIndex index_;
};

struct ZoneFixture : ::testing::Test {
  ZoneFixture()
      : backend(runtime::LatencyMatrix::uniform(1, milliseconds(5))),
        net(backend),
        dir(n_zones) {
    for (std::size_t i = 0; i < kN; ++i) {
      const NodeId id = net.add_node(runtime::node_100mbps(0));
      producer_ids.push_back(id);
      producers.push_back(std::make_unique<TestProducer>(
          net, id, static_cast<StripeIndex>(i)));
      net.attach(id, producers.back().get());
    }
    dir.set_consensus_nodes(producer_ids);
    cfg.n_consensus = kN;
    cfg.f = kF;
    cfg.n_zones = n_zones;
  }

  MultiZoneFullNode* add_full_node(std::uint32_t zone, SimTime join_time) {
    const NodeId id = net.add_node(runtime::node_100mbps(0));
    dir.register_node(id, zone, join_time);
    full_nodes.push_back(
        std::make_unique<MultiZoneFullNode>(net, id, cfg, dir, 3));
    net.attach(id, full_nodes.back().get());
    full_ids.push_back(id);
    return full_nodes.back().get();
  }

  /// Produce one bundle on `chain` and stripe it from every producer.
  Bundle produce_bundle(std::size_t chain) {
    const BundleHeight h = heights[chain] + 1;
    std::vector<Transaction> txs(3);
    for (std::size_t i = 0; i < txs.size(); ++i) {
      txs[i].client = 9;
      txs[i].seq = chain * 1000 + h * 10 + i;
    }
    Bundle b = make_bundle(static_cast<NodeId>(chain), h, parents[chain],
                           std::vector<BundleHeight>(kN, 0), std::move(txs),
                           KeyPair::from_seed(1000 + chain));
    heights[chain] = h;
    parents[chain] = b.header.hash();
    dir.publish_bundle(b);
    for (auto& p : producers) p->send_stripe(b.header, b.wire_size());
    return b;
  }

  PredisBlock announce_block(std::uint64_t height) {
    PredisBlock block;
    block.height = height;
    block.leader = 0;
    block.prev_heights = last_cut;
    block.cut_heights.assign(heights.begin(), heights.end());
    for (std::size_t i = 0; i < kN; ++i) {
      if (block.cut_heights[i] > block.prev_heights[i]) {
        // Content does not matter for reconstruction bookkeeping.
        block.header_hashes.push_back(
            Sha256::hash(as_bytes("hdr" + std::to_string(i))));
      }
    }
    last_cut = block.cut_heights;
    for (auto& p : producers) p->send_block(block);
    return block;
  }

  runtime::SimRuntime backend;
  runtime::Runtime& net;
  std::size_t n_zones = 2;
  ZoneDirectory dir;
  MultiZoneConfig cfg;
  std::vector<NodeId> producer_ids;
  std::vector<std::unique_ptr<TestProducer>> producers;
  std::vector<std::unique_ptr<MultiZoneFullNode>> full_nodes;
  std::vector<NodeId> full_ids;
  std::array<BundleHeight, kN> heights{};
  std::array<Hash32, kN> parents{kZeroHash, kZeroHash, kZeroHash, kZeroHash};
  std::vector<BundleHeight> last_cut = std::vector<BundleHeight>(kN, 0);
};

TEST_F(ZoneFixture, FirstNodeBecomesFullRelayer) {
  auto* node = add_full_node(0, 0);
  net.start();
  net.run_until(milliseconds(200));
  EXPECT_TRUE(node->is_relayer());
  EXPECT_EQ(node->direct_stripes().size(), kN);
  for (auto& p : producers) EXPECT_EQ(p->subscribers.size(), 1u);
}

TEST_F(ZoneFixture, ZoneConvergesToOneDirectStripePerRelayer) {
  for (std::size_t i = 0; i < kN; ++i) {
    add_full_node(0, static_cast<SimTime>(i) * milliseconds(150));
  }
  net.start();
  net.run_until(seconds(8));

  std::size_t relayers = 0;
  std::set<StripeIndex> covered;
  for (auto& node : full_nodes) {
    if (node->is_relayer()) {
      ++relayers;
      covered.insert(node->direct_stripes().begin(),
                     node->direct_stripes().end());
    }
    // Every node must have a provider for every stripe.
    for (StripeIndex s = 0; s < kN; ++s) {
      EXPECT_NE(node->provider_of(s), kNoNode) << "stripe " << s;
    }
  }
  EXPECT_EQ(relayers, kN);
  EXPECT_EQ(covered.size(), kN);  // all stripes consensus-direct somewhere
  // Consensus load is balanced: one direct subscriber per producer.
  for (auto& p : producers) {
    EXPECT_EQ(p->subscribers.size(), 1u);
  }
}

TEST_F(ZoneFixture, StripesDecodeIntoBundles) {
  auto* node = add_full_node(0, 0);
  std::size_t decoded = 0;
  node->on_bundle_decoded = [&decoded](const BundleHeader&, SimTime) {
    ++decoded;
  };
  net.start();
  net.run_until(milliseconds(200));

  produce_bundle(0);
  produce_bundle(1);
  net.run_until(milliseconds(400));
  EXPECT_EQ(decoded, 2u);
  EXPECT_EQ(node->contiguous_height(0), 1u);
  EXPECT_EQ(node->contiguous_height(1), 1u);
}

TEST_F(ZoneFixture, RealStripePayloadsDecodeThroughCodec) {
  auto* node = add_full_node(0, 0);
  net.start();
  net.run_until(milliseconds(200));

  // Producer workflow: encode, commit the stripe root into the header,
  // then distribute real stripes. The receiver must Merkle-verify each
  // stripe and Reed-Solomon-decode the bundle from the bytes alone.
  const erasure::StripeCodec codec(kN - kF, kN);
  std::vector<Transaction> txs(3);
  for (std::size_t i = 0; i < txs.size(); ++i) txs[i].seq = 500 + i;
  Bundle b = make_bundle(0, 1, parents[0], std::vector<BundleHeight>(kN, 0),
                         std::move(txs), KeyPair::from_seed(1000));
  const auto encoded = codec.encode(b);
  b.header.stripe_root = encoded.stripe_root;
  for (std::size_t i = 0; i < kN; ++i) {
    producers[i]->send_stripe(
        b.header, b.wire_size(),
        std::make_shared<const erasure::Stripe>(encoded.stripes[i]));
  }
  net.run_until(milliseconds(400));

  EXPECT_EQ(node->decoded_bundles(), 1u);
  EXPECT_EQ(node->byte_decoded_bundles(), 1u);
  EXPECT_EQ(node->decode_failures(), 0u);
  EXPECT_EQ(node->stripe_verify_failures(), 0u);
}

TEST_F(ZoneFixture, TamperedRealStripeIsRejectedBeforeCounting) {
  auto* node = add_full_node(0, 0);
  net.start();
  net.run_until(milliseconds(200));

  const erasure::StripeCodec codec(kN - kF, kN);
  std::vector<Transaction> txs(2);
  txs[0].seq = 600;
  txs[1].seq = 601;
  Bundle b = make_bundle(0, 1, parents[0], std::vector<BundleHeight>(kN, 0),
                         std::move(txs), KeyPair::from_seed(1001));
  auto encoded = codec.encode(b);
  b.header.stripe_root = encoded.stripe_root;
  encoded.stripes[1].data[0] ^= 0x01;  // tamper stripe 1 in flight
  for (std::size_t i = 0; i < kN; ++i) {
    producers[i]->send_stripe(
        b.header, b.wire_size(),
        std::make_shared<const erasure::Stripe>(encoded.stripes[i]));
  }
  net.run_until(milliseconds(400));

  // The tampered stripe is dropped at verification; the remaining
  // kN - 1 >= k genuine stripes still decode the bundle.
  EXPECT_EQ(node->stripe_verify_failures(), 1u);
  EXPECT_EQ(node->byte_decoded_bundles(), 1u);
  EXPECT_EQ(node->decoded_bundles(), 1u);
}

TEST_F(ZoneFixture, ConflictingHeadersAtOneSlotStayDistinct) {
  auto* node = add_full_node(0, 0);
  std::vector<BundleHeader> decoded;
  node->on_bundle_decoded = [&decoded](const BundleHeader& h, SimTime) {
    decoded.push_back(h);
  };
  net.start();
  net.run_until(milliseconds(200));

  // An equivocating producer signs two headers for chain 0, height 1.
  const auto sign_bundle = [](std::uint64_t seq) {
    std::vector<Transaction> txs(1);
    txs[0].seq = seq;
    return make_bundle(0, 1, kZeroHash, std::vector<BundleHeight>(kN, 0),
                       std::move(txs), KeyPair::from_seed(1000));
  };
  const Bundle a = sign_bundle(700);
  const Bundle b = sign_bundle(701);
  ASSERT_NE(a.header.hash(), b.header.hash());

  // k = 3 stripes decode a bundle. Two stripes of A and one of B must
  // not: state shared by the slot alone would count all three as A's.
  producers[0]->send_stripe(a.header, a.wire_size());
  producers[1]->send_stripe(a.header, a.wire_size());
  producers[2]->send_stripe(b.header, b.wire_size());
  net.run_until(milliseconds(400));
  EXPECT_TRUE(decoded.empty());

  producers[3]->send_stripe(a.header, a.wire_size());
  net.run_until(milliseconds(600));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], a.header);
  EXPECT_EQ(node->decoded_bundles(), 1u);
}

TEST_F(ZoneFixture, OrdinaryNodeReconstructsBlocksThroughRelayers) {
  // Fill the zone with kN relayers plus one ordinary node.
  for (std::size_t i = 0; i < kN + 1; ++i) {
    add_full_node(0, static_cast<SimTime>(i) * milliseconds(120));
  }
  std::vector<std::pair<NodeId, std::uint64_t>> completions;
  for (auto& node : full_nodes) {
    node->on_block_complete = [&completions, &node](const PredisBlock& b,
                                                    SimTime) {
      completions.emplace_back(0, b.height);
      (void)node;
    };
  }
  net.start();
  net.run_until(seconds(6));

  for (int i = 0; i < 6; ++i) produce_bundle(i % kN);
  net.run_until(seconds(7));
  announce_block(0);
  net.run_until(seconds(9));

  // Every full node (including the ordinary one) rebuilt block 0.
  EXPECT_EQ(completions.size(), full_nodes.size());
  EXPECT_FALSE(full_nodes.back()->is_relayer());
}

TEST_F(ZoneFixture, RelayerLeaveHandsRoleOver) {
  for (std::size_t i = 0; i < kN + 1; ++i) {
    add_full_node(0, static_cast<SimTime>(i) * milliseconds(120));
  }
  net.start();
  net.run_until(seconds(8));

  // Find a relayer and make it leave gracefully.
  MultiZoneFullNode* leaver = nullptr;
  for (auto& node : full_nodes) {
    if (node->is_relayer()) {
      leaver = node.get();
      break;
    }
  }
  ASSERT_NE(leaver, nullptr);
  leaver->leave();
  net.run_until(seconds(16));

  // The zone still has kN relayers among the remaining nodes.
  std::size_t relayers = 0;
  for (auto& node : full_nodes) {
    if (node.get() == leaver) continue;
    if (node->is_relayer()) ++relayers;
  }
  EXPECT_GE(relayers, kN - 1);

  // And data still flows to everyone.
  produce_bundle(0);
  net.run_until(seconds(17));
  for (auto& node : full_nodes) {
    if (node.get() == leaver) continue;
    EXPECT_EQ(node->contiguous_height(0), 1u);
  }
}

TEST_F(ZoneFixture, RelayerCrashRecoveredByHeartbeat) {
  for (std::size_t i = 0; i < kN + 1; ++i) {
    add_full_node(0, static_cast<SimTime>(i) * milliseconds(120));
  }
  net.start();
  net.run_until(seconds(8));

  // Hard-crash the first relayer (no leave message).
  std::size_t crashed_index = 0;
  for (std::size_t i = 0; i < full_nodes.size(); ++i) {
    if (full_nodes[i]->is_relayer()) {
      crashed_index = i;
      break;
    }
  }
  net.set_node_down(full_ids[crashed_index], true);
  net.run_until(seconds(20));

  // Remaining nodes re-subscribed away from the dead provider and data
  // still reaches everyone.
  produce_bundle(2);
  net.run_until(seconds(21));
  for (std::size_t i = 0; i < full_nodes.size(); ++i) {
    if (i == crashed_index) continue;
    EXPECT_EQ(full_nodes[i]->contiguous_height(2), 1u) << "node " << i;
    for (StripeIndex s = 0; s < kN; ++s) {
      EXPECT_NE(full_nodes[i]->provider_of(s), full_ids[crashed_index]);
    }
  }
}

TEST_F(ZoneFixture, ForwardsClientTransactionsToTargetConsensus) {
  // §IV-D strategy two: a client hands a transaction naming consensus
  // node 2 to an ordinary full node, which forwards it there.
  class TxSink final : public runtime::Actor {
   public:
    void on_message(NodeId, const runtime::MsgPtr& msg) override {
      const auto* m = dynamic_cast<const ClientRequestMsg*>(msg.get());
      if (m != nullptr) received += m->txs.size();
    }
    std::size_t received = 0;
  };
  // Replace producer 2 with a sink that counts forwarded transactions.
  TxSink sink;
  net.attach(producer_ids[2], &sink);

  auto* node = add_full_node(0, 0);
  (void)node;
  net.start();
  net.run_until(milliseconds(300));

  auto msg = std::make_shared<ClientRequestMsg>();
  Transaction tx;
  tx.client = 99;
  tx.seq = 1;
  tx.target_consensus = 2;
  msg->txs.push_back(tx);
  // A client (use producer 3's id as a stand-in sender) submits via the
  // full node.
  net.send(producer_ids[3], full_ids[0], msg);
  net.run_until(milliseconds(600));
  EXPECT_EQ(sink.received, 1u);
}

TEST_F(ZoneFixture, CrossZoneDigestBackfillsMissedBundles) {
  // Zone 0 gets a healthy relayer; zone 1's node joins *after* the
  // bundle was distributed, so it can only catch up via the digest
  // backup path to its neighbour zone.
  auto* early = add_full_node(0, 0);
  net.start();
  net.run_until(milliseconds(300));
  produce_bundle(0);
  net.run_until(milliseconds(600));
  ASSERT_EQ(early->contiguous_height(0), 1u);

  auto* late = add_full_node(1, milliseconds(700));
  late->on_start();
  net.run_until(seconds(6));
  // The late node's digest partner is in zone 0 and pushes the gap.
  EXPECT_EQ(late->contiguous_height(0), 1u);
}

TEST_F(ZoneFixture, RelayerAliveWithOutOfRangeStripesIsSanitized) {
  // Regression (predis-lint D4): on_relayer_alive used to walk
  // providers_[s] for every stripe index the announcement carried,
  // so a hostile peer listing an index outside [0, n_c) caused an
  // out-of-bounds read — and the bogus list was cached in
  // known_relayers_ for later replay by on_leave. Indices are now
  // dropped at the handler boundary.
  auto* node = add_full_node(0, 0);
  net.start();
  net.run_until(milliseconds(200));
  ASSERT_TRUE(node->is_relayer());

  struct Silent final : runtime::Actor {
    void on_message(NodeId, const runtime::MsgPtr&) override {}
  } hostile;
  const NodeId hid = net.add_node(runtime::node_100mbps(0));
  net.attach(hid, &hostile);

  auto alive = std::make_shared<RelayerAliveMsg>();
  alive->relayer = hid;
  alive->relayed = {static_cast<StripeIndex>(kN + 995),
                    static_cast<StripeIndex>(-1)};
  alive->join_time = milliseconds(1);
  net.send(hid, full_ids[0], std::move(alive));
  net.run_until(milliseconds(400));

  // Subscription state is untouched: every real stripe keeps a valid
  // provider and the hostile node gained none.
  for (StripeIndex s = 0; s < kN; ++s) {
    const NodeId provider = node->provider_of(s);
    EXPECT_NE(provider, kNoNode) << "stripe " << s;
    EXPECT_NE(provider, hid) << "stripe " << s;
  }

  // The data plane still decodes bundles produced after the attack.
  std::size_t decoded = 0;
  node->on_bundle_decoded = [&decoded](const BundleHeader&, SimTime) {
    ++decoded;
  };
  produce_bundle(0);
  net.run_until(milliseconds(800));
  EXPECT_EQ(decoded, 1u);
}

TEST_F(ZoneFixture, HostileRejectWithUnknownChildrenIsIgnored) {
  // Regression: on_reject used to follow every referral child id the
  // message carried. A hostile reject naming an arbitrary id made the
  // node subscribe to a node the network has never seen — fatal in
  // Network::send. Referrals must pass the directory first.
  auto* node = add_full_node(0, 0);
  net.start();

  // Race the reject against the genuine accept: the node's subscribe
  // (sent at start) takes one hop to reach consensus, the accept one
  // hop back, so a reject injected at t=0 lands while the stripe is
  // still pending on the real producer — exactly the window where the
  // referral list is walked.
  auto reject = std::make_shared<RejectSubscribeMsg>();
  reject->stripes = {0};
  reject->children = {static_cast<NodeId>(0xbad5eed),
                      static_cast<NodeId>(0xbad5eee)};
  net.send(producer_ids[0], full_ids[0], std::move(reject));
  net.run_until(milliseconds(500));

  // The bogus referral was skipped and the retry path recovered the
  // stripe from a provider the directory knows.
  for (StripeIndex s = 0; s < kN; ++s) {
    EXPECT_NE(node->provider_of(s), kNoNode) << "stripe " << s;
  }
  produce_bundle(0);
  net.run_until(milliseconds(900));
  EXPECT_EQ(node->contiguous_height(0), 1u);
}

TEST_F(ZoneFixture, ForgedBundlePushIsRejectedAndCounted) {
  // Regression: on_push used to store any (producer, height, hash)
  // record the bundle claimed. A fabricated entry froze contiguous_ at
  // the forged height's chain forever — reconstruction of every later
  // block stalls waiting for a bundle that does not exist. Pushed
  // bundles must now match the directory's published record (models
  // verifying the producer signature + body root).
  auto* node = add_full_node(0, 0);
  net.start();
  net.run_until(milliseconds(200));

  std::vector<Transaction> forged_txs(2);
  forged_txs[0].seq = 700;
  forged_txs[1].seq = 701;
  const Bundle forged =
      make_bundle(0, 1, parents[0], std::vector<BundleHeight>(kN, 0),
                  std::move(forged_txs), KeyPair::from_seed(4242));
  auto push = std::make_shared<BundlePushMsg>();
  push->bundles = {forged};
  net.send(producer_ids[1], full_ids[0], std::move(push));
  net.run_until(milliseconds(400));

  EXPECT_EQ(node->push_verify_failures(), 1u);
  EXPECT_EQ(node->decoded_bundles(), 0u);
  EXPECT_EQ(node->contiguous_height(0), 0u);

  // A genuinely published bundle pushed the same way is accepted.
  std::vector<Transaction> txs(2);
  txs[0].seq = 702;
  txs[1].seq = 703;
  Bundle genuine =
      make_bundle(0, 1, parents[0], std::vector<BundleHeight>(kN, 0),
                  std::move(txs), KeyPair::from_seed(1000));
  dir.publish_bundle(genuine);
  auto ok_push = std::make_shared<BundlePushMsg>();
  ok_push->bundles = {genuine};
  net.send(producer_ids[1], full_ids[0], std::move(ok_push));
  net.run_until(milliseconds(600));

  EXPECT_EQ(node->push_verify_failures(), 1u);
  EXPECT_EQ(node->decoded_bundles(), 1u);
  EXPECT_EQ(node->contiguous_height(0), 1u);
}

TEST_F(ZoneFixture, HostileBlockSpanIsRejectedBeforeRepairWalk) {
  // Regression: on_predis_block used to admit any announcement, and
  // send_pull / try_reconstruct_blocks then walked every height in
  // (prev, cut] per chain. One forged block claiming cut_heights near
  // 2^40 pinned the node in a ~trillion-iteration walk (and sized the
  // missing-refs list to match). Spans are now bounded by
  // kMaxBlockSpan at admission, and the walks clamp again locally.
  auto* node = add_full_node(0, 0);
  std::size_t completions = 0;
  node->on_block_complete = [&completions](const PredisBlock&, SimTime) {
    ++completions;
  };
  net.start();
  net.run_until(milliseconds(200));

  PredisBlock hostile;
  hostile.height = 7;
  hostile.leader = 0;
  hostile.prev_heights = std::vector<BundleHeight>(kN, 0);
  hostile.cut_heights = std::vector<BundleHeight>(kN, BundleHeight{1} << 40);
  producers[0]->send_block(hostile);

  // Mismatched/regressing shapes are dropped by the same admission
  // check rather than reaching the repair bookkeeping.
  PredisBlock ragged;
  ragged.height = 8;
  ragged.prev_heights = std::vector<BundleHeight>(kN, 5);
  ragged.cut_heights = std::vector<BundleHeight>(kN, 2);  // cut < prev
  producers[0]->send_block(ragged);

  // If either walk ran unbounded this run_until would never return.
  net.run_until(milliseconds(800));
  EXPECT_EQ(completions, 0u);

  // A genuine announcement after the hostile ones still reconstructs.
  produce_bundle(0);
  net.run_until(milliseconds(1000));
  announce_block(0);
  net.run_until(milliseconds(1600));
  EXPECT_EQ(completions, 1u);
  EXPECT_EQ(node->contiguous_height(0), 1u);
}

TEST_F(ZoneFixture, RelayerAliveAboutUnregisteredNodeIsIgnored) {
  // Regression: on_relayer_alive cached whatever relayer id the message
  // named and — via Algorithm 2 trimming — could unsubscribe a direct
  // stripe in favour of it. An id the network has never seen then made
  // the hand-over subscribe fatal. Announcements about nodes the
  // directory never registered are now dropped at the boundary.
  auto* node = add_full_node(0, 0);
  net.start();
  net.run_until(milliseconds(200));
  ASSERT_TRUE(node->is_relayer());

  auto alive = std::make_shared<RelayerAliveMsg>();
  alive->relayer = static_cast<NodeId>(0xbad5eed);
  alive->relayed = {0};
  alive->join_time = milliseconds(1);  // earlier join: would win trimming
  net.send(producer_ids[1], full_ids[0], std::move(alive));
  net.run_until(milliseconds(600));

  // The node kept its consensus-direct stripes instead of deferring to
  // the phantom relayer, and data still flows.
  EXPECT_TRUE(node->is_relayer());
  for (StripeIndex s = 0; s < kN; ++s) {
    EXPECT_EQ(node->provider_of(s), producer_ids[s]) << "stripe " << s;
  }
  produce_bundle(0);
  net.run_until(seconds(1));
  EXPECT_EQ(node->contiguous_height(0), 1u);
}

TEST_F(ZoneFixture, BlockRepairPullResolvesWithinQuarterTimeout) {
  // Regression for the ~4.4 s distribution stragglers the tracer
  // attributed to repair pulls: pre-fix, a node missing a bundle at
  // block-announcement time slept a full jittered pull_timeout (700 ms
  // base, then per-attempt-doubling rungs) before its first pull, so a
  // block needing the whole target ladder took seconds to rebuild.
  // Post-fix the first probe fires at ~pull_timeout/4 and a
  // BundleMissMsg rotates the ladder at the same pace, so one
  // zone-member round trip closes the gap a few hundred ms after the
  // announcement.
  cfg.digest_interval = seconds(30);  // isolate the block-pull path

  auto* early = add_full_node(0, 0);
  net.start();
  net.run_until(milliseconds(300));
  produce_bundle(0);
  net.run_until(milliseconds(600));
  ASSERT_EQ(early->contiguous_height(0), 1u);

  // Joins after the stripes flowed: the only way to the bundle is the
  // repair pull riding the block announcement.
  auto* late = add_full_node(0, milliseconds(700));
  late->on_start();
  const NodeId late_id = full_ids.back();
  BlockTracer tracer;
  late->set_tracer(&tracer);
  SimTime done = kSimTimeNever;
  late->on_block_complete = [&done](const PredisBlock&, SimTime when) {
    done = when;
  };

  const SimTime announce_at = milliseconds(1500);
  net.run_until(announce_at);
  const PredisBlock block = announce_block(0);
  net.run_until(announce_at + milliseconds(600));

  ASSERT_NE(done, kSimTimeNever) << "late node never rebuilt the block";
  // Quarter timeout (175 ms, jittered down) + one zone round trip.
  // Pre-fix the first pull alone waited 350-700 ms.
  EXPECT_LE(done - announce_at, milliseconds(400))
      << "repair took " << (done - announce_at) << " ticks";
  // The pull path (not a digest backfill) did the repair, and it did
  // not spiral: one or two probes, nowhere near the anomaly threshold.
  const std::size_t pulls = tracer.pull_count(block.hash(), late_id);
  EXPECT_GE(pulls, 1u);
  EXPECT_LE(pulls, 2u);
  EXPECT_TRUE(tracer.anomalies(announce_at + seconds(1)).empty());
}

}  // namespace
}  // namespace predis::multizone
