// Regression (predis-lint D1): ClientActor::resubmit_overdue() walks
// pending_ and the resulting batches go straight on the wire, so the
// container's iteration order is protocol-visible. pending_ used to be
// an unordered_map — with a few hundred outstanding transactions the
// bucket walk emits seqs out of order, and the emitted byte stream
// (hence the trace digest) depends on the stdlib's hash layout instead
// of the seed. pending_ is now a std::map; resubmitted batches must
// arrive in strictly ascending seq order.
#include "txpool/client.hpp"

#include <gtest/gtest.h>

#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"

namespace predis {
namespace {

/// Swallows everything: the censoring primary target.
struct BlackHole final : runtime::Actor {
  void on_message(NodeId, const runtime::MsgPtr&) override {}
};

/// Records the seq order of every ClientRequest batch it receives.
struct Recorder final : runtime::Actor {
  std::vector<std::vector<TxSeq>> batches;
  void on_message(NodeId, const runtime::MsgPtr& msg) override {
    const auto* m = dynamic_cast<const ClientRequestMsg*>(msg.get());
    if (m == nullptr) return;
    std::vector<TxSeq> seqs;
    seqs.reserve(m->txs.size());
    for (const auto& tx : m->txs) seqs.push_back(tx.seq);
    batches.push_back(std::move(seqs));
  }
};

TEST(ClientResubmitOrder, BatchesEmitSeqsInAscendingOrder) {
  runtime::SimRuntime backend(
      runtime::LatencyMatrix::uniform(1, milliseconds(5)));
  runtime::Runtime& net = backend;
  Metrics metrics;

  BlackHole hole;
  const NodeId hole_id = net.add_node(runtime::node_100mbps(0));
  net.attach(hole_id, &hole);
  Recorder recorder;
  const NodeId rec_id = net.add_node(runtime::node_100mbps(0));
  net.attach(rec_id, &recorder);

  ClientConfig cfg;
  cfg.self = net.add_node(runtime::node_100mbps(0));
  cfg.targets = {hole_id};               // never replies -> all overdue
  cfg.all_consensus = {hole_id, rec_id};  // rotation reaches the recorder
  cfg.tx_per_second = 2000.0;
  cfg.stop_at = milliseconds(150);
  cfg.resubmit_timeout = milliseconds(200);
  cfg.seed = 11;
  ClientActor client(net, cfg, metrics);
  net.attach(cfg.self, &client);

  net.start();
  net.run_until(milliseconds(900));

  // Enough pending transactions that an unordered walk would provably
  // interleave seqs, and at least one batch actually reached us.
  EXPECT_GT(client.resubmissions(), 100u);
  ASSERT_FALSE(recorder.batches.empty());
  std::size_t largest = 0;
  for (const auto& batch : recorder.batches) {
    largest = std::max(largest, batch.size());
    for (std::size_t i = 1; i < batch.size(); ++i) {
      ASSERT_LT(batch[i - 1], batch[i])
          << "batch seqs out of order at position " << i;
    }
  }
  EXPECT_GE(largest, 50u);
}

}  // namespace
}  // namespace predis
