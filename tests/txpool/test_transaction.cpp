// Transaction::id encodes into a stack buffer instead of a Writer; it
// must stay byte-for-byte the SHA-256 of encode(), i.e. hash_of(tx).
#include "txpool/transaction.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace predis {
namespace {

TEST(Transaction, IdEqualsHashOfEncodingOverRandomFields) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    Transaction tx;
    tx.client = static_cast<NodeId>(rng.next());
    tx.seq = rng.next();
    tx.size = static_cast<std::uint32_t>(rng.next());
    tx.submitted_at = static_cast<SimTime>(rng.next());  // negatives too
    tx.payload_seed = rng.next();
    tx.target_consensus = static_cast<NodeId>(rng.next());
    ASSERT_EQ(tx.id(), hash_of(tx)) << "iteration " << i;
  }
}

TEST(Transaction, EncodedSizeMatchesWriter) {
  Writer w;
  Transaction{}.encode(w);
  EXPECT_EQ(w.size(), Transaction::kEncodedSize);
  EXPECT_EQ(Transaction{}.id(), hash_of(Transaction{}));
}

}  // namespace
}  // namespace predis
