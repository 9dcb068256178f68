#include "bundle/predis_block.hpp"

#include <stdexcept>

namespace predis {

const char* to_string(BlockVerifyResult r) {
  switch (r) {
    case BlockVerifyResult::kOk:
      return "ok";
    case BlockVerifyResult::kBadStructure:
      return "bad-structure";
    case BlockVerifyResult::kBannedProducer:
      return "banned-producer";
    case BlockVerifyResult::kConflict:
      return "conflict";
    case BlockVerifyResult::kMissingBundles:
      return "missing-bundles";
    case BlockVerifyResult::kBadSignature:
      return "bad-signature";
    case BlockVerifyResult::kBadTxRoot:
      return "bad-tx-root";
  }
  return "?";
}

Bytes PredisBlock::signing_bytes() const {
  Writer w;
  w.u64(height);
  w.hash(parent_hash);
  w.u32(leader);
  w.u64(view);
  w.vec_u64(prev_heights);
  w.vec_u64(cut_heights);
  w.vec_hash(header_hashes);
  w.hash(tx_root);
  return std::move(w).take();
}

void PredisBlock::encode(Writer& w) const {
  w.raw(BytesView{signing_bytes()});
  w.raw(BytesView{signature.data(), signature.size()});
}

PredisBlock PredisBlock::decode(Reader& r) {
  PredisBlock b;
  b.height = r.u64();
  b.parent_hash = r.hash();
  b.leader = r.u32();
  b.view = r.u64();
  b.prev_heights = r.vec_u64();
  b.cut_heights = r.vec_u64();
  b.header_hashes = r.vec_hash();
  b.tx_root = r.hash();
  for (auto& byte : b.signature) byte = r.u8();
  return b;
}

std::size_t PredisBlock::wire_size() const {
  std::size_t size = 8 + 32 + 4 + 8 + 32 + 64;
  size += 4 + prev_heights.size() * 8;
  size += 4 + cut_heights.size() * 8;
  size += 4 + header_hashes.size() * 32;
  return size;
}

std::size_t PredisBlock::tx_count(const Mempool& mempool) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < cut_heights.size(); ++i) {
    for (BundleHeight h = prev_heights[i] + 1; h <= cut_heights[i]; ++h) {
      const Bundle* b = mempool.chain(i).get(h);
      if (b != nullptr) count += b->txs.size();
    }
  }
  return count;
}

PredisBlock build_predis_block(const Mempool& mempool, NodeId leader,
                               std::size_t f, BlockHeight height, View view,
                               const Hash32& parent_hash,
                               const std::vector<BundleHeight>& prev_heights,
                               const KeyPair& leader_key) {
  const std::size_t n = mempool.chain_count();
  if (prev_heights.size() != n) {
    throw std::invalid_argument("build_predis_block: bad prev_heights");
  }

  PredisBlock block;
  block.height = height;
  block.parent_hash = parent_hash;
  block.leader = leader;
  block.view = view;
  block.prev_heights = prev_heights;
  block.cut_heights = compute_cut(mempool, leader, f);

  // The cut can never regress below what the chain already confirmed.
  for (std::size_t i = 0; i < n; ++i) {
    block.cut_heights[i] = std::max(block.cut_heights[i], prev_heights[i]);
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] > block.prev_heights[i]) {
      const Bundle* tip = mempool.chain(i).get(block.cut_heights[i]);
      if (tip == nullptr) {
        throw std::logic_error("build_predis_block: cut beyond local chain");
      }
      block.header_hashes.push_back(tip->header.hash());
    }
  }

  block.tx_root =
      compute_block_tx_root(mempool, block.prev_heights, block.cut_heights);
  block.signature = leader_key.sign(BytesView{block.signing_bytes()});
  return block;
}

BlockVerifyResult verify_predis_block(const Mempool& mempool,
                                      const PredisBlock& block,
                                      const PublicKey& leader_key,
                                      std::vector<MissingBundleRef>* missing) {
  const std::size_t n = mempool.chain_count();
  if (block.prev_heights.size() != n || block.cut_heights.size() != n) {
    return BlockVerifyResult::kBadStructure;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] < block.prev_heights[i]) {
      return BlockVerifyResult::kBadStructure;
    }
  }

  // One header hash per advanced chain, in chain order.
  std::size_t advanced = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] != block.prev_heights[i]) ++advanced;
  }
  if (advanced != block.header_hashes.size()) {
    return BlockVerifyResult::kBadStructure;
  }

  if (!verify(leader_key, BytesView{block.signing_bytes()},
              block.signature)) {
    return BlockVerifyResult::kBadSignature;
  }

  // Check 2: no banned producers among the advanced chains.
  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] != block.prev_heights[i] &&
        mempool.is_banned(static_cast<NodeId>(i))) {
      return BlockVerifyResult::kBannedProducer;
    }
  }

  // Check 3: we must hold every referenced bundle; collect gaps.
  bool any_missing = false;
  for (std::size_t i = 0; i < n; ++i) {
    for (BundleHeight h = block.prev_heights[i] + 1;
         h <= block.cut_heights[i]; ++h) {
      if (!mempool.chain(i).has(h)) {
        any_missing = true;
        if (missing != nullptr) {
          missing->push_back({static_cast<NodeId>(i), h});
        }
      }
    }
  }
  if (any_missing) return BlockVerifyResult::kMissingBundles;

  // Check 2 (conflict part): our bundle at the cut must hash to the
  // value in the block — otherwise the leader or the producer
  // equivocated (Theorem 3.1 pins the whole prefix).
  std::size_t header_index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] == block.prev_heights[i]) continue;
    const Hash32& expected = block.header_hashes[header_index++];
    const Bundle* local = mempool.chain(i).get(block.cut_heights[i]);
    if (local == nullptr || local->header.hash() != expected) {
      return BlockVerifyResult::kConflict;
    }
  }

  // Check 4: recompute the Merkle root.
  if (compute_block_tx_root(mempool, block.prev_heights,
                            block.cut_heights) != block.tx_root) {
    return BlockVerifyResult::kBadTxRoot;
  }
  return BlockVerifyResult::kOk;
}

std::vector<Transaction> extract_transactions(const Mempool& mempool,
                                              const PredisBlock& block) {
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < block.cut_heights.size(); ++i) {
    for (BundleHeight h = block.prev_heights[i] + 1;
         h <= block.cut_heights[i]; ++h) {
      const Bundle* b = mempool.chain(i).get(h);
      if (b == nullptr) {
        throw std::logic_error("extract_transactions: missing bundle");
      }
      txs.insert(txs.end(), b->txs.begin(), b->txs.end());
    }
  }
  return txs;
}

Hash32 compute_block_tx_root(const Mempool& mempool,
                             const std::vector<BundleHeight>& prev_heights,
                             const std::vector<BundleHeight>& cut_heights) {
  // Folds the leaves each bundle's tx_root was checked against when it
  // entered the mempool; only a bundle whose leaves confirm already
  // released is hashed again.
  std::vector<Hash32> leaves;
  for (std::size_t i = 0; i < cut_heights.size(); ++i) {
    const BundleChain& chain = mempool.chain(i);
    for (BundleHeight h = prev_heights[i] + 1; h <= cut_heights[i]; ++h) {
      const Bundle* b = chain.get(h);
      if (b == nullptr) {
        throw std::logic_error("compute_block_tx_root: missing bundle");
      }
      if (const std::vector<Hash32>* stored = chain.leaves(h)) {
        leaves.insert(leaves.end(), stored->begin(), stored->end());
      } else {
        append_tx_leaves(b->txs, leaves);
      }
    }
  }
  return Bundle::tx_root_of_leaves(leaves);
}

}  // namespace predis
