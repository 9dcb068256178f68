#include "bundle/bundle.hpp"

namespace predis {

Bytes BundleHeader::signing_bytes() const {
  Writer w;
  w.u32(producer);
  w.u64(height);
  w.hash(parent_hash);
  w.vec_u64(tip_list);
  w.hash(tx_root);
  w.hash(stripe_root);
  return std::move(w).take();
}

void BundleHeader::encode(Writer& w) const {
  w.u32(producer);
  w.u64(height);
  w.hash(parent_hash);
  w.vec_u64(tip_list);
  w.hash(tx_root);
  w.hash(stripe_root);
  w.raw(BytesView{signature.data(), signature.size()});
}

BundleHeader BundleHeader::decode(Reader& r) {
  BundleHeader h;
  h.producer = r.u32();
  h.height = r.u64();
  h.parent_hash = r.hash();
  h.tip_list = r.vec_u64();
  h.tx_root = r.hash();
  h.stripe_root = r.hash();
  for (auto& byte : h.signature) byte = r.u8();
  return h;
}

void append_tx_leaves(const std::vector<Transaction>& txs,
                      std::vector<Hash32>& out) {
  out.reserve(out.size() + txs.size());
  for (const auto& tx : txs) out.push_back(tx.id());
}

Hash32 Bundle::tx_root_of(const std::vector<Transaction>& txs) {
  std::vector<Hash32> leaves;
  append_tx_leaves(txs, leaves);
  return tx_root_of_leaves(leaves);
}

Hash32 Bundle::tx_root_of_leaves(const std::vector<Hash32>& leaves) {
  return leaves.empty() ? kZeroHash : MerkleTree::root_of(leaves);
}

Bundle make_bundle(NodeId producer, BundleHeight height,
                   const Hash32& parent_hash,
                   std::vector<BundleHeight> tip_list,
                   std::vector<Transaction> txs, const KeyPair& key) {
  return make_stored_bundle(producer, height, parent_hash,
                            std::move(tip_list), std::move(txs), key)
      .bundle;
}

StoredBundle make_stored_bundle(NodeId producer, BundleHeight height,
                                const Hash32& parent_hash,
                                std::vector<BundleHeight> tip_list,
                                std::vector<Transaction> txs,
                                const KeyPair& key) {
  StoredBundle out;
  Bundle& b = out.bundle;
  b.header.producer = producer;
  b.header.height = height;
  b.header.parent_hash = parent_hash;
  b.header.tip_list = std::move(tip_list);
  append_tx_leaves(txs, out.leaves);
  b.header.tx_root = Bundle::tx_root_of_leaves(out.leaves);
  b.txs = std::move(txs);
  b.header.signature = key.sign(BytesView{b.header.signing_bytes()});
  return out;
}

bool verify_bundle_signature(const BundleHeader& header,
                             const PublicKey& producer_key) {
  return verify(producer_key, BytesView{header.signing_bytes()},
                header.signature);
}

std::size_t verify_bundle_signatures(const std::vector<HeaderSigCheck>& checks,
                                     bool* ok) {
  // The signing bytes must stay alive across the verify_batch call, so
  // materialize them per header first.
  std::vector<Bytes> bytes;
  bytes.reserve(checks.size());
  std::vector<SigCheck> items;
  items.reserve(checks.size());
  for (const HeaderSigCheck& c : checks) {
    bytes.push_back(c.header->signing_bytes());
    items.push_back({c.key, BytesView{bytes.back()}, &c.header->signature});
  }
  return verify_batch(items.data(), items.size(), ok);
}

}  // namespace predis
