// Bundles and bundle headers — the unit of Predis's pre-distribution
// (Fig. 1 of the paper).
//
// Every consensus node continuously packs client transactions into
// bundles. A bundle header carries:
//   * the parent (previous) bundle hash, chaining bundles per producer;
//   * a tip list: the height of the latest bundle the producer has
//     received on every chain — this piggybacked acknowledgement is
//     what replaces Narwhal/Stratus certificates;
//   * a Merkle root over the bundle's transactions;
//   * a Merkle root over the bundle's erasure-coded stripes (used by
//     Multi-Zone receivers to verify individual stripes);
//   * the producer's signature.
#pragma once

#include <cstdint>
#include <vector>

#include "common/codec.hpp"
#include "common/merkle.hpp"
#include "common/signature.hpp"
#include "common/types.hpp"
#include "txpool/transaction.hpp"

namespace predis {

struct BundleHeader {
  NodeId producer = kNoNode;
  BundleHeight height = 0;  ///< 1-based within the producer's chain.
  Hash32 parent_hash = kZeroHash;
  std::vector<BundleHeight> tip_list;  ///< One entry per consensus node.
  Hash32 tx_root = kZeroHash;
  Hash32 stripe_root = kZeroHash;  ///< Zero when stripes are not used.
  Signature signature{};

  /// Deterministic encoding of the signed portion (everything except
  /// the signature itself).
  Bytes signing_bytes() const;

  /// Header hash = SHA-256 of the signed portion. Identifies the bundle:
  /// by Theorem 3.1, equal header hashes imply equal bundles.
  Hash32 hash() const { return Sha256::hash(BytesView{signing_bytes()}); }

  void encode(Writer& w) const;
  static BundleHeader decode(Reader& r);

  /// Bytes this header occupies on the wire.
  std::size_t wire_size() const {
    return 4 + 8 + 32 + 4 + tip_list.size() * 8 + 32 + 32 + 64;
  }

  bool operator==(const BundleHeader&) const = default;
};

/// Append the Merkle leaves of `txs` — their ids, in order — to `out`.
/// The one place a node hashes transactions for a root: make_bundle,
/// Mempool rule 2, and a block root over a bundle whose stored leaves
/// were already released.
void append_tx_leaves(const std::vector<Transaction>& txs,
                      std::vector<Hash32>& out);

struct Bundle {
  BundleHeader header;
  std::vector<Transaction> txs;

  /// Merkle root over transaction ids (what header.tx_root must equal).
  static Hash32 tx_root_of(const std::vector<Transaction>& txs);
  /// The same root folded from leaves already hashed (kZeroHash when
  /// there are none).
  static Hash32 tx_root_of_leaves(const std::vector<Hash32>& leaves);

  /// Full wire size: header + simulated transaction payloads.
  std::size_t wire_size() const {
    return header.wire_size() + payload_bytes(txs) + txs.size() * 8;
  }

  bool operator==(const Bundle&) const = default;
};

/// A bundle with the leaf digests its tx_root folds — how a node holds
/// a bundle after hashing its transactions once.
struct StoredBundle {
  Bundle bundle;
  std::vector<Hash32> leaves;
};

/// Build and sign a bundle. `tip_list` must already include the
/// producer's own chain at `height` (a producer has trivially "received"
/// its own bundle).
Bundle make_bundle(NodeId producer, BundleHeight height,
                   const Hash32& parent_hash,
                   std::vector<BundleHeight> tip_list,
                   std::vector<Transaction> txs, const KeyPair& key);

/// make_bundle that also returns the leaves it hashed for tx_root, so
/// the producer's own Mempool::add stores them instead of hashing every
/// transaction again.
StoredBundle make_stored_bundle(NodeId producer, BundleHeight height,
                                const Hash32& parent_hash,
                                std::vector<BundleHeight> tip_list,
                                std::vector<Transaction> txs,
                                const KeyPair& key);

/// Signature check against the producer's registered public key.
bool verify_bundle_signature(const BundleHeader& header,
                             const PublicKey& producer_key);

/// Batch form for headers that arrive together (BundleBatch replies,
/// conflict-evidence pairs): one key-registry lock for the whole run
/// (see verify_batch in common/signature.hpp). checks[i] pairs each
/// header with its producer's key; fills ok[i] and returns how many
/// verified. ok must hold checks.size() entries.
struct HeaderSigCheck {
  const BundleHeader* header = nullptr;
  const PublicKey* key = nullptr;
};
std::size_t verify_bundle_signatures(const std::vector<HeaderSigCheck>& checks,
                                     bool* ok);

}  // namespace predis
