// Link-time interposition on the layers that protocol handlers call:
// crypto, erasure, bundle and ledger. Only simbench_traced links this
// file; CMakeLists.txt passes -Wl,--wrap=<symbol> for every symbol
// named in a WRAP line below, so each call from another translation
// unit reaches wrap_<name>, which opens a span of the layer and calls
// the original through __real_<symbol>. Calls inside one translation
// unit stay unwrapped, and a nested call of one layer is counted once
// (see Span::count).
//
// The __real_ references are weak: if a symbol disappears (a function
// is renamed or its signature changes) the binary still links and that
// layer's time falls to its caller's span instead.
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bundle/bundle.hpp"
#include "bundle/mempool.hpp"
#include "bundle/predis_block.hpp"
#include "common/merkle.hpp"
#include "common/sha256.hpp"
#include "common/signature.hpp"
#include "core/ledger.hpp"
#include "erasure/reed_solomon.hpp"
#include "erasure/stripe_codec.hpp"
#include "profiler.hpp"

namespace simbench::layers {

using namespace predis;
using erasure::Expected;
using erasure::ReedSolomon;
using erasure::Stripe;
using erasure::StripeCodec;
using Heights = std::vector<BundleHeight>;
using StripeSet = std::vector<std::optional<Stripe>>;
using ShardSet = std::vector<std::optional<Bytes>>;
using ShardViews = std::span<const std::optional<BytesView>>;
using ShardOut = std::span<const std::span<std::uint8_t>>;
using TipMatrix = std::vector<std::vector<BundleHeight>>;

#define NO_COUNT (void)0

namespace {
std::vector<const char*>& missing() {
  static std::vector<const char*> symbols;
  return symbols;
}
bool note_symbol(const char* symbol, bool present) {
  if (!present) missing().push_back(symbol);
  return present;
}
}  // namespace

// WRAP(symbol, layer, count statement, return type, name, (params), (args))
#define WRAP(SYM, LAYER, COUNT, RET, NAME, PARAMS, ARGS)                  \
  RET real_##NAME PARAMS __asm__("__real_" SYM) __attribute__((weak));   \
  RET wrap_##NAME PARAMS __asm__("__wrap_" SYM);                         \
  RET wrap_##NAME PARAMS {                                               \
    Span span(Layer::LAYER);                                             \
    COUNT;                                                               \
    return real_##NAME ARGS;                                             \
  }                                                                      \
  [[maybe_unused]] const bool present_##NAME =                           \
      note_symbol(SYM, &real_##NAME != nullptr);

// --- crypto: SHA-256 ---------------------------------------------------
WRAP("_ZN6predis6Sha2564hashESt4spanIKhLm18446744073709551615EE",
     kSha256, span.count(Counter::kHashes), Hash32, sha256_hash,
     (BytesView data), (data))
WRAP("_ZN6predis6Sha2566digestEv", kSha256, span.count(Counter::kHashes),
     Hash32, sha256_digest, (Sha256 * self), (self))
WRAP("_ZN6predis6Sha2566updateESt4spanIKhLm18446744073709551615EE",
     kSha256, NO_COUNT, void, sha256_update, (Sha256 * self, BytesView data),
     (self, data))
WRAP("_ZN6predis9hash_pairERKSt5arrayIhLm32EES3_", kSha256,
     span.count(Counter::kHashes), Hash32, hash_pair,
     (const Hash32& l, const Hash32& r), (l, r))
WRAP("_ZN6predis10hash_pairsEPKSt5arrayIhLm32EEmPS1_", kSha256,
     span.count(Counter::kHashes, n), void, hash_pairs,
     (const Hash32* pairs, std::size_t n, Hash32* out), (pairs, n, out))

// --- crypto: signatures ------------------------------------------------
WRAP("_ZN6predis6verifyERKSt5arrayIhLm32EESt4spanIKhLm18446744073709551615EERKS0_IhLm64EE",
     kVerify, span.count(Counter::kVerifies), bool, verify,
     (const PublicKey& key, BytesView msg, const Signature& sig),
     (key, msg, sig))
WRAP("_ZN6predis12verify_batchEPKNS_8SigCheckEmPb", kVerify,
     span.count(Counter::kVerifies, n), std::size_t, verify_batch,
     (const SigCheck* items, std::size_t n, bool* ok), (items, n, ok))

// --- crypto: Merkle trees ----------------------------------------------
WRAP("_ZN6predis10MerkleTreeC1ESt6vectorISt5arrayIhLm32EESaIS3_EE", kMerkle,
     NO_COUNT, void, merkle_ctor1,
     (MerkleTree * self, std::vector<Hash32> leaves),
     (self, std::move(leaves)))
WRAP("_ZN6predis10MerkleTreeC2ESt6vectorISt5arrayIhLm32EESaIS3_EE", kMerkle,
     NO_COUNT, void, merkle_ctor2,
     (MerkleTree * self, std::vector<Hash32> leaves),
     (self, std::move(leaves)))
WRAP("_ZN6predis10MerkleTree7root_ofERKSt6vectorISt5arrayIhLm32EESaIS3_EE",
     kMerkle, NO_COUNT, Hash32, merkle_root_of,
     (const std::vector<Hash32>& leaves), (leaves))
WRAP("_ZNK6predis10MerkleTree5proveEm", kMerkle, NO_COUNT, MerkleProof,
     merkle_prove, (const MerkleTree* self, std::size_t i), (self, i))
WRAP("_ZNK6predis10MerkleTree10prove_intoEmRNS_11MerkleProofE", kMerkle,
     NO_COUNT, void, merkle_prove_into,
     (const MerkleTree* self, std::size_t i, MerkleProof& out),
     (self, i, out))
WRAP("_ZN6predis10MerkleTree6verifyERKSt5arrayIhLm32EES4_RKNS_11MerkleProofE",
     kMerkle, NO_COUNT, bool, merkle_verify,
     (const Hash32& root, const Hash32& leaf, const MerkleProof& proof),
     (root, leaf, proof))

// --- erasure: encode ---------------------------------------------------
WRAP("_ZNK6predis7erasure11StripeCodec6encodeERKNS_6BundleE", kEncode,
     span.count(Counter::kEncodes), StripeCodec::Encoded, codec_encode,
     (const StripeCodec* self, const Bundle& b), (self, b))
WRAP("_ZNK6predis7erasure11StripeCodec11encode_intoERKNS_6BundleERNS1_7EncodedE",
     kEncode, span.count(Counter::kEncodes), void, codec_encode_into,
     (const StripeCodec* self, const Bundle& b, StripeCodec::Encoded& out),
     (self, b, out))
WRAP("_ZNK6predis7erasure11ReedSolomon6encodeESt4spanIKhLm18446744073709551615EE",
     kEncode, span.count(Counter::kEncodes), std::vector<Bytes>, rs_encode,
     (const ReedSolomon* self, BytesView payload), (self, payload))
WRAP("_ZNK6predis7erasure11ReedSolomon11encode_intoESt4spanIKhLm18446744073709551615EES2_IKS2_IhLm18446744073709551615EELm18446744073709551615EE",
     kEncode, span.count(Counter::kEncodes), void, rs_encode_into,
     (const ReedSolomon* self, BytesView payload, ShardOut out),
     (self, payload, out))

// --- erasure: decode ---------------------------------------------------
WRAP("_ZNK6predis7erasure11StripeCodec6decodeERKSt6vectorISt8optionalINS0_6StripeEESaIS5_EE",
     kDecode, span.count(Counter::kDecodes), Bundle, codec_decode,
     (const StripeCodec* self, const StripeSet& s), (self, s))
WRAP("_ZNK6predis7erasure11StripeCodec10try_decodeERKSt6vectorISt8optionalINS0_6StripeEESaIS5_EE",
     kDecode, span.count(Counter::kDecodes), Expected<Bundle>,
     codec_try_decode, (const StripeCodec* self, const StripeSet& s),
     (self, s))
WRAP("_ZNK6predis7erasure11StripeCodec10try_decodeESt4spanIKSt8optionalIS2_IKhLm18446744073709551615EEELm18446744073709551615EE",
     kDecode, span.count(Counter::kDecodes), Expected<Bundle>,
     codec_try_decode_views, (const StripeCodec* self, ShardViews s),
     (self, s))
WRAP("_ZNK6predis7erasure11ReedSolomon6decodeERKSt6vectorISt8optionalIS2_IhSaIhEEESaIS6_EE",
     kDecode, span.count(Counter::kDecodes), Bytes, rs_decode,
     (const ReedSolomon* self, const ShardSet& s), (self, s))
WRAP("_ZNK6predis7erasure11ReedSolomon10try_decodeERKSt6vectorISt8optionalIS2_IhSaIhEEESaIS6_EE",
     kDecode, span.count(Counter::kDecodes), Expected<Bytes>, rs_try_decode,
     (const ReedSolomon* self, const ShardSet& s), (self, s))
WRAP("_ZNK6predis7erasure11ReedSolomon10try_decodeESt4spanIKSt8optionalIS2_IKhLm18446744073709551615EEELm18446744073709551615EE",
     kDecode, span.count(Counter::kDecodes), Expected<Bytes>,
     rs_try_decode_views, (const ReedSolomon* self, ShardViews s),
     (self, s))
WRAP("_ZNK6predis7erasure11ReedSolomon15reconstruct_allERKSt6vectorISt8optionalIS2_IhSaIhEEESaIS6_EE",
     kDecode, span.count(Counter::kDecodes), std::vector<Bytes>,
     rs_reconstruct_all, (const ReedSolomon* self, const ShardSet& s),
     (self, s))

// --- erasure: stripe proof check ---------------------------------------
WRAP("_ZN6predis7erasure11StripeCodec6verifyERKNS0_6StripeERKSt5arrayIhLm32EE",
     kStripeVerify, NO_COUNT, bool, codec_verify,
     (const Stripe& stripe, const Hash32& root), (stripe, root))

// --- bundle: mempool ---------------------------------------------------
WRAP("_ZN6predis7Mempool3addERKNS_6BundleEPNS_16ConflictEvidenceEb", kMempool,
     span.count(Counter::kMempoolAdds), AddBundleResult, mempool_add,
     (Mempool * self, const Bundle& b, ConflictEvidence* ev, bool verified),
     (self, b, ev, verified))
WRAP("_ZN6predis7Mempool13retry_pendingEm", kMempool, NO_COUNT, void,
     mempool_retry_pending, (Mempool * self, std::size_t chain),
     (self, chain))
WRAP("_ZN6predis7Mempool7confirmERKSt6vectorImSaImEE", kMempool, NO_COUNT,
     void, mempool_confirm, (Mempool * self, const Heights& h), (self, h))
WRAP("_ZNK6predis7Mempool8tip_listEv", kMempool, NO_COUNT, Heights,
     mempool_tip_list, (const Mempool* self), (self))
WRAP("_ZNK6predis7Mempool10tip_matrixEv", kMempool, NO_COUNT, TipMatrix,
     mempool_tip_matrix, (const Mempool* self), (self))
WRAP("_ZNK6predis7Mempool13pending_countEm", kMempool, NO_COUNT, std::size_t,
     mempool_pending_count, (const Mempool* self, std::size_t chain),
     (self, chain))
WRAP("_ZN6predis11compute_cutERKNS_7MempoolEjm", kMempool, NO_COUNT, Heights,
     compute_cut, (const Mempool& m, NodeId leader, std::size_t f),
     (m, leader, f))

// --- bundle: block assembly --------------------------------------------
// compute_block_tx_root is only called from inside predis_block.cpp, so
// its self time shows in these spans.
WRAP("_ZN6predis18build_predis_blockERKNS_7MempoolEjmmmRKSt5arrayIhLm32EERKSt6vectorImSaImEERKNS_7KeyPairE",
     kBlock, NO_COUNT, PredisBlock, build_predis_block,
     (const Mempool& m, NodeId leader, std::size_t f, BlockHeight height,
      View view, const Hash32& parent, const Heights& prev,
      const KeyPair& key),
     (m, leader, f, height, view, parent, prev, key))
WRAP("_ZN6predis19verify_predis_blockERKNS_7MempoolERKNS_11PredisBlockERKSt5arrayIhLm32EEPSt6vectorINS_16MissingBundleRefESaISB_EE",
     kBlock, NO_COUNT, BlockVerifyResult, verify_predis_block,
     (const Mempool& m, const PredisBlock& b, const PublicKey& key,
      std::vector<MissingBundleRef>* missing),
     (m, b, key, missing))
WRAP("_ZN6predis20extract_transactionsERKNS_7MempoolERKNS_11PredisBlockE",
     kBlock, NO_COUNT, std::vector<Transaction>, extract_transactions,
     (const Mempool& m, const PredisBlock& b), (m, b))
WRAP("_ZNK6predis11PredisBlock8tx_countERKNS_7MempoolE", kBlock, NO_COUNT,
     std::size_t, block_tx_count,
     (const PredisBlock* self, const Mempool& m), (self, m))
WRAP("_ZN6predis11make_bundleEjmRKSt5arrayIhLm32EESt6vectorImSaImEES4_INS_11TransactionESaIS7_EERKNS_7KeyPairE",
     kBlock, NO_COUNT, Bundle, make_bundle,
     (NodeId producer, BundleHeight height, const Hash32& parent,
      Heights tips, std::vector<Transaction> txs, const KeyPair& key),
     (producer, height, parent, std::move(tips), std::move(txs), key))

// --- core: per-node hash-chained ledgers -------------------------------
WRAP("_ZN6predis4core6Ledger12append_blockERKSt5arrayIhLm32EERKSt6vectorINS_11TransactionESaIS7_EEl",
     kLedger, NO_COUNT, const core::LedgerEntry&, ledger_append_block,
     (core::Ledger * self, const Hash32& digest,
      const std::vector<Transaction>& txs, SimTime when),
     (self, digest, txs, when))
WRAP("_ZN6predis4core6Ledger6appendENS0_11LedgerEntryE", kLedger, NO_COUNT,
     void, ledger_append, (core::Ledger * self, core::LedgerEntry entry),
     (self, std::move(entry)))

#undef WRAP
#undef NO_COUNT

}  // namespace simbench::layers

namespace simbench {
std::vector<const char*> missing_wrapped_symbols() {
  return layers::missing();
}
}  // namespace simbench
