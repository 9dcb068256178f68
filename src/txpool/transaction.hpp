// Transactions and the client request/reply wire messages.
//
// A simulated transaction does not materialize its payload: it carries
// the payload *size* (512 bytes in all paper experiments) plus a seed
// so its hash is unique. Wire sizes, Merkle leaves and bandwidth costs
// all use the declared size, so throughput numbers are unaffected by
// the optimization.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/codec.hpp"
#include "common/sha256.hpp"
#include "common/types.hpp"
#include "runtime/message.hpp"

namespace predis {

struct Transaction {
  NodeId client = kNoNode;  ///< Submitting client (reply address).
  TxSeq seq = 0;            ///< Client-local sequence number.
  std::uint32_t size = 512; ///< Simulated payload size in bytes.
  SimTime submitted_at = 0; ///< Client submission time (latency anchor).
  std::uint64_t payload_seed = 0;  ///< Stands in for payload content.
  /// §IV-D second dissemination strategy: the client writes the index
  /// of the target consensus node on the transaction and full nodes
  /// forward it there. kNoNode = direct submission (strategy one).
  NodeId target_consensus = kNoNode;

  void encode(Writer& w) const {
    w.u32(client);
    w.u64(seq);
    w.u32(size);
    w.i64(submitted_at);
    w.u64(payload_seed);
    w.u32(target_consensus);
  }

  static Transaction decode(Reader& r) {
    Transaction tx;
    tx.client = r.u32();
    tx.seq = r.u64();
    tx.size = r.u32();
    tx.submitted_at = r.i64();
    tx.payload_seed = r.u64();
    tx.target_consensus = r.u32();
    return tx;
  }

  /// Bytes encode() writes: fixed-width fields, no length prefixes.
  static constexpr std::size_t kEncodedSize = 4 + 8 + 4 + 8 + 8 + 4;

  /// SHA-256 of the encode() bytes, equal to hash_of(*this). Encodes
  /// into a stack buffer: ids are the Merkle leaves of every bundle and
  /// block root, so this is the hottest hash call in the simulator.
  Hash32 id() const {
    std::array<std::uint8_t, kEncodedSize> buf;
    std::size_t pos = 0;
    const auto put = [&buf, &pos](std::uint64_t v, std::size_t width) {
      for (std::size_t i = 0; i < width; ++i) {
        buf[pos++] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    };
    put(client, 4);
    put(seq, 8);
    put(size, 4);
    put(static_cast<std::uint64_t>(submitted_at), 8);
    put(payload_seed, 8);
    put(target_consensus, 4);
    return Sha256::hash(BytesView{buf.data(), buf.size()});
  }

  bool operator==(const Transaction&) const = default;
};

/// Sum of the simulated payload sizes of a batch of transactions.
inline std::size_t payload_bytes(const std::vector<Transaction>& txs) {
  std::size_t total = 0;
  for (const auto& tx : txs) total += tx.size;
  return total;
}

/// Client -> consensus node: a batch of transactions.
struct ClientRequestMsg final : runtime::Message {
  std::vector<Transaction> txs;

  std::size_t wire_size() const override {
    return payload_bytes(txs) + txs.size() * 24;  // per-tx envelope
  }
  const char* name() const override { return "ClientRequest"; }
};

/// Consensus node -> client: acknowledgement that the listed sequence
/// numbers committed. Tiny.
struct ClientReplyMsg final : runtime::Message {
  std::vector<TxSeq> seqs;
  SimTime committed_at = 0;

  std::size_t wire_size() const override { return 16 + seqs.size() * 8; }
  const char* name() const override { return "ClientReply"; }
};

}  // namespace predis
