// Span accounting for the traced benchmark binary.
//
// One process-wide profiler keeps a stack of open spans. A span's self
// time is its duration minus the spans opened inside it, so the self
// times of all layers add up exactly to the root span: the traced
// run_until. Spans are opened from two places outside src/: the
// benchmark's Runtime decorator (actor callbacks, timer callbacks,
// send/schedule) and the link-time wrappers in layers.cpp (crypto,
// erasure, bundle, ledger). Time is read from the TSC and scaled to
// seconds against steady_clock over the root spans.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace simbench {

enum class Layer : std::uint8_t {
  kRuntime,       ///< Event queue, link model, send/schedule calls.
  kConsensus,     ///< Consensus-module handlers and timers.
  kMultizone,     ///< Multi-Zone handlers.
  kTxpool,        ///< Client actors.
  kSha256,        ///< Sha256::hash/update/digest, hash_pair(s).
  kVerify,        ///< Signature verification.
  kMerkle,        ///< Merkle tree build, proofs, proof checks.
  kEncode,        ///< Stripe codec / Reed-Solomon encode.
  kDecode,        ///< Stripe codec / Reed-Solomon decode.
  kStripeVerify,  ///< Stripe proof check against a stripe root.
  kMempool,       ///< Mempool member functions and compute_cut.
  kBlock,         ///< Predis block build/verify/extract, make_bundle.
  kLedger,        ///< core::Ledger appends.
  kUnattributed,  ///< Harness timers and actors of no known module.
  kCount
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

enum class Counter : std::uint8_t {
  kHashes,
  kVerifies,
  kEncodes,
  kDecodes,
  kMempoolAdds,
  kTimers,
  kConsensusMsgs,
  kStripeMsgs,
  kSubscribes,
  kAccepts,
  kCount
};
inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct Profiler {
  static constexpr int kMaxDepth = 64;
  struct Frame {
    Layer layer;
    std::uint64_t start;
    std::uint64_t child;
  };

  bool active = false;
  int depth = 0;
  Frame stack[kMaxDepth];
  std::uint64_t self[kLayerCount] = {};
  std::uint64_t counts[kCounterCount] = {};
  std::uint64_t timer_ticks = 0;  ///< Inclusive time in timer callbacks.

  /// Opens a span; returns false when the enclosing span has the same
  /// layer (a nested call of one layer is counted once).
  bool push(Layer layer) {
    if (depth == kMaxDepth) std::abort();
    const bool outermost = depth == 0 || stack[depth - 1].layer != layer;
    stack[depth++] = Frame{layer, ticks(), 0};
    return outermost;
  }

  /// Closes the innermost span; returns its inclusive duration.
  std::uint64_t pop() {
    const Frame f = stack[--depth];
    const std::uint64_t dur = ticks() - f.start;
    self[static_cast<std::size_t>(f.layer)] += dur - f.child;
    if (depth > 0) stack[depth - 1].child += dur;
    return dur;
  }

  void count(Counter c, std::uint64_t n = 1) {
    counts[static_cast<std::size_t>(c)] += n;
  }

  void reset() {
    active = false;
    depth = 0;
    for (auto& s : self) s = 0;
    for (auto& c : counts) c = 0;
    timer_ticks = 0;
  }
};

/// Wrapped symbols (layers.cpp) that the linked program does not define.
std::vector<const char*> missing_wrapped_symbols();

inline Profiler g_profiler;

inline Profiler& profiler() { return g_profiler; }

/// RAII span; a no-op outside the traced run_until.
class Span {
 public:
  explicit Span(Layer layer) : on_(profiler().active) {
    if (on_) outermost_ = profiler().push(layer);
  }
  ~Span() {
    if (on_) profiler().pop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Counts `n` once per outermost call of this span's layer.
  void count(Counter c, std::uint64_t n = 1) {
    if (on_ && outermost_) profiler().count(c, n);
  }

 private:
  bool on_;
  bool outermost_ = false;
};

}  // namespace simbench
