// simbench: runs one benchmark workload through the repo's public
// experiment runners and prints one JSON line per scenario run.
//
//   simbench --workload cluster-ppbft --seeds 18,19,20 --seconds 10
//
// Every scenario runs on a benchmark-owned SimRuntime handed to the
// runner through RunContext::backend, behind a Runtime decorator that
// splits run_until at the start of the scenario's measurement window
// (set-up time) without changing any model output. A round runs one
// scenario per seed; rounds repeat until --seconds of wall time have
// passed. The model outputs of one seed must be identical in every
// round, and run.py reports host-time medians over rounds.
//
// Host times are process CPU time (CLOCK_PROCESS_CPUTIME_ID). The
// simulator is single-threaded, so that is the time it computes; unlike
// wall time it leaves out the time a shared host's hypervisor takes the
// vCPU away (steal time), which grows when the host is busy.
//
// Built twice (CMakeLists.txt): plain, and with SIMBENCH_TRACED, where
// the decorator also wraps every actor and timer callback in a span and
// layers.cpp interposes on the crypto/erasure/bundle/ledger layers, so
// each scenario line carries per-layer self times and counts.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "erasure/stripe_codec.hpp"
#include "multizone/experiments.hpp"
#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"

#ifdef SIMBENCH_TRACED
#include <cxxabi.h>

#include <typeindex>
#include <unordered_map>

#include "profiler.hpp"
#endif

namespace {

using namespace predis;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds used by this process so far.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------
// Runtime decorator: forwards every call to the benchmark's SimRuntime
// and splits run_until at `split` to time the set-up phase. Splitting
// is invisible to the model: the simulator executes the same events in
// the same order either way.
// ---------------------------------------------------------------------
class SplitRuntime : public runtime::Runtime {
 public:
  SplitRuntime(runtime::Runtime& inner, SimTime split)
      : inner_(inner), split_(split) {}

  NodeId add_node(const runtime::NodeConfig& c) override {
    return inner_.add_node(c);
  }
  void attach(NodeId id, runtime::Actor* actor) override {
    inner_.attach(id, actor);
  }
  std::size_t node_count() const override { return inner_.node_count(); }
  std::uint32_t region_of(NodeId id) const override {
    return inner_.region_of(id);
  }
  SimTime now() const override { return inner_.now(); }
  runtime::TimerHandle schedule(NodeId owner, SimTime delay,
                                std::function<void()> fn) override {
    return inner_.schedule(owner, delay, std::move(fn));
  }
  void send(NodeId from, NodeId to, runtime::MsgPtr msg) override {
    inner_.send(from, to, std::move(msg));
  }
  void multicast(NodeId from, const std::vector<NodeId>& to,
                 const runtime::MsgPtr& msg) override {
    inner_.multicast(from, to, msg);
  }
  void start() override { inner_.start(); }
  void run_until(SimTime limit) override {
    const double run_start = cpu_now();
    if (!split_done_ && inner_.now() < split_ && split_ < limit) {
      inner_.run_until(split_);
      split_at_ = cpu_now();
      split_done_ = true;
    }
    inner_.run_until(limit);
    run_seconds_ += cpu_now() - run_start;
  }
  void set_node_down(NodeId id, bool down) override {
    inner_.set_node_down(id, down);
  }
  void notify_reconnect(NodeId id) override { inner_.notify_reconnect(id); }
  bool is_down(NodeId id) const override { return inner_.is_down(id); }
  void set_drop_filter(DropFilter f) override {
    inner_.set_drop_filter(std::move(f));
  }
  void set_extra_delay(DelayFn fn) override {
    inner_.set_extra_delay(std::move(fn));
  }
  void set_tracer(runtime::TraceHasher* t) override { inner_.set_tracer(t); }
  runtime::TrafficStats stats(NodeId id) const override {
    return inner_.stats(id);
  }
  SimTime uplink_backlog(NodeId id) const override {
    return inner_.uplink_backlog(id);
  }
  std::uint64_t total_bytes_sent() const override {
    return inner_.total_bytes_sent();
  }

  bool split_done() const { return split_done_; }
  /// CPU time (cpu_now) at which run_until reached the split.
  double split_at() const { return split_at_; }
  /// CPU seconds spent inside run_until.
  double run_seconds() const { return run_seconds_; }

 protected:
  runtime::Runtime& inner_;

 private:
  SimTime split_;
  bool split_done_ = false;
  double split_at_ = 0.0;
  double run_seconds_ = 0.0;
};

#ifdef SIMBENCH_TRACED
using simbench::Counter;
using simbench::Layer;
using simbench::Span;

std::string demangle(const std::type_info& t) {
  int status = 0;
  char* s = abi::__cxa_demangle(t.name(), nullptr, nullptr, &status);
  std::string out = status == 0 && s != nullptr ? s : t.name();
  std::free(s);
  return out;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Module of an actor, by its type. Multi-Zone consensus nodes run the
/// Predis engine and schedule only its timers, so they count as
/// consensus; their Multi-Zone messages are attributed by message type.
Layer actor_layer(const runtime::Actor& actor) {
  const std::string name = demangle(typeid(actor));
  if (starts_with(name, "predis::consensus::")) return Layer::kConsensus;
  if (name == "predis::multizone::MultiZoneConsensusNode") {
    return Layer::kConsensus;
  }
  if (starts_with(name, "predis::multizone::")) return Layer::kMultizone;
  if (name == "predis::ClientActor") return Layer::kTxpool;
  return Layer::kUnattributed;
}

/// What the decorator needs to know about one message type.
struct MsgKind {
  std::optional<Layer> layer;  ///< nullopt: the receiving actor's module.
  bool stripe = false;
  bool subscribe = false;
  bool accept = false;
};

const MsgKind& msg_kind(const runtime::Message& msg) {
  static std::unordered_map<std::type_index, MsgKind> cache;
  const std::type_index key(typeid(msg));
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const std::string type = demangle(typeid(msg));
  const std::string name = msg.name();
  MsgKind k;
  if (starts_with(type, "predis::consensus::")) k.layer = Layer::kConsensus;
  if (starts_with(type, "predis::multizone::")) k.layer = Layer::kMultizone;
  k.stripe = name == "Stripe";
  k.subscribe = name == "Subscribe";
  k.accept = name == "AcceptSubscribe";
  return cache.emplace(key, k).first->second;
}

/// Wraps one attached actor: every delivery is a span of the module
/// the message (or, for client messages, the receiver) belongs to.
class TracedActor final : public runtime::Actor {
 public:
  TracedActor(runtime::Actor& inner, Layer layer)
      : inner_(inner), layer_(layer) {}
  void on_start() override { inner_.on_start(); }
  void on_restart() override { inner_.on_restart(); }
  void on_message(NodeId from, const runtime::MsgPtr& msg) override {
    const MsgKind& k = msg_kind(*msg);
    const Layer layer = k.layer.value_or(layer_);
    auto& p = simbench::profiler();
    if (p.active) {
      if (layer == Layer::kConsensus) p.count(Counter::kConsensusMsgs);
      if (k.stripe) p.count(Counter::kStripeMsgs);
      if (k.subscribe) p.count(Counter::kSubscribes);
      if (k.accept) p.count(Counter::kAccepts);
    }
    Span span(layer);
    inner_.on_message(from, msg);
  }

 private:
  runtime::Actor& inner_;
  Layer layer_;
};

class TracedRuntime final : public SplitRuntime {
 public:
  using SplitRuntime::SplitRuntime;

  void attach(NodeId id, runtime::Actor* actor) override {
    const Layer layer = actor_layer(*actor);
    if (owner_layer_.size() <= id) {
      owner_layer_.resize(id + 1, Layer::kUnattributed);
    }
    owner_layer_[id] = layer;
    wrapped_.push_back(std::make_unique<TracedActor>(*actor, layer));
    inner_.attach(id, wrapped_.back().get());
  }
  runtime::TimerHandle schedule(NodeId owner, SimTime delay,
                                std::function<void()> fn) override {
    Span span(Layer::kRuntime);
    const Layer layer = owner < owner_layer_.size() ? owner_layer_[owner]
                                                     : Layer::kUnattributed;
    return inner_.schedule(owner, delay, [layer, fn = std::move(fn)] {
      auto& p = simbench::profiler();
      if (!p.active) {
        fn();
        return;
      }
      p.count(Counter::kTimers);
      p.push(layer);
      fn();
      p.timer_ticks += p.pop();
    });
  }
  void send(NodeId from, NodeId to, runtime::MsgPtr msg) override {
    Span span(Layer::kRuntime);
    inner_.send(from, to, std::move(msg));
  }
  void multicast(NodeId from, const std::vector<NodeId>& to,
                 const runtime::MsgPtr& msg) override {
    Span span(Layer::kRuntime);
    inner_.multicast(from, to, msg);
  }
  void run_until(SimTime limit) override {
    auto& p = simbench::profiler();
    const auto t0 = Clock::now();
    p.active = true;
    p.push(Layer::kRuntime);
    SplitRuntime::run_until(limit);
    root_ticks_ += p.pop();
    p.active = false;
    root_seconds_ += seconds_between(t0, Clock::now());
    if (p.depth != 0) std::abort();
  }

  std::uint64_t root_ticks() const { return root_ticks_; }
  double root_seconds() const { return root_seconds_; }

 private:
  std::vector<Layer> owner_layer_;
  std::vector<std::unique_ptr<TracedActor>> wrapped_;
  std::uint64_t root_ticks_ = 0;
  double root_seconds_ = 0.0;
};
using BenchRuntime = TracedRuntime;
#else
using BenchRuntime = SplitRuntime;
#endif

// ---------------------------------------------------------------------
// One scenario run: host times, model outputs, operations and checks.
// ---------------------------------------------------------------------
struct Record {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Model outputs (deterministic per seed), printed with every digit.
  std::vector<std::pair<std::string, double>> model;
  std::vector<std::pair<std::string, std::string>> model_text;
  std::vector<std::pair<std::string, bool>> checks;
  /// Traced runs only: per-layer seconds and counts.
  std::vector<std::pair<std::string, double>> layers;

  void put(const std::string& k, double v) { model.emplace_back(k, v); }
  void check(const std::string& k, bool ok) { checks.emplace_back(k, ok); }
};

/// Wall-clock bookkeeping shared by every workload.
struct Harness {
  runtime::SimRuntime sim;
  BenchRuntime rt;
  Clock::time_point start = Clock::now();
  double cpu_start = cpu_now();
  std::uint64_t events_before;

  Harness(runtime::LatencyMatrix latency, SimTime split)
      : sim(std::move(latency)),
        rt(sim.runtime(), split),
        events_before(sim.simulator().events_executed()) {}

  void finish(Record& r) {
    r.wall_s = seconds_between(start, Clock::now());
    r.cpu_s = cpu_now() - cpu_start;
    r.setup_s = (rt.split_done() ? rt.split_at() : cpu_now()) - cpu_start;
    r.run_s = rt.run_seconds();
    r.events = sim.simulator().events_executed() - events_before;
    r.check("setup_split_reached", rt.split_done());
    std::uint64_t messages = 0;
    for (NodeId id = 0; id < rt.node_count(); ++id) {
      messages += rt.stats(id).messages_sent;
    }
    r.put("messages", static_cast<double>(messages));
    r.put("wire_mb", static_cast<double>(rt.total_bytes_sent()) / 1e6);
    r.put("events", static_cast<double>(r.events));
#ifdef SIMBENCH_TRACED
    const auto& p = simbench::profiler();
    const double per_tick =
        rt.root_ticks() == 0
            ? 0.0
            : rt.root_seconds() / static_cast<double>(rt.root_ticks());
    const auto sec = [&](Layer l) {
      return static_cast<double>(p.self[static_cast<std::size_t>(l)]) *
             per_tick;
    };
    const auto cnt = [&](Counter c) {
      return static_cast<double>(p.counts[static_cast<std::size_t>(c)]);
    };
    r.layers = {
        {"trace.run_until_s", rt.root_seconds()},
        {"runtime.self_s", sec(Layer::kRuntime)},
        {"runtime.timer_s", static_cast<double>(p.timer_ticks) * per_tick},
        {"runtime.timers", cnt(Counter::kTimers)},
        {"consensus.handler_s", sec(Layer::kConsensus)},
        {"consensus.messages", cnt(Counter::kConsensusMsgs)},
        {"multizone.handler_s", sec(Layer::kMultizone)},
        {"multizone.stripe_msgs", cnt(Counter::kStripeMsgs)},
        {"multizone.subscribes", cnt(Counter::kSubscribes)},
        {"multizone.accepts", cnt(Counter::kAccepts)},
        {"txpool.client_s", sec(Layer::kTxpool)},
        {"crypto.sha256_s", sec(Layer::kSha256)},
        {"crypto.hashes", cnt(Counter::kHashes)},
        {"crypto.verify_s", sec(Layer::kVerify)},
        {"crypto.verifies", cnt(Counter::kVerifies)},
        {"crypto.merkle_s", sec(Layer::kMerkle)},
        {"erasure.encode_s", sec(Layer::kEncode)},
        {"erasure.encodes", cnt(Counter::kEncodes)},
        {"erasure.decode_s", sec(Layer::kDecode)},
        {"erasure.decodes", cnt(Counter::kDecodes)},
        {"erasure.verify_s", sec(Layer::kStripeVerify)},
        {"bundle.mempool_s", sec(Layer::kMempool)},
        {"bundle.mempool_adds", cnt(Counter::kMempoolAdds)},
        {"bundle.block_s", sec(Layer::kBlock)},
        {"core.ledger_s", sec(Layer::kLedger)},
        {"trace.unattributed_s", sec(Layer::kUnattributed)},
    };
#endif
  }
};

// ---------------------------------------------------------------------
// Workloads. Parameters and their reasons are in README.md.
// ---------------------------------------------------------------------

/// Highest committed tx/s a runner may report over [from, to] without
/// creating transactions. The window counts whole blocks, so it also
/// holds transactions submitted before `from` that were still in
/// flight; the runners assume in-flight work completes within `drain`
/// (their post-load drain), which bounds that backlog.
double offered_ceiling(double offered_tps, SimTime from, SimTime to,
                       SimTime drain) {
  return offered_tps * to_seconds(to - from + drain) / to_seconds(to - from);
}

/// P-PBFT on the paper's WAN matrix, below the throughput knee.
struct ClusterWorkload {
  static constexpr double kOfferedTps = 16'000.0;
  static constexpr std::size_t kClients = 8;

  static core::ClusterConfig config(std::uint64_t seed) {
    core::ClusterConfig c;
    c.protocol = core::Protocol::kPredisPbft;
    c.n_consensus = 4;
    c.f = 1;
    c.wan = true;
    c.offered_load_tps = kOfferedTps;
    c.n_clients = kClients;
    c.tx_size = 512;
    c.bundle_size = 50;
    c.duration = seconds(12);
    c.warmup = seconds(3);
    c.drain = milliseconds(1500);
    c.seed = seed;
    return c;
  }

  /// Lower bound on client p50 from the WAN matrix and P-PBFT's message
  /// pattern: request to the client's consensus node, that node's
  /// bundle reaching the leader (node 0, view 0) unless it is the
  /// leader, three phases of at least one inter-node hop each, and the
  /// reply. Clients offer equal load, so more than half the samples
  /// come from the clients at or above the lower-middle client's bound.
  static double p50_lower_bound_ms(const core::ClusterConfig& c) {
    const runtime::LatencyMatrix m = runtime::wan_latency();
    const std::size_t regions = runtime::kWanRegions;
    SimTime hop = kSimTimeNever;
    for (std::size_t a = 0; a < c.n_consensus; ++a) {
      for (std::size_t b = 0; b < c.n_consensus; ++b) {
        if (a == b) continue;
        hop = std::min(hop, m.at(static_cast<std::uint32_t>(a % regions),
                                 static_cast<std::uint32_t>(b % regions)));
      }
    }
    const auto leader_region = 0u;
    std::vector<double> bounds;
    for (std::size_t cl = 0; cl < c.n_clients; ++cl) {
      const auto cr = static_cast<std::uint32_t>(cl % regions);
      const auto tr =
          static_cast<std::uint32_t>((cl % c.n_consensus) % regions);
      SimTime b = m.at(cr, tr) + 3 * hop + m.at(tr, cr);
      if (cl % c.n_consensus != 0) b += m.at(tr, leader_region);
      bounds.push_back(to_milliseconds(b));
    }
    std::sort(bounds.begin(), bounds.end());
    return bounds[(bounds.size() - 1) / 2];
  }

  static Record run(std::uint64_t seed) {
    core::ClusterConfig cfg = config(seed);
    Harness h(runtime::wan_latency(), cfg.warmup);
    cfg.ctx.backend = &h.rt;
    const core::ClusterResult res = core::run_cluster(cfg);
    Record r;
    h.finish(r);
    r.put("committed_tps", res.throughput_tps);
    r.put("client_p50_ms", res.p50_latency_ms);
    r.put("client_p99_ms", res.p99_latency_ms);
    r.put("client_mean_ms", res.avg_latency_ms);
    r.put("committed_txs", static_cast<double>(res.committed_txs));
    r.put("submitted_txs", static_cast<double>(res.submitted_txs));
    r.put("offered_txs", static_cast<double>(res.submitted_txs));
    r.put("commit_events", static_cast<double>(res.commit_events));
    r.put("consensus_uplink_mbps", res.consensus_uplink_mbps);
    r.put("ledger_blocks_min", static_cast<double>(res.ledger_blocks_min));
    r.put("ledger_blocks_max", static_cast<double>(res.ledger_blocks_max));
    r.model_text.emplace_back("commit_digest", res.commit_digest);
    const double bound = p50_lower_bound_ms(cfg);
    r.put("p50_lower_bound_ms", bound);

    r.check("safety_consistent", res.consistent);
    r.check("safety_ledgers_consistent", res.ledgers_consistent);
    r.check("conservation_committed_le_submitted",
            res.committed_txs <= res.submitted_txs);
    r.check("conservation_tps_le_offered",
            res.throughput_tps <= offered_ceiling(kOfferedTps, cfg.warmup,
                                                  cfg.duration, cfg.drain));
    r.check("unsaturated_tps_ge_95pct",
            res.throughput_tps >= 0.95 * kOfferedTps);
    r.check("link_capacity_uplink_le_100mbps",
            res.consensus_uplink_mbps <= 100.0);
    r.check("latency_p50_ge_bound", res.p50_latency_ms >= bound);
    r.attempted = res.submitted_txs;
    r.failed = res.submitted_txs - std::min(res.submitted_txs, res.committed_txs);
    return r;
  }
};

/// Multi-Zone data plane with real erasure-coded stripes (Fig. 7).
struct DistributionWorkload {
  static constexpr double kOfferedTps = 9'000.0;

  static multizone::ThroughputConfig config(std::uint64_t seed) {
    multizone::ThroughputConfig c;
    c.topology = multizone::Topology::kMultiZone;
    c.n_consensus = 4;
    c.f = 1;
    c.n_full = 24;
    c.n_zones = 3;
    c.offered_load_tps = kOfferedTps;
    c.n_clients = 8;
    c.bundle_size = 50;
    c.duration = seconds(12);
    c.warmup = seconds(5);
    c.drain = milliseconds(1500);
    c.real_stripe_payloads = true;
    c.seed = seed;
    return c;
  }

  /// Start of the runner's measurement window: staggered joins (120 ms
  /// apart) plus 1.5 s of relayer convergence, then the warm-up.
  static SimTime window_start(const multizone::ThroughputConfig& c) {
    return static_cast<SimTime>(c.n_full) * milliseconds(120) +
           milliseconds(1500) + c.warmup;
  }

  /// A bundle made from the seed, encoded with the stripe codec, must
  /// decode from every (n - f)-subset of its stripes.
  static bool erasure_round_trip(const multizone::ThroughputConfig& c,
                                 std::uint64_t seed) {
    const std::size_t n = c.n_consensus;
    const std::size_t k = c.n_consensus - c.f;
    Rng rng(seed);
    std::vector<Transaction> txs(c.bundle_size);
    for (std::size_t i = 0; i < txs.size(); ++i) {
      txs[i].client = 1000;
      txs[i].seq = i;
      txs[i].payload_seed = rng.next();
    }
    const KeyPair key = KeyPair::from_seed(0);
    const Bundle bundle = make_bundle(0, 1, kZeroHash,
                                      std::vector<BundleHeight>(n, 0),
                                      std::move(txs), key);
    const erasure::StripeCodec codec(k, n);
    const erasure::StripeCodec::Encoded enc = codec.encode(bundle);
    const Bytes want = erasure::StripeCodec::serialize_bundle(bundle);
    if (enc.stripes.size() != n) return false;
    std::size_t subsets = 0;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      if (static_cast<std::size_t>(__builtin_popcount(mask)) != k) continue;
      std::vector<std::optional<erasure::Stripe>> in(n);
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1u) {
          if (!erasure::StripeCodec::verify(enc.stripes[i], enc.stripe_root)) {
            return false;
          }
          in[i] = enc.stripes[i];
        }
      }
      const erasure::Expected<Bundle> out = codec.try_decode(in);
      if (!out.ok()) return false;
      if (erasure::StripeCodec::serialize_bundle(out.value()) != want) {
        return false;
      }
      ++subsets;
    }
    return subsets > 0;
  }

  static Record run(std::uint64_t seed) {
    multizone::ThroughputConfig cfg = config(seed);
    Harness h(runtime::lan_latency(), window_start(cfg));
    cfg.ctx.backend = &h.rt;
    const multizone::ThroughputResult res =
        multizone::run_distribution_cluster(cfg);
    Record r;
    h.finish(r);
    r.put("committed_tps", res.throughput_tps);
    r.put("client_mean_ms", res.avg_latency_ms);
    r.put("offered_txs", std::round(kOfferedTps * to_seconds(cfg.duration)));
    r.put("coverage", res.full_node_coverage);
    r.put("consensus_uplink_mbps", res.consensus_uplink_mbps);
    r.put("consensus_bytes_sent", static_cast<double>(res.consensus_bytes_sent));
    r.put("relayers_seen", static_cast<double>(res.relayers_seen));
    r.put("view_changes", static_cast<double>(res.view_changes));
    r.put("last_executed_min", static_cast<double>(res.last_executed_min));
    r.put("last_executed_max", static_cast<double>(res.last_executed_max));

    r.check("safety_consistent", res.consistent);
    const SimTime setup = window_start(cfg) - cfg.warmup;
    r.check("conservation_tps_le_offered",
            res.throughput_tps <=
                offered_ceiling(kOfferedTps, setup + cfg.warmup,
                                setup + cfg.duration, cfg.drain));
    r.check("link_capacity_uplink_le_100mbps",
            res.consensus_uplink_mbps <= 100.0);
    r.check("erasure_round_trip", erasure_round_trip(cfg, seed));
    // One operation per committed block. Per-node block coverage is
    // printed but not counted: its shortfall varies with the seed.
    r.attempted = res.last_executed_max;
    r.failed = 0;
    return r;
  }
};

/// Fig. 8 Multi-Zone control plane: 12 zones, 100 full nodes.
struct PropagationWorkload {
  static multizone::PropagationConfig config(std::uint64_t seed) {
    multizone::PropagationConfig c;
    c.topology = multizone::Topology::kMultiZone;
    c.n_consensus = 8;
    c.f = 2;
    c.n_full = 100;
    c.n_zones = 12;
    c.block_bytes = std::size_t{5} << 20;
    c.n_blocks = 4;
    c.seed = seed;
    return c;
  }

  /// The first block's bundles start at the end of the runner's set-up:
  /// staggered joins plus 3 s of convergence (at least setup_time).
  static SimTime window_start(const multizone::PropagationConfig& c) {
    return std::max(c.setup_time, static_cast<SimTime>(c.n_full) *
                                          milliseconds(120) +
                                      seconds(3));
  }

  static Record run(std::uint64_t seed) {
    multizone::PropagationConfig cfg = config(seed);
    Harness h(runtime::lan_latency(), window_start(cfg));
    cfg.ctx.backend = &h.rt;
    const multizone::PropagationResult res = multizone::run_propagation(cfg);
    Record r;
    h.finish(r);
    const auto at = [&](double frac) {
      const auto it = res.latency_ms_at_fraction.find(frac);
      return it == res.latency_ms_at_fraction.end() ? std::nan("")
                                                    : it->second;
    };
    const double half = at(0.5);
    const double all = at(1.0);
    r.put("reach_half_ms", half);
    r.put("reach_all_ms", all);
    r.put("reach_90_ms", at(0.9));
    r.put("coverage", res.full_coverage_fraction);
    const double hop_ms =
        to_milliseconds(runtime::lan_latency().at(0, 0));
    const std::uint64_t pairs = cfg.n_blocks * cfg.n_full;
    const auto delivered = static_cast<std::uint64_t>(
        std::llround(res.full_coverage_fraction * static_cast<double>(pairs)));
    r.put("offered_txs", static_cast<double>(
                           cfg.n_blocks *
                           std::max<std::size_t>(1, cfg.block_bytes /
                                                        cfg.bundle_bytes) *
                           std::max<std::size_t>(1, cfg.bundle_bytes / 512)));

    r.check("propagation_coverage_full", res.full_coverage_fraction == 1.0);
    r.check("propagation_half_le_all", half <= all);
    r.check("propagation_all_ge_lan_hop", all >= hop_ms);
    r.attempted = pairs;
    r.failed = pairs - std::min(pairs, delivered);
    return r;
  }
};

struct WorkloadEntry {
  const char* name;
  Record (*run)(std::uint64_t seed);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"cluster-ppbft", &ClusterWorkload::run},
    {"distribution-mz3", &DistributionWorkload::run},
    {"propagation-mz12", &PropagationWorkload::run},
};

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

template <typename T, typename F>
void print_object(const std::vector<std::pair<std::string, T>>& kv, F value) {
  std::putchar('{');
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) std::putchar(',');
    print_json_string(kv[i].first);
    std::putchar(':');
    value(kv[i].second);
  }
  std::putchar('}');
}

void print_record(const Record& r, std::size_t round, std::uint64_t seed) {
  std::printf("{\"round\":%zu,\"seed\":%llu,\"wall_s\":", round,
              static_cast<unsigned long long>(seed));
  print_number(r.wall_s);
  std::printf(",\"cpu_s\":");
  print_number(r.cpu_s);
  std::printf(",\"setup_s\":");
  print_number(r.setup_s);
  std::printf(",\"run_s\":");
  print_number(r.run_s);
  std::printf(",\"events\":%llu,\"attempted\":%llu,\"failed\":%llu,\"model\":",
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_object(r.model, print_number);
  std::printf(",\"model_text\":");
  print_object(r.model_text, print_json_string);
  std::printf(",\"checks\":");
  print_object(r.checks, [](bool b) { std::printf(b ? "true" : "false"); });
  std::printf(",\"layers\":");
  print_object(r.layers, print_number);
  std::printf("}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: simbench --workload <name> --seeds <n,n,...> "
               "--seconds <s>\n"
               "workloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::vector<std::uint64_t> parse_seeds(const char* list) {
  std::vector<std::uint64_t> seeds;
  const char* p = list;
  while (*p != '\0') {
    char* end = nullptr;
    seeds.push_back(std::strtoull(p, &end, 10));
    if (end == p) return {};
    p = *end == ',' ? end + 1 : end;
  }
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double budget = 0.0;
  if ((argc - 1) % 2 != 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seeds") {
      seeds = parse_seeds(value);
    } else if (flag == "--seconds") {
      budget = std::strtod(value, nullptr);
    } else {
      return usage();
    }
  }
  const WorkloadEntry* entry = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload == w.name) entry = &w;
  }
  if (entry == nullptr || seeds.empty()) return usage();
#ifdef SIMBENCH_TRACED
  for (const char* sym : simbench::missing_wrapped_symbols()) {
    std::fprintf(stderr, "simbench_traced: %s is not in the program; its "
                         "time falls to the caller's span\n", sym);
  }
#endif

  // Whole rounds only (every seed once per round), as many as fit the
  // host-time budget; at least one.
  const auto start = Clock::now();
  std::size_t round = 0;
  double round_seconds = 0.0;
  do {
    const auto round_start = Clock::now();
    for (std::uint64_t seed : seeds) {
#ifdef SIMBENCH_TRACED
      simbench::profiler().reset();
#endif
      print_record(entry->run(seed), round, seed);
    }
    ++round;
    round_seconds = seconds_between(round_start, Clock::now());
  } while (seconds_between(start, Clock::now()) + round_seconds <= budget);

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  std::printf("{\"peak_rss_kb\":%ld,\"rounds\":%zu}\n", usage_now.ru_maxrss,
              round);
  return 0;
}
