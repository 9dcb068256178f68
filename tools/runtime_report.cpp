// runtime_report — backend comparison for the Runtime seam. Runs one
// fixed P-PBFT cluster scenario and one Multi-Zone distribution
// scenario on both backends:
//
//   * SimRuntime            — deterministic discrete-event model;
//                             throughput/latency are model-time numbers
//                             under the 100 Mbps fluid network;
//   * ThreadRuntime (wall)  — the same scenario objects executing on a
//                             real worker pool; throughput/latency are
//                             wall-clock numbers limited by the host's
//                             cores (no modeled network).
//
// The scenario assembly code is byte-for-byte the same — only
// RunContext::backend changes — which is the point of the seam: the
// report fails loudly if a scenario can no longer run unmodified on
// both. Emits machine-readable BENCH_runtime.json; a value the run does
// not measure (the Multi-Zone runner's latency percentiles) is null.
//
// Usage: runtime_report [--smoke] [--strict] [--workers N] [--out-dir DIR]
//   --smoke    reduced durations (CI-sized runs)
//   --strict   exit non-zero when a run commits nothing, breaks
//              consistency, or the two backends disagree on safety
//   --workers  worker threads for the wall-clock backend (default 4)
//   --out-dir  directory for BENCH_runtime.json (default: cwd)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "multizone/experiments.hpp"
#include "report_json.hpp"
#include "runtime/thread_runtime.hpp"

namespace {

struct RunNumbers {
  std::string scenario;
  std::string backend;  ///< "sim" or "threads".
  std::size_t workers = 1;
  double throughput_tps = 0.0;
  std::optional<double> p50_latency_ms;  ///< Empty: not measured.
  std::optional<double> p99_latency_ms;
  std::uint64_t committed_txs = 0;
  std::uint64_t submitted_txs = 0;
  bool consistent = true;

  /// The internal SimRuntime runs on virtual time, ThreadRuntime on
  /// the wall clock.
  const char* clock_name() const {
    return backend == "sim" ? "virtual" : "wall";
  }
};

predis::core::ClusterConfig cluster_scenario(bool smoke) {
  predis::core::ClusterConfig cfg;
  cfg.protocol = predis::core::Protocol::kPredisPbft;
  cfg.wan = false;  // LAN shape: the wall backend has no WAN model.
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.offered_load_tps = smoke ? 3'000.0 : 10'000.0;
  cfg.n_clients = 8;
  cfg.duration = smoke ? predis::seconds(3) : predis::seconds(8);
  cfg.warmup = smoke ? predis::seconds(1) : predis::seconds(3);
  cfg.seed = 17;
  return cfg;
}

predis::multizone::ThroughputConfig zone_scenario(bool smoke) {
  predis::multizone::ThroughputConfig cfg;
  cfg.topology = predis::multizone::Topology::kMultiZone;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = smoke ? 6 : 12;
  cfg.n_zones = 3;
  cfg.offered_load_tps = smoke ? 2'000.0 : 6'000.0;
  cfg.n_clients = 4;
  cfg.duration = smoke ? predis::seconds(3) : predis::seconds(8);
  cfg.warmup = smoke ? predis::seconds(1) : predis::seconds(3);
  cfg.seed = 17;
  return cfg;
}

RunNumbers run_cluster_on(bool smoke, predis::runtime::Runtime* backend,
                          const char* backend_name, std::size_t workers) {
  predis::core::ClusterConfig cfg = cluster_scenario(smoke);
  cfg.ctx.backend = backend;
  const predis::core::ClusterResult r = predis::core::run_cluster(cfg);
  RunNumbers n;
  n.scenario = "predis_cluster";
  n.backend = backend_name;
  n.workers = workers;
  n.throughput_tps = r.throughput_tps;
  n.p50_latency_ms = r.p50_latency_ms;
  n.p99_latency_ms = r.p99_latency_ms;
  n.committed_txs = r.committed_txs;
  n.submitted_txs = r.submitted_txs;
  n.consistent = r.consistent && r.ledgers_consistent;
  return n;
}

RunNumbers run_zone_on(bool smoke, predis::runtime::Runtime* backend,
                       const char* backend_name, std::size_t workers) {
  predis::multizone::ThroughputConfig cfg = zone_scenario(smoke);
  cfg.ctx.backend = backend;
  const predis::multizone::ThroughputResult r =
      predis::multizone::run_distribution_cluster(cfg);
  RunNumbers n;
  n.scenario = "multizone_distribution";
  n.backend = backend_name;
  n.workers = workers;
  n.throughput_tps = r.throughput_tps;
  n.committed_txs = r.committed_txs;
  n.submitted_txs = r.submitted_txs;
  n.consistent = r.consistent;
  return n;
}

std::unique_ptr<predis::runtime::ThreadRuntime> make_wall_backend(
    std::size_t workers) {
  predis::runtime::ThreadRuntimeConfig tcfg;
  tcfg.workers = workers;
  return std::make_unique<predis::runtime::ThreadRuntime>(tcfg);
}

/// "%.3f" of a measured value, "null" of an unmeasured one.
std::string ms_or_null(const std::optional<double>& v) {
  if (!v) return "null";
  char tmp[32];
  std::snprintf(tmp, sizeof(tmp), "%.3f", *v);
  return tmp;
}

void append_json(std::string& out, const RunNumbers& n, bool last) {
  char tmp[512];
  std::snprintf(
      tmp, sizeof(tmp),
      "    {\"scenario\": \"%s\", \"backend\": \"%s\", \"clock\": \"%s\", "
      "\"workers\": %zu, \"throughput_tps\": %.1f, \"p50_latency_ms\": %s, "
      "\"p99_latency_ms\": %s, \"committed_txs\": %llu, "
      "\"submitted_txs\": %llu, \"consistent\": %s}%s\n",
      n.scenario.c_str(), n.backend.c_str(), n.clock_name(), n.workers,
      n.throughput_tps, ms_or_null(n.p50_latency_ms).c_str(),
      ms_or_null(n.p99_latency_ms).c_str(),
      static_cast<unsigned long long>(n.committed_txs),
      static_cast<unsigned long long>(n.submitted_txs),
      n.consistent ? "true" : "false", last ? "" : ",");
  out += tmp;
}

}  // namespace

int main(int argc, char** argv) {
  predis::report::Flags flags;
  std::string workers_arg = "4";
  if (!predis::report::parse_flags(
          argc, argv,
          "runtime_report [--smoke] [--strict] [--workers N] [--out-dir DIR]",
          flags, {.value_flag = "--workers", .value = &workers_arg})) {
    return 2;
  }
  const bool smoke = flags.smoke;
  auto workers =
      static_cast<std::size_t>(std::strtoul(workers_arg.c_str(), nullptr, 10));
  if (workers < 4) workers = 4;  // The report's contract: >= 4 real cores.

  std::vector<RunNumbers> runs;

  // Deterministic oracle first (internal SimRuntime).
  runs.push_back(run_cluster_on(smoke, nullptr, "sim", 1));
  runs.push_back(run_zone_on(smoke, nullptr, "sim", 1));

  // Same scenario objects, wall-clock worker pool. One fresh backend
  // per run: a Runtime carries one topology for its lifetime.
  {
    auto wall = make_wall_backend(workers);
    runs.push_back(
        run_cluster_on(smoke, wall.get(), "threads", wall->worker_count()));
  }
  {
    auto wall = make_wall_backend(workers);
    runs.push_back(
        run_zone_on(smoke, wall.get(), "threads", wall->worker_count()));
  }

  bool ok = true;
  std::printf("runtime_report: %zu runs (%s)\n", runs.size(),
              smoke ? "smoke" : "full");
  for (const RunNumbers& n : runs) {
    std::printf(
        "  %-24s %-8s %-8s workers=%zu  %9.1f tx/s  p50 %7s ms  "
        "p99 %7s ms  committed %llu of %llu  %s\n",
        n.scenario.c_str(), n.backend.c_str(), n.clock_name(), n.workers,
        n.throughput_tps, ms_or_null(n.p50_latency_ms).c_str(),
        ms_or_null(n.p99_latency_ms).c_str(),
        static_cast<unsigned long long>(n.committed_txs),
        static_cast<unsigned long long>(n.submitted_txs),
        n.consistent ? "consistent" : "INCONSISTENT");
    if (!n.consistent) ok = false;
    if (n.scenario == "predis_cluster" && n.committed_txs == 0) ok = false;
  }

  std::string json = "{\n  \"schema\": \"predis-runtime/2\", ";
  json += "\"tool\": \"runtime_report\", ";
  json += smoke ? "\"smoke\": true,\n" : "\"smoke\": false,\n";
  json += "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    append_json(json, runs[i], i + 1 == runs.size());
  }
  json += "  ]\n}\n";
  const int write_rc = predis::report::write_file(
      "runtime_report", flags.out_dir + "/BENCH_runtime.json", json);
  if (write_rc != 0) return write_rc;

  if (flags.strict && !ok) {
    std::fprintf(stderr, "runtime_report: FAILURES (see above)\n");
    return 1;
  }
  return 0;
}
