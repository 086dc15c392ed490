// uic_perf: the repository benchmark driver (see perf/README.md).
//
// Each workload runs in one of two modes. With tracing off it measures the
// end-to-end metrics a user of the library or the daemon sees. With
// tracing on it times each layer's public entry points from outside,
// records one span per call, and reports the per-layer metrics. Every run
// also checks the outputs it produced; a failed check counts as a failed
// operation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "diffusion/allocation.h"
#include "graph/graph.h"
#include "items/params.h"
#include "serve/json.h"

namespace uic::perf {

/// Threads and connections per run: solver/estimator workers, the shared
/// pool size, daemon workers and client connections (the host has 4 cores).
constexpr unsigned kWorkers = 4;

/// One benchmark workload: the graph (as a serve `load_graph` spec, so the
/// offline loops and the daemon build the identical network), the budget
/// vectors its solves use, and the PRIMA slack.
struct Workload {
  std::string name;
  bool offline = true;
  serve::Json graph_spec;  ///< graph 0; the one the serve paths load
  /// Graphs per offline run, allocations rotating over them (GraphSpec).
  size_t graphs = 1;
  /// Untimed allocations in each offline set-up, about 1 s worth.
  size_t warmup_allocs = 1;
  std::vector<std::vector<uint32_t>> budgets;
  double eps = 0.5;
};

/// The workload named `name`, with its graph seeded by `seed`. `tiny`
/// shrinks every input so a run finishes in seconds (the self-test).
[[nodiscard]] Result<Workload> MakeWorkload(const std::string& name,
                                            uint64_t seed, bool tiny);

/// The spec of graph `g` of `w`: graph_spec with net_seed offset by g·2^41
/// (workload seeds are below 2^40, so no two runs share a graph by accident).
serve::Json GraphSpec(const Workload& w, size_t g);

struct RunConfig {
  Workload workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberately corrupt the first checked allocation or reply (the
  /// self-test proves the checks count it as failed).
  bool corrupt = false;
  std::string trace_out;  ///< JSONL span file ("" = do not write)
  int port = -1;          ///< daemon port (serve client modes)
};

// --- Reporting (report.cc) ----------------------------------------------

/// Quantile `q` in [0, 1] with linear interpolation; 0 for no samples.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The result of one run: operation counts plus named metrics with units.
/// Thread-safe.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Count one attempted operation; `ok` false counts it as failed.
  void CountOp(bool ok);
  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` on one line.
  std::string ToJson() const;

 private:
  mutable Mutex mu_;
  int64_t attempted_ UIC_GUARDED_BY(mu_) = 0;
  int64_t failed_ UIC_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_
      UIC_GUARDED_BY(mu_);
};

/// Sum of every series of each metric family in a Prometheus text
/// exposition, keyed by family name (histogram suffixes kept as-is).
std::map<std::string, double> ParseExposition(const std::string& text);

/// Peak resident set size (VmHWM) of this process, in MiB.
double PeakRssMb();

// --- Spans (spans.cc) ---------------------------------------------------

/// In-memory span recorder. Spans carry name, start, end, parent span and
/// the request id they belong to; nesting is tracked per thread. Written
/// out as JSONL at the end of the run, never during it.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t request = 0;
    double start_us = 0.0;  ///< since the log was created
    double end_us = 0.0;
  };

  /// RAII span around one call. A null `log` times without recording, so
  /// traced and untraced iterations share one code path.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, uint64_t request);
    ~Scope() { Finish(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// End the span (idempotent); returns its duration in ms.
    double Finish();

   private:
    SpanLog* log_;
    Span span_;
    uint64_t saved_parent_ = 0;
    double start_us_ = 0.0;
    double ms_ = -1.0;
  };

  SpanLog();
  /// Median self time (duration minus children) per name of a span that
  /// has children, in ms.
  std::map<std::string, double> MedianSelfMs() const;
  [[nodiscard]] Status WriteJsonl(const std::string& path) const;

 private:
  void Record(const Span& span);

  const int64_t origin_ns_;
  mutable Mutex mu_;
  std::vector<Span> spans_ UIC_GUARDED_BY(mu_);
};

// --- Output checks (checks.cc) ------------------------------------------

/// bundleGRD's contract: item i gets exactly budgets[i] seeds, and every
/// item's seeds are a prefix of one ranking. `ranking` is the allocation's
/// node order when the solver does not expose it.
bool CheckPrefixAllocation(
    const std::vector<std::pair<NodeId, ItemSet>>& entries,
    const std::vector<NodeId>& ranking, const std::vector<uint32_t>& budgets);

/// Parse a serve reply's `result.allocation` array; false when malformed
/// or naming an item outside [0, num_items).
bool AllocationFromJson(const serve::Json& allocation, ItemId num_items,
                        std::vector<std::pair<NodeId, ItemSet>>* entries);

/// CheckPrefixAllocation on a serve reply's `result.allocation` array.
bool CheckPrefixAllocationJson(const serve::Json& allocation,
                               const std::vector<uint32_t>& budgets);

/// The pinned welfare check: a tiny fixed instance whose bundleGRD
/// allocation is the same under every sampling kernel and solver seed
/// tried, with an expected welfare computed once by PinnedReference.
struct PinnedCheck {
  static const char* GraphSpec();           ///< serve load_graph fields
  static std::vector<uint32_t> Budgets();   ///< per-item budgets
  static constexpr uint64_t kSolverSeed = 1;
  static constexpr size_t kSims = 20000;
  /// PinnedReference over 10^6 noise worlds (its own standard error is
  /// about 0.009).
  static constexpr double kReference = 9.746;
  /// Relative tolerance: about 5 standard errors of a kSims-sample
  /// estimate, so a change of RNG stream (a new kernel) still passes.
  static constexpr double kTolerance = 0.03;
  static const std::vector<std::pair<NodeId, ItemSet>>& Allocation();
  static bool WelfareOk(double welfare) {
    return welfare > kReference * (1.0 - kTolerance) &&
           welfare < kReference * (1.0 + kTolerance);
  }
};

/// Runs the pinned check in-process (Solver::Solve + EstimateWelfare).
bool RunPinnedCheckInProcess();

/// The expected welfare of PinnedCheck::Allocation(), the source of
/// PinnedCheck::kReference: exact over all 2^m edge worlds of the pinned
/// graph (each a graph of its live edges at p = 1, so the diffusion is
/// deterministic), averaged over `noise_worlds` sampled noise worlds.
Result<double> PinnedReference(size_t noise_worlds, uint64_t seed);

// --- Workload drivers ---------------------------------------------------

/// Offline workloads: cold bundle-grd solves, each followed by an MC
/// welfare estimate (offline.cc).
void RunOffline(const RunConfig& config, Report* report);

/// Layer probes on one problem, recorded as spans (layers.cc).
struct LayerProbe {
  double plan_ms = 0, prima_ms = 0, sample_ms = 0, generate_ms = 0,
         select_ms = 0, utility_table_us = 0, sim_us = 0;
  size_t num_rr_sets = 0, total_rr_nodes = 0;
  double adopters_per_sim = 0;
};
LayerProbe ProbeLayers(const Graph& graph, const ItemParams& params,
                       const std::vector<uint32_t>& budgets, double eps,
                       uint64_t seed, SpanLog* log, uint64_t request);
/// Report medians over `probes` plus the exact counts of the first one.
void ReportLayerProbes(const std::vector<LayerProbe>& probes,
                       Report* report);

/// serve-mix against a running daemon (serve_mix.cc): `setup` loads the
/// workload and runs the warm-up solve; otherwise runs the closed loop.
int RunServeClient(const RunConfig& config, bool setup, Report* report);

/// In-process serve probe (traced): HandleLine from kWorkers threads, then
/// the same mix over loopback TCP into the same Server. Reports the
/// `serve.*` per-layer metrics. Runs for `seconds`.
void RunServeProbe(const RunConfig& config, double seconds, SpanLog* log,
                   Report* report);

/// The traced run of any workload (offline.cc): allocations alternating
/// untraced and traced, layer probes, then the serve probe.
void RunTraced(const RunConfig& config, Report* report);

/// Write spans to `config.trace_out` and report self times.
void FinishTrace(const RunConfig& config, const SpanLog& log,
                 Report* report);

}  // namespace uic::perf
