// uic_perf — the benchmark driver perf/run.py builds and runs.
//
//   uic_perf --workload offline-wc|offline-p15|serve-mix --seed N
//            --seconds S --trace 0|1 [--trace-out FILE] [--tiny]
//            [--corrupt] [--port P --serve-setup|--serve-run]
//   uic_perf --pinned-reference [--noise-worlds N]
//
// Prints one JSON result line (correct / attempted / failed / metrics).
// With --port it is the serve-mix client of a running uic_served daemon:
// --serve-setup loads the workload and runs the warm-up solve,
// --serve-run drives the closed loop. --pinned-reference prints the
// expected welfare the pinned check compares against (PinnedReference).
// Exit code 2 = usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/thread_pool.h"
#include "exp/flags.h"
#include "perf.h"

namespace uic::perf {

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              bool tiny) {
  Workload w;
  w.name = name;
  serve::Json spec = serve::Json::Object();
  const auto set = [&](const char* key, double value) {
    spec.Set(key, serve::Json::Number(value));
  };
  if (name == "offline-wc") {
    // The Twitter stand-in with weighted-cascade p = 1/d_in.
    spec.Set("network", serve::Json::Str("twitter"));
    set("scale", tiny ? 0.02 : 1.0);
    w.warmup_allocs = tiny ? 1 : 3;
    w.budgets = {tiny ? std::vector<uint32_t>{5, 5}
                      : std::vector<uint32_t>{50, 50}};
    w.eps = 0.1;
  } else if (name == "offline-p15") {
    spec.Set("network", serve::Json::Str("er"));
    set("nodes", tiny ? 500 : 20000);
    set("edges", tiny ? 3000 : 120000);
    set("p", 0.15);
    // Solve times here are bimodal over solver seeds (final pools of
    // ~74k or ~80k sets, ~25% apart), and which mode dominates depends on
    // the graph. Rotating over 8 graphs keeps a run's median from
    // following the mode of a single graph.
    w.graphs = 8;
    w.warmup_allocs = tiny ? 1 : 12;
    w.budgets = {tiny ? std::vector<uint32_t>{5, 5}
                      : std::vector<uint32_t>{50, 50}};
    w.eps = 0.5;
  } else if (name == "serve-mix") {
    w.offline = false;
    spec.Set("network", serve::Json::Str("pa"));
    set("nodes", tiny ? 500 : 20000);
    w.budgets = tiny ? std::vector<std::vector<uint32_t>>{{2, 2}, {3, 3}, {5, 5}}
                     : std::vector<std::vector<uint32_t>>{
                           {10, 10}, {20, 20}, {40, 40}};
    w.eps = 0.5;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  set("net_seed", static_cast<double>(seed));
  w.graph_spec = std::move(spec);
  return w;
}

serve::Json GraphSpec(const Workload& w, size_t g) {
  serve::Json spec = w.graph_spec;
  const double base = spec.Find("net_seed")->AsDouble();
  spec.Set("net_seed", serve::Json::Number(base + std::ldexp(g, 41)));
  return spec;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.GetBool("pinned-reference")) {
    ThreadPool::ConfigureShared(kWorkers);
    const long worlds = flags.GetInt("noise-worlds", 1000000);
    Result<double> welfare = PinnedReference(
        static_cast<size_t>(std::max(worlds, 1L)), /*seed=*/20190701);
    if (!welfare.ok()) {
      std::fprintf(stderr, "uic_perf: %s\n", welfare.status().ToString().c_str());
      return 1;
    }
    std::printf("%.6f\n", welfare.value());
    return 0;
  }
  const long seed = flags.GetInt("seed", -1);
  const long trace = flags.GetInt("trace", 0);
  const double seconds = flags.GetDouble("seconds", 10.0);
  Result<Workload> workload = MakeWorkload(
      flags.GetString("workload"), static_cast<uint64_t>(seed),
      flags.GetBool("tiny"));
  if (!workload.ok() || seed < 0 || seed > (1L << 40) ||
      (trace != 0 && trace != 1) || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: uic_perf --workload offline-wc|offline-p15|serve-mix "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--tiny] [--corrupt] [--port P --serve-setup|--serve-run]\n");
    return 2;
  }
  RunConfig config;
  config.workload = std::move(workload.value());
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = seconds;
  config.trace = trace == 1;
  config.corrupt = flags.GetBool("corrupt");
  config.trace_out = flags.GetString("trace-out");
  config.port = static_cast<int>(flags.GetInt("port", -1));
  ThreadPool::ConfigureShared(kWorkers);

  Report report;
  if (config.port >= 0) {
    const int code = RunServeClient(config, flags.GetBool("serve-setup"), &report);
    std::printf("%s\n", report.ToJson().c_str());
    return code;
  }
  if (config.trace) {
    RunTraced(config, &report);
  } else if (config.workload.offline) {
    RunOffline(config, &report);
  } else {
    std::fprintf(stderr, "uic_perf: serve-mix needs --port (see run.py)\n");
    return 2;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace uic::perf

int main(int argc, char** argv) { return uic::perf::Main(argc, argv); }
