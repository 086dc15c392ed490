// uic_run: the unified CLI driver over the solver registry.
//
// Loads or generates a network, builds a utility configuration, then runs
// any registered allocation algorithm by name and prints a report
// (welfare ± std error, wall-clock, RR sets). Every solver the registry
// knows is reachable:
//
//   uic_run --list
//   uic_run --algorithm bundle-grd --network douban-movie --budget 30
//   uic_run --algorithm rr-cim --config config34 --budgets 20,40 --mc 500
//   uic_run --algorithm bundle-grd --network er --nodes 500 --edges 3000
//   uic_run --algorithm bdhs --bdhs-variant concave --network orkut
//
// Sweep mode (--sweep) runs every named algorithm over a list of budget
// points with warm RR-pool reuse across points (see exp/sweep.h):
//
//   uic_run --sweep 10:50:10 --algorithms bundle-grd,item-disj
//   uic_run --sweep "70,30;70,70;70,110" --algorithms bundle-grd
//           --report-csv sweep.csv
//
// Spec mode (--spec) runs a sweep spec file: the paper's Figs. 4-8 live in
// bench/specs/*.json (format in exp/spec_file.h):
//
//   uic_run --spec bench/specs/fig4.json --scale 0.05 --mc 20
//
// All three modes take one path: the flags (or the file) become sweep
// groups, LoadSweepGroups builds their graphs, params and SweepSpecs, and
// a SweepRunner solves and scores every cell; a single solve is a
// one-cell sweep.
//
// Exit codes: 0 success, 1 solver/problem error (message on stderr),
// 2 usage error.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "common/thread_pool.h"
#include "core/serialization.h"
#include "exp/flags.h"
#include "exp/spec_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/registry.h"

namespace uic {
namespace {

using serve::Json;
using serve::JsonEscape;

constexpr const char* kUsage =
    "usage: uic_run --algorithm NAME [options]\n"
    "       uic_run --sweep POINTS --algorithms A,B,.. [options]\n"
    "       uic_run --spec FILE [--scale X] [--mc N] [--eps X] [options]\n"
    "       uic_run --list            (print registered solver names)\n"
    "\n"
    "spec (sweep spec files, e.g. bench/specs/fig4.json):\n"
    "  --spec FILE        run every group of FILE (format: exp/spec_file.h);\n"
    "                     only --scale, --mc, --eps (each overrides every\n"
    "                     group), the report flags and the solver knobs\n"
    "                     --workers, --greedy-sims, --cim-sims, --bdhs-*\n"
    "                     apply; report rows lead with their group's title\n"
    "\n"
    "sweep (budget sweep with warm RR-pool reuse across points):\n"
    "  --sweep POINTS     \"10,30,50\" uniform | \"10:50:20\" range lo:hi:step |\n"
    "                     \"70,30;70,110\" explicit per-item vectors\n"
    "  --algorithms A,B   algorithms to sweep (default: --algorithm)\n"
    "  --cold             disable warm reuse (results identical, slower)\n"
    "  --report-csv PATH  write the sweep report as CSV\n"
    "  --report-json PATH write the sweep report as JSON\n"
    "  --no-timing        print '-' for seconds (deterministic reports)\n"
    "  (SIGINT/SIGTERM finish the in-flight cell, flush partial reports,\n"
    "   and exit 130)\n"
    "\n"
    "network (generated stand-ins unless --graph is given):\n"
    "  --graph PATH       load a graph saved with SaveGraph\n"
    "  --network NAME     er | pa | flixster | douban-book | douban-movie |\n"
    "                     twitter | orkut          (default douban-movie)\n"
    "  --scale X          stand-in size multiplier in (0, 1000] (default 0.3)\n"
    "  --nodes N          er/pa node count          (default 2000)\n"
    "  --edges M          er edge count             (default 6*nodes)\n"
    "  --net-seed S       generator seed            (default 20190630)\n"
    "  --p X              re-weight all edges to constant probability X\n"
    "\n"
    "items (utility configuration, Tables 3-5):\n"
    "  --params PATH      load params saved with SaveItemParams\n"
    "  --config NAME      config12 | config34 | additive | cone-max |\n"
    "                     cone-min | levelwise | real | none\n"
    "                     (default config12; 'none' skips welfare eval)\n"
    "  --items S          item count for additive/cone/levelwise (default 2)\n"
    "  --param-seed S     levelwise generation seed (default 8)\n"
    "  --budget K         uniform per-item budget   (default 10)\n"
    "  --budgets A,B,..   explicit per-item budgets (overrides --budget)\n"
    "\n"
    "solver:\n"
    "  --eps X --ell X    sampling bounds           (default 0.5, 1.0)\n"
    "  --seed S           solver RNG seed           (default 1)\n"
    "  --workers N        threads, 0 = hardware     (default 0)\n"
    "  --model M          ic | lt                   (default ic)\n"
    "  --greedy-sims N    mc-greedy simulations/evaluation (default 200)\n"
    "  --cim-sims N       rr-cim forward simulations       (default 200)\n"
    "  --bdhs-variant V   step | concave            (default step)\n"
    "  --kappa X          bdhs step isolation discount     (default 0)\n"
    "  --uniform-p X      bdhs concave edge probability    (default 0.01)\n"
    "\n"
    "report:\n"
    "  --mc N             welfare-evaluation simulations   (default 400)\n"
    "  --eval-seed S      welfare-evaluation seed          (default 999)\n"
    "  --save-allocation PATH   persist the allocation (SaveAllocation)\n"
    "\n"
    "observability (docs/observability.md):\n"
    "  --metrics-out FILE write the metric exposition at exit (timing\n"
    "                     series omitted under --no-timing)\n"
    "  --trace-out FILE   record JSONL span trees to FILE\n";

/// Set by the SIGINT/SIGTERM handler; SweepRunner checks it between cells.
std::atomic<bool> g_interrupted{false};

extern "C" void OnSweepSignal(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

/// Install cooperative-cancel handlers for sweep mode. No SA_RESTART: an
/// interrupted blocking call should fail fast, not resume.
void InstallSweepSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSweepSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

/// Report `status` on stderr and return the exit code `code`.
int Fail(const Status& status, int code) {
  std::fprintf(stderr, "uic_run: %s\n", status.ToString().c_str());
  return code;
}

/// Comma-separated algorithm list for sweep mode; falls back to
/// --algorithm so a one-algorithm sweep needs no extra flag.
std::vector<std::string> SweepAlgorithms(const Flags& flags) {
  std::string list = flags.GetString("algorithms");
  if (list.empty()) list = flags.GetString("algorithm");
  std::vector<std::string> names;
  std::string token;
  for (size_t i = 0; i <= list.size(); ++i) {
    if (i == list.size() || list[i] == ',') {
      if (!token.empty()) names.push_back(token);
      token.clear();
    } else {
      token += list[i];
    }
  }
  return names;
}

/// The one group a flag-mode run describes, in spec-file form (see
/// exp/spec_file.h). Flags left unset keep the builders' defaults, which
/// are the ones the usage text lists. Single-solve mode is the one-cell
/// sweep of --algorithm at --budget or --budgets.
Result<Json> GroupFromFlags(const Flags& flags, bool sweep_mode) {
  auto copy_int = [&](Json* body, const char* flag, const char* key) {
    if (!flags.GetString(flag).empty()) {
      body->Set(key, Json::Int(flags.GetInt(flag, 0)));
    }
  };
  Json graph = Json::Object();
  if (!flags.GetString("graph").empty()) {
    graph.Set("path", Json::Str(flags.GetString("graph")));
  } else {
    graph.Set("network", Json::Str(flags.GetString("network", "douban-movie")));
    copy_int(&graph, "nodes", "nodes");
    copy_int(&graph, "edges", "edges");
    copy_int(&graph, "net-seed", "net_seed");
  }
  graph.Set("p", Json::Number(flags.GetDouble("p", 0.0)));

  std::string sweep = flags.GetString("sweep");
  size_t items = static_cast<size_t>(flags.GetInt("items", 2));
  const std::string budget_list = flags.GetString("budgets");
  if (!budget_list.empty()) {
    Result<std::vector<uint32_t>> budgets = ParseBudgetList(budget_list);
    if (!budgets.ok()) return budgets.status();
    items = budgets.value().size();
    if (!sweep_mode) sweep = budget_list + ";";
  } else if (!sweep_mode) {
    sweep = std::to_string(flags.GetInt("budget", 10));
  }

  Json group = Json::Object();
  group.Set("graph", std::move(graph));
  const std::string config = flags.GetString("config", "config12");
  if (!flags.GetString("params").empty()) {
    Json params = Json::Object();
    params.Set("path", Json::Str(flags.GetString("params")));
    group.Set("params", std::move(params));
  } else if (config != "none") {
    Json params = Json::Object();
    params.Set("config", Json::Str(config));
    params.Set("items", Json::Int(static_cast<long long>(items)));
    // Deliberately NOT the solver --seed: sweeping solver seeds must not
    // silently change the problem instance itself.
    copy_int(&params, "param-seed", "param_seed");
    group.Set("params", std::move(params));
  } else if (sweep.find(';') == std::string::npos) {
    // Without params the loader cannot size uniform points: spell them
    // out at --items (or the --budgets length).
    Result<std::vector<std::vector<uint32_t>>> points =
        ParseSweepPoints(sweep, items);
    if (!points.ok()) return points.status();
    sweep.clear();
    for (const std::vector<uint32_t>& point : points.value()) {
      for (size_t i = 0; i < point.size(); ++i) {
        sweep += (i ? "," : "") + std::to_string(point[i]);
      }
      sweep += ';';
    }
  }

  group.Set("model", Json::Str(flags.GetString("model", "ic")));
  copy_int(&group, "seed", "seed");
  group.Set("ell", Json::Number(flags.GetDouble("ell", 1.0)));
  group.Set("eval_sims", Json::Int(flags.GetInt("mc", 400)));
  group.Set("eval_seed", Json::Int(flags.GetInt("eval-seed", 999)));
  Json algorithms = Json::Array();
  for (const std::string& name :
       sweep_mode ? SweepAlgorithms(flags)
                  : std::vector<std::string>{flags.GetString("algorithm")}) {
    algorithms.Append(Json::Str(name));
  }
  group.Set("algorithms", std::move(algorithms));
  group.Set("sweep", Json::Str(sweep));
  group.Set("warm", Json::Bool(!flags.GetBool("cold")));
  return group;
}

/// An explicit --scale, --mc or --eps applies to every group, whichever
/// way the group was built.
void ApplyOverrides(const Flags& flags, Json* group) {
  const Json* graph = group->Find("graph");
  if (graph != nullptr && !flags.GetString("scale").empty()) {
    Json scaled = *graph;
    scaled.Set("scale", Json::Number(flags.GetDouble("scale", 0.0)));
    group->Set("graph", std::move(scaled));
  }
  if (!flags.GetString("mc").empty()) {
    group->Set("eval_sims", Json::Int(flags.GetInt("mc", 0)));
  }
  if (!flags.GetString("eps").empty()) {
    group->Set("eps", Json::Number(flags.GetDouble("eps", 0.0)));
  }
}

Result<std::vector<Json>> GroupsFromSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read --spec " + path);
  std::stringstream text;
  text << in.rdbuf();
  Result<Json> doc = Json::Parse(text.str());
  if (!doc.ok()) {
    return Status::InvalidArgument(path + ": " + doc.status().message());
  }
  return ExpandSpecGroups(doc.value());
}

/// One group's table. A single solve shows its seed-node count where a
/// sweep shows the sets each cell sampled, plus the sweep's totals.
void PrintTable(const SweepGroup& group, const SweepReport& report,
                bool single, bool timing) {
  const bool scored = group.spec.params.has_value() &&
                      (single || group.spec.eval_simulations > 0);
  TablePrinter table({"algorithm", "setting", "welfare", "std error",
                      "seconds", "rr sets",
                      single ? "seed nodes" : "rr sampled"});
  for (const SweepRow& row : report.rows) {
    table.AddRow(
        {row.algorithm, row.setting,
         scored ? TablePrinter::Num(row.welfare, 2)
                : std::string(single ? "(no params)" : "(no eval)"),
         scored ? TablePrinter::Num(row.welfare_std_error, 2)
                : std::string("-"),
         timing ? TablePrinter::Num(row.seconds(), 3) : std::string("-"),
         TablePrinter::Int(static_cast<long long>(row.num_rr_sets())),
         TablePrinter::Int(static_cast<long long>(
             single ? row.result.allocation.num_seed_nodes()
                    : row.rr_sets_sampled))});
  }
  table.Print();
  if (single && report.rows.front().objective() != 0.0) {
    std::printf("solver-reported objective: %.2f\n",
                report.rows.front().objective());
  } else if (!single) {
    std::printf("total rr sets consumed: %zu, sampled from scratch: %zu (%s)\n",
                report.total_rr_sets, report.total_rr_sampled,
                report.warm ? "warm" : "cold");
  }
}

bool WriteReport(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << body;
  out.flush();  // surface late (buffered) write failures before checking
  if (!out) {
    std::fprintf(stderr, "uic_run: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("sweep report saved to %s\n", path.c_str());
  return true;
}

/// --report-csv / --report-json. A flag-mode run writes its one report
/// as is; a spec run leads each row with its group's title.
bool WriteReports(const Flags& flags,
                  const std::vector<std::pair<std::string, SweepReport>>&
                      reports,
                  bool spec_mode, bool timing) {
  std::string csv = spec_mode ? "" : reports.front().second.ToCsv(timing);
  std::string json =
      spec_mode ? "{\"groups\": [" : reports.front().second.ToJson(timing);
  for (size_t g = 0; spec_mode && g < reports.size(); ++g) {
    const auto& [title, report] = reports[g];
    const std::string body = report.ToCsv(timing);
    const size_t header_end = body.find('\n') + 1;
    if (g == 0) csv = "group," + body.substr(0, header_end);
    std::string quoted = "\"";  // titles may hold commas and quotes
    for (char c : title) quoted += c == '"' ? "\"\"" : std::string(1, c);
    for (size_t pos = header_end; pos < body.size();) {
      const size_t end = body.find('\n', pos) + 1;
      csv += quoted + "\"," + body.substr(pos, end - pos);
      pos = end;
    }
    json += std::string(g ? "," : "") + "\n{\"title\": " +
            JsonEscape(title) + ", \"report\": " + report.ToJson(timing) + "}";
  }
  if (spec_mode) json += "]}\n";
  const std::string csv_path = flags.GetString("report-csv");
  const std::string json_path = flags.GetString("report-json");
  return (csv_path.empty() || WriteReport(csv_path, csv)) &&
         (json_path.empty() || WriteReport(json_path, json));
}

/// Flushes --metrics-out / --trace-out on every exit path.
struct ObsFlusher {
  std::string metrics_path;
  bool include_timing = true;
  ~ObsFlusher() {
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      out << obs::MetricsRegistry::Global().ExpositionText(include_timing);
      if (!out) {
        std::fprintf(stderr, "uic_run: cannot write %s\n",
                     metrics_path.c_str());
      }
    }
    obs::TraceRecorder::Global().Disable();
  }
};

int Run(int argc, char** argv) {
  Flags flags(argc, argv);

  ObsFlusher obs_flusher;
  obs_flusher.metrics_path = flags.GetString("metrics-out");
  obs_flusher.include_timing = !flags.GetBool("no-timing");
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty() &&
      !obs::TraceRecorder::Global().EnableFile(trace_out)) {
    std::fprintf(stderr, "uic_run: cannot open --trace-out %s\n",
                 trace_out.c_str());
    return 2;
  }

  if (flags.GetBool("list")) {
    for (const std::string& name : SolverRegistry::ListSolvers()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const bool spec_mode = !flags.GetString("spec").empty();
  const bool sweep_mode = spec_mode || !flags.GetString("sweep").empty();
  const bool has_work = spec_mode || !SweepAlgorithms(flags).empty();
  if (!has_work || (!sweep_mode && flags.GetString("algorithm").empty()) ||
      flags.GetBool("help")) {
    std::fputs(kUsage, stderr);
    std::fputs("\nregistered solvers:", stderr);
    for (const std::string& name : SolverRegistry::ListSolvers()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fputs("\n", stderr);
    return flags.GetBool("help") ? 0 : 2;
  }

  // --- solver options shared by every group ------------------------------
  SolverOptions options;
  options.workers = static_cast<unsigned>(flags.GetInt("workers", 0));
  // Also size the process-wide shared pool (a no-op if something already
  // instantiated it): solvers route ParallelFor through ThreadPool::Shared,
  // and results are worker-count invariant by the determinism contract.
  if (options.workers > 0) ThreadPool::ConfigureShared(options.workers);
  options.mc_greedy.simulations_per_eval =
      static_cast<size_t>(flags.GetInt("greedy-sims", 200));
  options.comic.cim_forward_simulations =
      static_cast<size_t>(flags.GetInt("cim-sims", 200));
  const std::string variant = flags.GetString("bdhs-variant", "step");
  if (variant == "concave") {
    options.bdhs.variant = BdhsVariant::kConcave;
  } else if (variant != "step") {
    std::fprintf(stderr, "uic_run: unknown --bdhs-variant '%s'\n",
                 variant.c_str());
    return 1;
  }
  options.bdhs.kappa = flags.GetDouble("kappa", 0.0);
  options.bdhs.uniform_p = flags.GetDouble("uniform-p", 0.01);

  // --- groups: a spec file's, or the one the flags describe ---------------
  std::vector<Json> specs;
  if (spec_mode) {
    Result<std::vector<Json>> read =
        GroupsFromSpecFile(flags.GetString("spec"));
    if (!read.ok()) return Fail(read.status(), 2);
    specs = read.MoveValue();
  } else {
    Result<Json> group = GroupFromFlags(flags, sweep_mode);
    if (!group.ok()) return Fail(group.status(), 2);
    specs.push_back(group.MoveValue());
  }
  for (Json& group : specs) ApplyOverrides(flags, &group);
  Result<std::vector<SweepGroup>> groups = LoadSweepGroups(specs, options);
  if (!groups.ok()) return Fail(groups.status(), 1);

  // --no-timing pins the reports for golden end-to-end tests (wall-clock
  // is the only nondeterministic column).
  const bool timing = !flags.GetBool("no-timing");
  if (sweep_mode) InstallSweepSignalHandlers();
  std::vector<std::pair<std::string, SweepReport>> reports;
  bool interrupted = false;
  for (SweepGroup& group : groups.value()) {
    if (!group.title.empty()) std::printf("\n-- %s --\n", group.title.c_str());
    std::printf("network: %s\n", group.graph->Summary().c_str());
    if (sweep_mode) group.spec.cancel = &g_interrupted;
    SweepRunner runner(group.spec);
    Result<SweepReport> report = runner.Run();
    if (!report.ok()) return Fail(report.status(), 1);
    interrupted = report.value().interrupted;
    if (interrupted) {
      std::fprintf(stderr,
                   "uic_run: sweep interrupted after %zu completed cell(s); "
                   "flushing partial report\n",
                   report.value().rows.size());
    }
    PrintTable(group, report.value(), !sweep_mode, timing);
    reports.emplace_back(group.title, report.MoveValue());
    if (interrupted) break;
  }

  if (!sweep_mode) {
    const std::string save_path = flags.GetString("save-allocation");
    if (save_path.empty()) return 0;
    const Status st = SaveAllocation(
        reports.front().second.rows.front().result.allocation, save_path);
    if (!st.ok()) return Fail(st, 1);
    std::printf("allocation saved to %s\n", save_path.c_str());
    return 0;
  }
  if (!WriteReports(flags, reports, spec_mode, timing)) return 1;
  // 128 + SIGINT: partial reports are on disk, but the sweep is incomplete
  // and scripts must not mistake it for a full run.
  return interrupted ? 130 : 0;
}

}  // namespace
}  // namespace uic

int main(int argc, char** argv) { return uic::Run(argc, argv); }
