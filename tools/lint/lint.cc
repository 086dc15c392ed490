#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>

namespace uic {
namespace lint {

namespace fs = std::filesystem;

const std::vector<Rule>& RuleTable() {
  static const std::vector<Rule> rules = {
      {"UIC-L001", "banned-rand",
       "std::rand/srand use a hidden global generator that is neither "
       "seedable per-component nor reproducible across platforms",
       "draw from uic::Rng (common/random.h), seeded from the caller's "
       "options"},
      {"UIC-L002", "banned-random-device",
       "std::random_device injects hardware entropy, breaking the "
       "seed-only determinism contract",
       "derive per-stream generators with Rng::Split(seed, stream) "
       "instead of reseeding from the environment"},
      {"UIC-L003", "wall-clock-entropy",
       "wall-clock reads (time(nullptr), gettimeofday, clock(), "
       "system_clock) feeding computation make results depend on when "
       "the process ran",
       "results must be a pure function of (inputs, seed); for measuring "
       "elapsed time use WallTimer (steady_clock) in common/timer.h"},
      {"UIC-L004", "raw-thread",
       "raw std::thread construction bypasses the shared ThreadPool and "
       "its deterministic chunked partition",
       "parallelize via ParallelFor/ParallelForStreams "
       "(common/parallel.h); thread creation lives only in "
       "common/thread_pool.cc"},
      {"UIC-L005", "banned-volatile",
       "volatile is not a synchronization primitive and hides real "
       "races from TSan and the thread-safety analysis",
       "use std::atomic for lock-free flags/counters or uic::Mutex for "
       "critical sections"},
      {"UIC-L006", "unordered-iteration",
       "iteration order of unordered_{map,set} is unspecified and "
       "varies across standard libraries and runs, so iterating one "
       "into any result or report is nondeterministic",
       "iterate a sorted container (std::map/std::set or a sorted "
       "vector) or sort the extracted items before use; keep unordered "
       "containers for lookups only"},
      {"UIC-L007", "raw-mutex",
       "libstdc++ std::mutex/std::lock_guard carry no capability "
       "annotations, so clang -Wthread-safety cannot check code that "
       "locks them directly",
       "library code uses uic::Mutex/MutexLock/CondVar (common/mutex.h) "
       "with UIC_GUARDED_BY annotations on the protected members"},
      {"UIC-L008", "raw-socket-io",
       "raw socket syscalls (socket/connect/accept/send/recv) scattered "
       "outside the serve transport bypass its stop-flag polling, EINTR "
       "retries, and MSG_NOSIGNAL discipline",
       "go through FdLineChannel/TcpListener/TcpConnection "
       "(src/serve/net.h); socket syscalls live only in src/serve/net.cc"},
      {"UIC-L009", "per-edge-bernoulli",
       "a NextBernoulli loop over an adjacency probability array pays one "
       "RNG draw per edge; the stratified SamplingPlan's geometric skips "
       "cross low-probability spans in O(successes) draws",
       "sample through RrSampler/IcSimulator with a SamplingPlan "
       "(graph/sampling_plan.h); intentionally-general per-edge scans "
       "need a whitelist entry"},
      {"UIC-L010", "failpoint-site",
       "a UIC_FAILPOINT site outside first-party library code lets tests "
       "and tools invent injection points ad hoc, off the audited site "
       "roster in common/failpoint.h",
       "inject through the registry API (failpoint::Set/Configure, the "
       "UIC_FAILPOINTS env var, or the set_failpoints verb); sites live "
       "only under src/"},
      {"UIC-L011", "metric-registration",
       "direct MetricsRegistry Register{Counter,Gauge,Histogram} calls "
       "mint ad-hoc metric name strings, off the documented roster in "
       "docs/observability.md and past the once-per-site static "
       "registration the macros guarantee",
       "register instruments through the UIC_METRIC_* macros "
       "(src/obs/metrics.h); direct Register* calls live only in "
       "src/obs/ and registry unit tests with a whitelist entry"},
  };
  return rules;
}

namespace {

bool IsKnownRule(const std::string& id) {
  for (const Rule& r : RuleTable()) {
    if (r.id == id) return true;
  }
  return false;
}

/// Path suffix match on '/' boundaries: "tests/a.cc" matches
/// "repo/tests/a.cc" but not "repo/mytests/a.cc".
bool PathEndsWith(const std::string& path, const std::string& suffix) {
  if (suffix.size() > path.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  return suffix.size() == path.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

bool PathStartsWith(const std::string& path, const std::string& prefix) {
  if (path.rfind(prefix, 0) != 0) return false;
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

/// Split stripped source into lines (index i == line i+1).
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

/// Per-line inline suppressions, parsed from the RAW source (markers live
/// in comments, which the stripper erases): `uic-lint: allow(UIC-L004)`
/// or `allow(UIC-L004, UIC-L005)`.
std::map<size_t, std::set<std::string>> ParseInlineAllows(
    const std::string& source) {
  std::map<size_t, std::set<std::string>> allows;
  static const std::regex marker(R"(uic-lint:\s*allow\(([^)]*)\))");
  size_t line_no = 1;
  std::istringstream in(source);
  std::string line;
  while (std::getline(in, line)) {
    std::smatch m;
    if (std::regex_search(line, m, marker)) {
      std::string ids = m[1].str();
      std::istringstream id_in(ids);
      std::string id;
      while (std::getline(id_in, id, ',')) {
        id.erase(0, id.find_first_not_of(" \t"));
        id.erase(id.find_last_not_of(" \t") + 1);
        if (!id.empty()) allows[line_no].insert(id);
      }
    }
    ++line_no;
  }
  return allows;
}

/// Extract the names of variables declared with an unordered container
/// type anywhere in the stripped source (declarations, members, params).
std::vector<std::string> UnorderedVarNames(const std::string& stripped) {
  std::vector<std::string> names;
  static const std::regex decl(R"(\bunordered_(?:map|set)\s*<)");
  auto begin = std::sregex_iterator(stripped.begin(), stripped.end(), decl);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    // Walk past the template argument list (matching angle brackets).
    size_t pos = static_cast<size_t>(it->position() + it->length());
    int depth = 1;
    while (pos < stripped.size() && depth > 0) {
      if (stripped[pos] == '<') ++depth;
      if (stripped[pos] == '>') --depth;
      ++pos;
    }
    // Skip reference/pointer/cv decoration, then read the identifier.
    while (pos < stripped.size() &&
           (std::isspace(static_cast<unsigned char>(stripped[pos])) ||
            stripped[pos] == '&' || stripped[pos] == '*')) {
      ++pos;
    }
    std::string name;
    while (pos < stripped.size() &&
           (std::isalnum(static_cast<unsigned char>(stripped[pos])) ||
            stripped[pos] == '_')) {
      name.push_back(stripped[pos++]);
    }
    if (!name.empty() && name != "const") names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void Add(std::vector<Violation>* out, const std::string& path, size_t line,
         const char* rule_id, const std::string& message) {
  out->push_back(Violation{path, line, rule_id, message});
}

}  // namespace

bool Whitelist::Allows(const Violation& v) const {
  for (const Entry& e : entries) {
    if (e.rule_id == v.rule_id && PathEndsWith(v.path, e.path_suffix)) {
      return true;
    }
  }
  return false;
}

bool LoadWhitelist(const std::string& path, Whitelist* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open whitelist file: " + path;
    return false;
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string rule, suffix, extra;
    if (!(fields >> rule)) continue;  // blank / comment-only line
    if (!(fields >> suffix) || (fields >> extra)) {
      *error = path + ":" + std::to_string(line_no) +
               ": expected '<rule-id> <path-suffix>'";
      return false;
    }
    if (!IsKnownRule(rule)) {
      *error = path + ":" + std::to_string(line_no) + ": unknown rule '" +
               rule + "'";
      return false;
    }
    out->entries.push_back(Whitelist::Entry{rule, suffix});
  }
  return true;
}

std::string StripCommentsAndStrings(const std::string& source) {
  std::string out;
  out.reserve(source.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';  // line continuation
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Violation> LintSource(const std::string& path,
                                  const std::string& source) {
  const std::string stripped = StripCommentsAndStrings(source);
  const std::vector<std::string> lines = SplitLines(stripped);
  const auto inline_allows = ParseInlineAllows(source);

  // Built-in structural exemptions: the two files that ARE the sanctioned
  // implementations of the banned primitives.
  const bool is_thread_pool = PathEndsWith(path, "common/thread_pool.cc") ||
                              PathEndsWith(path, "common/thread_pool.h");
  const bool is_mutex_wrapper = PathEndsWith(path, "common/mutex.h");
  const bool is_net_layer = PathEndsWith(path, "serve/net.cc") ||
                            PathEndsWith(path, "serve/net.h");
  // The registry implementation and the macro layer that wraps it.
  const bool is_obs_layer = PathEndsWith(path, "obs/metrics.cc") ||
                            PathEndsWith(path, "obs/metrics.h");
  // The sampling plan itself: its scan path IS the sanctioned per-edge
  // Bernoulli loop, taken by the nodes where a trial per edge is cheaper
  // than geometric skips.
  const bool is_sampling_plan = PathEndsWith(path, "graph/sampling_plan.h");
  // UIC-L007 covers library code only: tests/bench scaffolding may lock a
  // plain std::mutex, the library may not.
  const bool in_library = PathStartsWith(path, "src") ||
                          path.find("/src/") != std::string::npos;

  static const std::regex re_rand(R"(\b(?:std\s*::\s*)?s?rand\s*\()");
  static const std::regex re_random_device(R"(\brandom_device\b)");
  static const std::regex re_wall_clock(
      R"(\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)|\bgettimeofday\b|\bclock\s*\(\s*\)|\bsystem_clock\b)");
  static const std::regex re_thread(R"(\bstd\s*::\s*thread\b)");
  static const std::regex re_thread_allowed(
      R"(\bstd\s*::\s*thread\s*::\s*hardware_concurrency\b)");
  static const std::regex re_volatile(R"(\bvolatile\b)");
  static const std::regex re_raw_mutex(
      R"(\bstd\s*::\s*(?:timed_mutex|recursive_mutex|shared_mutex|mutex|condition_variable_any|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
  // Call sites only: the leading char class rejects member/qualified names
  // (x.send(, Foo::connect() and identifier suffixes (my_send().
  static const std::regex re_socket_io(
      R"((?:^|[^\w.>:])(?:socket|accept4?|connect|send|sendto|sendmsg|recv|recvfrom|recvmsg)\s*\()");
  // A Bernoulli draw indexed into an array is the per-edge coin-flip
  // idiom (scalar NextBernoulli(p) calls are fine).
  static const std::regex re_edge_bernoulli(
      R"(\bNextBernoulli\s*\(\s*\w+\s*\[)");
  static const std::regex re_failpoint_site(R"(\bUIC_FAILPOINT\s*\()");
  // Call sites only (the UIC_METRIC_* macros expand to these calls, but
  // macro-using sources never contain the token themselves).
  static const std::regex re_metric_register(
      R"(\bRegister(?:Counter|Gauge|Histogram)\s*\()");

  const std::vector<std::string> unordered_vars = UnorderedVarNames(stripped);
  std::vector<std::regex> re_unordered_iter;
  re_unordered_iter.reserve(unordered_vars.size() * 2);
  for (const std::string& v : unordered_vars) {
    // Range-for over the container, and explicit iterator walks.
    re_unordered_iter.emplace_back(R"(for\s*\([^()]*:\s*)" + v + R"(\s*\))");
    re_unordered_iter.emplace_back(R"(\b)" + v + R"(\s*\.\s*c?begin\s*\()");
  }

  std::vector<Violation> out;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const size_t line_no = i + 1;
    if (std::regex_search(line, re_rand)) {
      Add(&out, path, line_no, "UIC-L001",
          "call to std::rand/srand (global, unseedable RNG)");
    }
    if (std::regex_search(line, re_random_device)) {
      Add(&out, path, line_no, "UIC-L002",
          "std::random_device draws hardware entropy");
    }
    if (std::regex_search(line, re_wall_clock)) {
      Add(&out, path, line_no, "UIC-L003",
          "wall-clock read can feed computed results");
    }
    if (!is_thread_pool && std::regex_search(line, re_thread) &&
        !std::regex_search(line, re_thread_allowed)) {
      Add(&out, path, line_no, "UIC-L004",
          "raw std::thread outside common/thread_pool.cc");
    }
    if (std::regex_search(line, re_volatile)) {
      Add(&out, path, line_no, "UIC-L005", "volatile-qualified declaration");
    }
    for (size_t r = 0; r < re_unordered_iter.size(); ++r) {
      if (std::regex_search(line, re_unordered_iter[r])) {
        Add(&out, path, line_no, "UIC-L006",
            "iteration over unordered container '" + unordered_vars[r / 2] +
                "' (unspecified order)");
        break;
      }
    }
    if (in_library && !is_mutex_wrapper && !is_thread_pool &&
        std::regex_search(line, re_raw_mutex)) {
      Add(&out, path, line_no, "UIC-L007",
          "raw standard-library lock primitive in library code");
    }
    if (!is_net_layer && std::regex_search(line, re_socket_io)) {
      Add(&out, path, line_no, "UIC-L008",
          "raw socket syscall outside src/serve/net.cc");
    }
    if (!is_sampling_plan && std::regex_search(line, re_edge_bernoulli)) {
      Add(&out, path, line_no, "UIC-L009",
          "per-edge Bernoulli scan outside the sampling plan");
    }
    if (!in_library && std::regex_search(line, re_failpoint_site)) {
      Add(&out, path, line_no, "UIC-L010",
          "UIC_FAILPOINT site outside src/ library code");
    }
    if (!is_obs_layer && std::regex_search(line, re_metric_register)) {
      Add(&out, path, line_no, "UIC-L011",
          "direct metric registration outside the UIC_METRIC_* macros");
    }
  }

  // Apply inline suppressions.
  std::vector<Violation> kept;
  kept.reserve(out.size());
  for (Violation& v : out) {
    auto it = inline_allows.find(v.line);
    if (it != inline_allows.end() && it->second.count(v.rule_id) > 0) continue;
    kept.push_back(std::move(v));
  }
  return kept;
}

std::vector<Violation> LintFile(const std::string& root,
                                const std::string& rel_path) {
  std::ifstream in(fs::path(root) / rel_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LintSource(rel_path, buffer.str());
}

std::vector<std::string> CollectSources(const std::string& root,
                                        const std::string& dir) {
  std::vector<std::string> files;
  const fs::path base = fs::path(root) / dir;
  if (!fs::exists(base)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(base)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc" && ext != ".cpp" && ext != ".hpp") {
      continue;
    }
    files.push_back(
        fs::relative(entry.path(), root).generic_string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

int RunLint(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  std::string root = ".";
  std::string whitelist_path;
  std::vector<std::string> paths;
  bool list_rules = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next_value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        err << "uic_lint: " << flag << " requires a value\n";
        return nullptr;
      }
      return &args[++i];
    };
    if (arg == "--root") {
      const std::string* v = next_value("--root");
      if (v == nullptr) return 2;
      root = *v;
    } else if (arg == "--whitelist") {
      const std::string* v = next_value("--whitelist");
      if (v == nullptr) return 2;
      whitelist_path = *v;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help") {
      out << "usage: uic_lint [--root DIR] [--whitelist FILE] "
             "[--list-rules] [paths...]\n"
             "Lints the determinism/concurrency contract over "
             "src tests bench examples\n(or the given root-relative "
             "paths). Exit: 0 clean, 1 violations, 2 error.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "uic_lint: unknown flag '" << arg << "' (see --help)\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const Rule& r : RuleTable()) {
      out << r.id << "  " << r.name << "\n    " << r.description
          << "\n    fix: " << r.hint << "\n";
    }
    return 0;
  }

  Whitelist whitelist;
  if (!whitelist_path.empty()) {
    std::string error;
    if (!LoadWhitelist(whitelist_path, &whitelist, &error)) {
      err << "uic_lint: " << error << "\n";
      return 2;
    }
  }

  if (paths.empty()) paths = {"src", "tests", "bench", "examples"};
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    if (fs::is_regular_file(fs::path(root) / p)) {
      files.push_back(p);
    } else {
      std::vector<std::string> collected = CollectSources(root, p);
      files.insert(files.end(), collected.begin(), collected.end());
    }
  }
  if (files.empty()) {
    err << "uic_lint: no source files found under root '" << root << "'\n";
    return 2;
  }

  size_t checked = 0;
  size_t num_violations = 0;
  for (const std::string& file : files) {
    ++checked;
    for (const Violation& v : LintFile(root, file)) {
      if (whitelist.Allows(v)) continue;
      const Rule* rule = nullptr;
      for (const Rule& r : RuleTable()) {
        if (r.id == v.rule_id) rule = &r;
      }
      out << v.path << ":" << v.line << ": [" << v.rule_id << "] "
          << v.message << "\n";
      if (rule != nullptr) out << "    fix: " << rule->hint << "\n";
      ++num_violations;
    }
  }
  if (num_violations > 0) {
    out << num_violations << " violation(s) in " << checked << " file(s)\n";
    return 1;
  }
  out << "uic_lint: " << checked << " file(s) clean\n";
  return 0;
}

}  // namespace lint
}  // namespace uic
