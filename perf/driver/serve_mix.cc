// The serve-mix request stream, reply checks, the closed-loop TCP client
// for the uic_served daemon, and the traced in-process serve probe.
#include <cmath>
#include <cstdio>
#include <tuple>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "perf.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace uic::perf {
namespace {

enum Klass { kWarm = 0, kCold = 1, kEval = 2, kKlasses = 3 };
const char* const kKlassNames[kKlasses] = {"warm", "cold", "eval"};

// Request mix: 80% warm solves, 15% cold (warm:false), 5% warm + MC eval.
constexpr double kWarmShare = 0.80;
constexpr double kColdShare = 0.15;
constexpr size_t kServeEvalSims = 100;
constexpr uint64_t kKeySeeds = 8;
// Requests of the serve probe's single-threaded counting phase.
constexpr int kCountedRequests = 32;

uint64_t KeySeed(uint64_t workload_seed, uint64_t key) {
  return workload_seed * 16 + 1 + key;
}

std::string BudgetsJson(const std::vector<uint32_t>& budgets) {
  std::string out = "[";
  for (size_t i = 0; i < budgets.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(budgets[i]);
  }
  return out + "]";
}

std::string SolveLine(long long id, const std::string& graph,
                      const std::vector<uint32_t>& budgets, uint64_t seed,
                      double eps, size_t eval_sims, bool warm) {
  return "{\"id\":" + std::to_string(id) +
         ",\"verb\":\"solve\",\"graph\":\"" + graph +
         "\",\"params\":\"p\",\"budgets\":" + BudgetsJson(budgets) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"eps\":" + serve::JsonNumberToString(eps) +
         ",\"eval_sims\":" + std::to_string(eval_sims) +
         (warm ? "" : ",\"warm\":false") + "}";
}

std::string LoadGraphLine(const Workload& w) {
  std::string line = "{\"id\":1,\"verb\":\"load_graph\",\"name\":\"g\"";
  for (const auto& [key, value] : w.graph_spec.members()) {
    line += ',';
    line += serve::JsonEscape(key);
    line += ':';
    line += value.Dump();
  }
  return line + "}";
}

const char* const kLoadParamsLine =
    "{\"id\":2,\"verb\":\"load_params\",\"name\":\"p\",\"config\":\"config12\"}";

struct Request {
  Klass klass = kWarm;
  uint64_t key = 0;     ///< index of the key seed
  size_t budget = 0;    ///< index into Workload::budgets
  long long id = 0;
  std::string line;
};

/// One connection's request sequence, a pure function of (workload seed,
/// connection). The first request of connections 0 and 1 is an eval and a
/// cold solve, so every class has samples even in short runs.
class MixStream {
 public:
  MixStream(const RunConfig& config, unsigned connection)
      : config_(config),
        connection_(connection),
        rng_(Rng::Split(config.seed, 1000 + connection)) {}

  Request Next() {
    const Workload& w = config_.workload;
    Request r;
    const double u = rng_.NextDouble();
    r.klass = u < kWarmShare ? kWarm : u < kWarmShare + kColdShare ? kCold : kEval;
    if (count_ == 0 && connection_ < 2) r.klass = connection_ == 0 ? kEval : kCold;
    r.key = rng_.NextBounded(kKeySeeds);
    r.budget = rng_.NextBounded(w.budgets.size());
    r.id = static_cast<long long>(++count_ * kWorkers + connection_);
    r.line = SolveLine(r.id, "g", w.budgets[r.budget],
                       KeySeed(config_.seed, r.key), w.eps,
                       r.klass == kEval ? kServeEvalSims : 0, r.klass != kCold);
    return r;
  }

 private:
  const RunConfig& config_;
  const unsigned connection_;
  Rng rng_;
  uint64_t count_ = 0;
};

struct ReplyInfo {
  bool ok = false;
  bool warm_hit = false;
  double queued_ms = 0.0, solve_ms = 0.0;
  double sampled = 0.0, served = 0.0;
};

/// Checks solve replies: ok, the right id, a prefix allocation of exactly
/// the budgets, a finite welfare for eval requests, and `result` bytes
/// identical across every reply for one (seed, budgets, eval) key —
/// whether it was served warm or cold.
class ReplyChecker {
 public:
  explicit ReplyChecker(const RunConfig& config)
      : config_(config), corrupt_pending_(config.corrupt) {}

  ReplyInfo Check(const Request& request, const std::string& reply) {
    ReplyInfo info;
    Result<serve::Json> parsed = serve::Json::Parse(reply);
    if (!parsed.ok()) return info;
    const serve::Json& json = parsed.value();
    const serve::Json* ok = json.Find("ok");
    const serve::Json* id = json.Find("id");
    const serve::Json* result = json.Find("result");
    const serve::Json* serve_info = json.Find("serve");
    if (ok == nullptr || !ok->AsBool() || id == nullptr ||
        id->AsInt(-1) != request.id || result == nullptr ||
        serve_info == nullptr) {
      return info;
    }
    const serve::Json* allocation = result->Find("allocation");
    if (allocation == nullptr) return info;
    serve::Json checked = *allocation;
    if (TakeCorruption()) {
      serve::Json truncated = serve::Json::Array();
      for (size_t i = 0; i + 1 < checked.size(); ++i) {
        truncated.Append(checked.items()[i]);
      }
      checked = truncated;
    }
    const std::vector<uint32_t>& budgets =
        config_.workload.budgets[request.budget];
    if (!CheckPrefixAllocationJson(checked, budgets)) return info;
    if (request.klass == kEval) {
      const serve::Json* welfare = result->Find("welfare");
      if (welfare == nullptr || welfare->Find("welfare") == nullptr ||
          !std::isfinite(welfare->Find("welfare")->AsDouble(NAN))) {
        return info;
      }
    }
    const size_t begin = reply.find("\"result\":");
    const size_t end = reply.rfind(",\"serve\":");
    if (begin == std::string::npos || end == std::string::npos || end < begin) {
      return info;
    }
    if (!SameResult(request, reply.substr(begin, end - begin))) return info;

    const auto field = [&](const char* name) {
      const serve::Json* f = serve_info->Find(name);
      return f == nullptr ? 0.0 : f->AsDouble();
    };
    info.warm_hit = serve_info->Find("warm_hit") != nullptr &&
                    serve_info->Find("warm_hit")->AsBool();
    info.queued_ms = field("queued_ms");
    info.solve_ms = field("solve_ms");
    info.sampled = field("rr_sets_sampled");
    info.served = field("rr_sets_served");
    info.ok = true;
    return info;
  }

 private:
  bool TakeCorruption() {
    MutexLock lock(mu_);
    const bool take = corrupt_pending_;
    corrupt_pending_ = false;
    return take;
  }

  bool SameResult(const Request& request, const std::string& bytes) {
    MutexLock lock(mu_);
    const auto key = std::make_tuple(request.key, request.budget,
                                     request.klass == kEval);
    const auto [it, inserted] = results_.emplace(key, bytes);
    return inserted || it->second == bytes;
  }

  const RunConfig& config_;
  Mutex mu_;
  bool corrupt_pending_ UIC_GUARDED_BY(mu_);
  std::map<std::tuple<uint64_t, size_t, bool>, std::string> results_
      UIC_GUARDED_BY(mu_);
};

/// Per-connection samples, merged after the threads are joined.
struct Samples {
  std::vector<double> latency_ms[kKlasses];  ///< client or HandleLine time
  std::vector<double> traced_ms[kKlasses];   ///< HandleLine, traced requests
  std::vector<double> plain_ms[kKlasses];    ///< HandleLine, untraced
  std::vector<double> parse_us, dump_us, queued_ms, solve_ms;
  size_t sent = 0, warm_requested = 0, warm_hits = 0;
  double sampled = 0.0, served = 0.0;

  void Merge(const Samples& o) {
    for (int c = 0; c < kKlasses; ++c) {
      Append(&latency_ms[c], o.latency_ms[c]);
      Append(&traced_ms[c], o.traced_ms[c]);
      Append(&plain_ms[c], o.plain_ms[c]);
    }
    Append(&parse_us, o.parse_us);
    Append(&dump_us, o.dump_us);
    Append(&queued_ms, o.queued_ms);
    Append(&solve_ms, o.solve_ms);
    sent += o.sent;
    warm_requested += o.warm_requested;
    warm_hits += o.warm_hits;
    sampled += o.sampled;
    served += o.served;
  }
  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (const auto& v : latency_ms) Append(&all, v);
    return all;
  }
  static void Append(std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  }
};

void Record(const Request& request, const ReplyInfo& info, double ms,
            Samples* s, Report* report) {
  report->CountOp(info.ok);
  ++s->sent;
  if (!info.ok) return;
  s->latency_ms[request.klass].push_back(ms);
  s->queued_ms.push_back(info.queued_ms);
  s->solve_ms.push_back(info.solve_ms);
  if (request.klass != kCold) {
    ++s->warm_requested;
    s->warm_hits += info.warm_hit ? 1 : 0;
  }
  s->sampled += info.sampled;
  s->served += info.served;
}

/// One request/reply round trip on a line channel; false when the
/// connection failed.
bool RoundTrip(serve::FdLineChannel& channel, const std::string& line,
               std::string* reply) {
  return channel.WriteLine(line) && channel.ReadLine(reply);
}

bool ReplyOk(const std::string& reply) {
  Result<serve::Json> parsed = serve::Json::Parse(reply);
  return parsed.ok() && parsed.value().Find("ok") != nullptr &&
         parsed.value().Find("ok")->AsBool();
}

/// Closed loop over kWorkers TCP connections to `port` for `seconds`:
/// each connection sends its next request when the previous reply lands.
Samples RunTcpLoop(const RunConfig& config, uint16_t port, double seconds,
                   ReplyChecker* checker, Report* report, double* elapsed) {
  std::vector<Samples> per_connection(kWorkers);
  WallTimer clock;
  {
    std::vector<std::unique_ptr<BackgroundThread>> clients;
    for (unsigned c = 0; c < kWorkers; ++c) {
      clients.push_back(std::make_unique<BackgroundThread>([&, c] {
        Result<serve::TcpConnection> conn = serve::TcpListener::Connect(port);
        if (!conn.ok()) return report->CountOp(false);
        serve::FdLineChannel channel(conn.value().fd(), conn.value().fd(),
                                     /*socket_fds=*/true);
        MixStream stream(config, c);
        std::string reply;
        while (clock.ElapsedSeconds() < seconds) {
          const Request request = stream.Next();
          WallTimer timer;
          if (!RoundTrip(channel, request.line, &reply)) {
            return report->CountOp(false);
          }
          const double ms = timer.ElapsedMillis();
          Record(request, checker->Check(request, reply), ms,
                 &per_connection[c], report);
        }
      }));
    }
  }  // joins the clients
  *elapsed = clock.ElapsedSeconds();
  Samples all;
  for (const Samples& s : per_connection) all.Merge(s);
  return all;
}

/// The pinned welfare check through a serve endpoint: load the pinned
/// graph as "check", solve it with a kSims-simulation estimate.
bool PinnedCheckOverChannel(serve::FdLineChannel& channel) {
  std::string reply;
  const std::string load = std::string(
      "{\"id\":3,\"verb\":\"load_graph\",\"name\":\"check\",") +
      PinnedCheck::GraphSpec() + "}";
  if (!RoundTrip(channel, load, &reply) || !ReplyOk(reply)) return false;
  const std::string solve =
      SolveLine(4, "check", PinnedCheck::Budgets(), PinnedCheck::kSolverSeed,
                0.5, PinnedCheck::kSims, /*warm=*/true);
  if (!RoundTrip(channel, solve, &reply)) return false;
  Result<serve::Json> parsed = serve::Json::Parse(reply);
  if (!parsed.ok()) return false;
  const serve::Json* result = parsed.value().Find("result");
  const serve::Json* allocation =
      result == nullptr ? nullptr : result->Find("allocation");
  const serve::Json* welfare =
      result == nullptr ? nullptr : result->Find("welfare");
  std::vector<std::pair<NodeId, ItemSet>> entries;
  if (allocation == nullptr || welfare == nullptr ||
      welfare->Find("welfare") == nullptr ||
      !AllocationFromJson(*allocation,
                          static_cast<ItemId>(PinnedCheck::Budgets().size()),
                          &entries)) {
    return false;
  }
  const double estimate = welfare->Find("welfare")->AsDouble(NAN);
  if (entries != PinnedCheck::Allocation() ||
      !PinnedCheck::WelfareOk(estimate)) {
    std::fprintf(stderr, "uic_perf: pinned check failed: %s\n", reply.c_str());
    return false;
  }
  return true;
}

double CountDelta(const std::map<std::string, double>& after,
                  const std::map<std::string, double>& before,
                  const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

}  // namespace

int RunServeClient(const RunConfig& config, bool setup, Report* report) {
  const Workload& w = config.workload;
  const uint16_t port = static_cast<uint16_t>(config.port);
  if (setup) {
    Result<serve::TcpConnection> conn = serve::TcpListener::Connect(port);
    if (!conn.ok()) return 1;
    serve::FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
    std::string reply;
    // The untimed warm-up solve: a warm solve of key 0 at the largest
    // budget (its cost belongs to set-up).
    for (const std::string& line :
         {LoadGraphLine(w), std::string(kLoadParamsLine),
          SolveLine(5, "g", w.budgets.back(), KeySeed(config.seed, 0), w.eps,
                    0, true)}) {
      const bool ok = RoundTrip(channel, line, &reply) && ReplyOk(reply);
      report->CountOp(ok);
      if (!ok) return 1;
    }
    return 0;
  }

  ReplyChecker checker(config);
  double elapsed = 0.0;
  const Samples s =
      RunTcpLoop(config, port, config.seconds, &checker, report, &elapsed);
  Result<serve::TcpConnection> conn = serve::TcpListener::Connect(port);
  if (conn.ok()) {
    serve::FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
    report->CountOp(PinnedCheckOverChannel(channel));
  } else {
    report->CountOp(false);
  }
  const std::vector<double> all = s.AllLatencies();
  report->Add("req_ms_p50", Quantile(all, 0.5), "ms");
  report->Add("req_ms_p99", Quantile(all, 0.99), "ms");
  // Every request is one allocation, so allocs_per_s and req_per_s are
  // the same measurement here.
  report->Add("req_per_s", static_cast<double>(all.size()) / elapsed, "1/s");
  report->Add("allocs_per_s", static_cast<double>(all.size()) / elapsed,
              "1/s");
  report->Add("solve_ms_p50", Quantile(s.solve_ms, 0.5), "ms");
  report->Add("solve_ms_p90", Quantile(s.solve_ms, 0.9), "ms");
  report->Add("eval_ms_p50", Quantile(s.latency_ms[kEval], 0.5), "ms");
  return 0;
}

void RunServeProbe(const RunConfig& config, double seconds, SpanLog* log,
                   Report* report) {
  serve::Server server(serve::ServerOptions{});
  for (const std::string& line :
       {LoadGraphLine(config.workload), std::string(kLoadParamsLine)}) {
    report->CountOp(ReplyOk(server.HandleLine(line)));
  }
  ReplyChecker checker(config);
  {
    // Exact counts: registry deltas over the first kCountedRequests
    // requests of connection 0's stream, sent from this thread alone on
    // the fresh server, so they repeat for a fixed workload seed.
    const auto start =
        ParseExposition(obs::MetricsRegistry::Global().ExpositionText(false));
    MixStream stream(config, 0);
    for (int n = 0; n < kCountedRequests; ++n) {
      const Request request = stream.Next();
      report->CountOp(checker.Check(request, server.HandleLine(request.line)).ok);
    }
    const auto end =
        ParseExposition(obs::MetricsRegistry::Global().ExpositionText(false));
    report->Add("serve.warm_hits",
                CountDelta(end, start, "uic_serve_warm_hits_total"), "count");
    report->Add("serve.warm_misses",
                CountDelta(end, start, "uic_serve_warm_misses_total"),
                "count");
    report->Add("rrset.cache_sets_served",
                CountDelta(end, start, "uic_rr_cache_sets_served_total"),
                "count");
  }
  const auto before =
      ParseExposition(obs::MetricsRegistry::Global().ExpositionText(false));
  {
    // Warm every key first, so both phases below see the same warm cache
    // and serve.net_ms compares like with like.
    std::vector<std::unique_ptr<BackgroundThread>> threads;
    for (unsigned t = 0; t < kWorkers; ++t) {
      threads.push_back(std::make_unique<BackgroundThread>([&, t] {
        for (uint64_t key = t; key < kKeySeeds; key += kWorkers) {
          report->CountOp(ReplyOk(server.HandleLine(SolveLine(
              static_cast<long long>(100 + key), "g",
              config.workload.budgets.back(), KeySeed(config.seed, key),
              config.workload.eps, 0, /*warm=*/true))));
        }
      }));
    }
  }

  // Phase 1: HandleLine in-process from kWorkers threads; every other
  // request is traced (root span + parse / handle / dump children).
  const double inproc_seconds = seconds / 2;
  std::vector<Samples> per_thread(kWorkers);
  {
    WallTimer clock;
    std::vector<std::unique_ptr<BackgroundThread>> threads;
    for (unsigned t = 0; t < kWorkers; ++t) {
      threads.push_back(std::make_unique<BackgroundThread>([&, t] {
        MixStream stream(config, t);
        Samples& s = per_thread[t];
        for (uint64_t n = 0; n == 0 || clock.ElapsedSeconds() < inproc_seconds;
             ++n) {
          const Request request = stream.Next();
          const bool traced = n % 2 == 1;
          const uint64_t rid = static_cast<uint64_t>(request.id);
          SpanLog::Scope root(traced ? log : nullptr, "serve.request", rid);
          if (traced) {
            SpanLog::Scope parse(log, "serve.parse", rid);
            Result<serve::Request> parsed = serve::ParseRequest(request.line);
            s.parse_us.push_back(parse.Finish() * 1e3);
            if (!parsed.ok()) report->CountOp(false);
          }
          std::string reply;
          double handle_ms = 0.0;
          {
            SpanLog::Scope handle(traced ? log : nullptr, "serve.handle", rid);
            reply = server.HandleLine(request.line);
            handle_ms = handle.Finish();
          }
          if (traced) {
            Result<serve::Json> parsed = serve::Json::Parse(reply);
            if (parsed.ok()) {
              SpanLog::Scope dump(log, "serve.dump", rid);
              const std::string dumped = parsed.value().Dump();
              s.dump_us.push_back(dump.Finish() * 1e3);
            }
            s.traced_ms[request.klass].push_back(handle_ms);
          } else {
            s.plain_ms[request.klass].push_back(handle_ms);
          }
          Record(request, checker.Check(request, reply), handle_ms, &s, report);
        }
      }));
    }
  }
  Samples inproc;
  for (const Samples& s : per_thread) inproc.Merge(s);

  // Phase 2: the same mix over loopback TCP into the same server.
  Result<serve::TcpListener> listener = serve::TcpListener::Listen(0);
  if (!listener.ok()) return report->CountOp(false);
  const uint16_t port = listener.value().port();
  Samples tcp;
  std::map<std::string, double> after;
  {
    BackgroundThread accept_loop([&] {
      if (!server.ServeTcp(listener.value()).ok()) report->CountOp(false);
    });
    double elapsed = 0.0;
    tcp = RunTcpLoop(config, port, seconds - inproc_seconds, &checker, report,
                     &elapsed);
    Result<serve::TcpConnection> conn = serve::TcpListener::Connect(port);
    if (conn.ok()) {
      serve::FdLineChannel channel(conn.value().fd(), conn.value().fd(), true);
      std::string reply;
      if (RoundTrip(channel, "{\"id\":6,\"verb\":\"metrics\"}", &reply)) {
        Result<serve::Json> parsed = serve::Json::Parse(reply);
        const serve::Json* result =
            parsed.ok() ? parsed.value().Find("result") : nullptr;
        if (result != nullptr && result->Find("text") != nullptr) {
          after = ParseExposition(result->Find("text")->AsString());
        }
      }
      report->CountOp(!after.empty());
      report->CountOp(RoundTrip(channel, "{\"id\":7,\"verb\":\"shutdown\"}",
                                &reply) &&
                      ReplyOk(reply));
    } else {
      report->CountOp(false);
      server.BeginDrain();
    }
  }  // joins the accept loop

  for (int c = 0; c < kKlasses; ++c) {
    report->Add(std::string("serve.handle_ms.") + kKlassNames[c],
                Median(inproc.latency_ms[c]), "ms");
  }
  report->Add("serve.parse_us", Median(inproc.parse_us), "us");
  report->Add("serve.dump_us", Median(inproc.dump_us), "us");
  report->Add("serve.queued_ms_p50", Median(tcp.queued_ms), "ms");
  report->Add("serve.solve_ms_p50", Median(tcp.solve_ms), "ms");
  report->Add("serve.net_ms",
              Median(tcp.latency_ms[kWarm]) - Median(inproc.latency_ms[kWarm]),
              "ms");
  report->Add("trace.serve_overhead_pct",
              100.0 * (Median(inproc.traced_ms[kWarm]) /
                           Median(inproc.plain_ms[kWarm]) -
                       1.0),
              "%");
  Samples both = inproc;
  both.Merge(tcp);
  report->Add("serve.warm_hit_share",
              static_cast<double>(both.warm_hits) /
                  static_cast<double>(std::max<size_t>(both.warm_requested, 1)),
              "share");
  report->Add("serve.rr_reuse_share",
              both.served > 0 ? 1.0 - both.sampled / both.served : 0.0,
              "share");
  report->Add("serve.shed_share",
              CountDelta(after, before, "uic_serve_shed_total") /
                  static_cast<double>(std::max<size_t>(both.sent, 1)),
              "share");
}

}  // namespace uic::perf
