#include "serve/server.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "diffusion/uic_model.h"
#include "items/itemset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/registry.h"

namespace uic {
namespace serve {

namespace {

/// The request-accounting instruments the stats verb reads. Bundled so the
/// Server constructor can snapshot all four baselines from one place.
struct RequestInstruments {
  obs::Counter& ok;
  obs::Counter& errors;
  obs::Counter& solves;
  obs::Histogram& solve_latency_ms;
};

RequestInstruments& RequestAccounting() {
  UIC_METRIC_COUNTER_LABELED(
      ok, "uic_serve_requests_total", "status=\"ok\"",
      "Requests answered, by final response status.");
  UIC_METRIC_COUNTER_LABELED(
      errors, "uic_serve_requests_total", "status=\"error\"",
      "Requests answered, by final response status.");
  UIC_METRIC_COUNTER(
      solves, "uic_serve_solves_total",
      "Solve requests answered ok (deadline-exceeded solves are errors).");
  UIC_METRIC_HISTOGRAM_MS(
      solve_latency_ms, "uic_serve_solve_latency_ms", "",
      "Solver wall time per ok solve response, milliseconds.");
  static RequestInstruments instruments{ok, errors, solves,
                                        solve_latency_ms};
  return instruments;
}

/// One accounting path for every answered request (including lines that
/// fail to parse, recorded under verb "other"). The ok/error tally is
/// recorded before the solve tally at its call site, so `solves <= ok`
/// holds whenever the instance is quiesced.
void AccountRequest(obs::Counter& verb_requests, bool ok) {
  RequestInstruments& m = RequestAccounting();
  (ok ? m.ok : m.errors).Add();
  verb_requests.Add();
}

Json AllocationToJson(const Allocation& allocation) {
  Json out = Json::Array();
  for (const auto& [node, items] : allocation.entries()) {
    Json entry = Json::Object();
    entry.Set("node", Json::Int(node));
    Json item_list = Json::Array();
    ForEachItem(items,
                [&](ItemId i) { item_list.Append(Json::Int(i)); });
    entry.Set("items", std::move(item_list));
    out.Append(std::move(entry));
  }
  return out;
}

/// RAII admission-slot return (a no-op until a slot is taken).
struct SlotGuard {
  AdmissionController* admission = nullptr;
  ~SlotGuard() {
    if (admission != nullptr) admission->Release();
  }
};

// The per-verb completion counter of one verb's row.
#define UIC_VERB_COUNTER(var, verb)                                \
  UIC_METRIC_COUNTER_LABELED(var, "uic_serve_verb_requests_total", \
                             "verb=\"" verb "\"",                 \
                             "Requests answered, by verb.")

}  // namespace

struct Server::Verb {
  /// How HandleRequest runs the handler and when it counts the request.
  enum class Mode {
    kReport,    ///< never fails; counted first, so stats/metrics see it
    kDirect,    ///< runs at once; counted by its outcome
    kAdmitted,  ///< runs in an admission slot (may shed or queue)
  };
  const char* name;
  obs::Counter& requests;  ///< uic_serve_verb_requests_total{verb=name}
  Mode mode;
  Result<Json> (*handle)(Server&, Call&);
};

const Server::Verb& Server::FindVerb(const std::string& name) {
  // The verb="…" label set is closed (unknown verbs count as "other"), so
  // every series exists from first use with a literal label — the
  // exposition schema never depends on client input.
  UIC_VERB_COUNTER(c_ping, "ping");
  UIC_VERB_COUNTER(c_stats, "stats");
  UIC_VERB_COUNTER(c_metrics, "metrics");
  UIC_VERB_COUNTER(c_shutdown, "shutdown");
  UIC_VERB_COUNTER(c_set_failpoints, "set_failpoints");
  UIC_VERB_COUNTER(c_unload, "unload");
  UIC_VERB_COUNTER(c_load_graph, "load_graph");
  UIC_VERB_COUNTER(c_load_params, "load_params");
  UIC_VERB_COUNTER(c_solve, "solve");
  UIC_VERB_COUNTER(c_other, "other");
  using enum Verb::Mode;
  static const Verb kVerbs[] = {
      {"ping", c_ping, kReport,
       [](Server&, Call&) -> Result<Json> {
         Json result = Json::Object();
         result.Set("pong", Json::Bool(true));
         return result;
       }},
      {"stats", c_stats, kReport,
       [](Server& server, Call&) -> Result<Json> { return server.Stats(); }},
      {"metrics", c_metrics, kReport,
       [](Server& server, Call&) -> Result<Json> {
         Json result = Json::Object();
         result.Set("format", Json::Str("prometheus-text"));
         result.Set("text", Json::Str(server.MetricsText()));
         return result;
       }},
      {"shutdown", c_shutdown, kReport,
       [](Server& server, Call&) -> Result<Json> {
         server.BeginDrain();
         Json result = Json::Object();
         result.Set("draining", Json::Bool(true));
         return result;
       }},
      {"set_failpoints", c_set_failpoints, kDirect,
       [](Server& server, Call& call) -> Result<Json> {
         if (!server.options_.testing) {
           return Status::FailedPrecondition(
               "set_failpoints requires a --testing daemon");
         }
         return server.DoSetFailpoints(call.request.body);
       }},
      {"unload", c_unload, kDirect,
       [](Server& server, Call& call) {
         return server.DoUnload(call.request.body);
       }},
      {"load_graph", c_load_graph, kAdmitted,
       [](Server& server, Call& call) { return server.DoLoadGraph(call); }},
      {"load_params", c_load_params, kAdmitted,
       [](Server& server, Call& call) { return server.DoLoadParams(call); }},
      {"solve", c_solve, kAdmitted,
       [](Server& server, Call& call) { return server.DoSolve(call); }},
  };
  static const Verb kOther{"other", c_other, kDirect, nullptr};
  for (const Verb& verb : kVerbs) {
    if (name == verb.name) return verb;
  }
  return kOther;
}

Server::Server(ServerOptions options, std::atomic<bool>* stop)
    : options_(options),
      stop_(stop != nullptr ? stop : &own_stop_),
      sessions_(options.max_graphs, options.max_params),
      warm_(options.warm_entries),
      admission_({options.concurrency, options.queue_capacity}) {
  // Snapshot the process-global tallies: Stats() reports this instance's
  // deltas, so a fresh Server starts from zero like the old per-instance
  // RequestCounters did.
  const RequestInstruments& m = RequestAccounting();
  base_solves_ = m.solves.Value();
  base_ok_ = m.ok.Value();
  base_errors_ = m.errors.Value();
  base_solve_ms_ = m.solve_latency_ms.Sum();
}

void Server::BeginDrain() {
  stop_->store(true, std::memory_order_relaxed);
  admission_.BeginDrain();
}

Json Server::Stats() const {
  Json out = Json::Object();
  out.Set("sessions", sessions_.Describe());
  out.Set("warm_cache", warm_.Describe());
  out.Set("admission", admission_.Describe());

  // The registry totals minus this instance's construction-time baseline,
  // in the exact JSON shape the golden transcripts pin. Solves are read
  // before ok so a concurrent solve's paired increments (ok first, solve
  // second at the same site) can only be seen as ok-without-solve.
  const RequestInstruments& m = RequestAccounting();
  const uint64_t solves = m.solves.Value() - base_solves_;
  const uint64_t ok = m.ok.Value() - base_ok_;
  const uint64_t errors = m.errors.Value() - base_errors_;
  Json requests = Json::Object();
  requests.Set("requests", Json::Int(static_cast<long long>(ok + errors)));
  requests.Set("ok", Json::Int(static_cast<long long>(ok)));
  requests.Set("errors", Json::Int(static_cast<long long>(errors)));
  requests.Set("solves", Json::Int(static_cast<long long>(solves)));
  if (options_.include_timing) {
    requests.Set("solve_ms_total",
                 Json::Number(m.solve_latency_ms.Sum() - base_solve_ms_));
  }
  out.Set("requests", std::move(requests));
  return out;
}

std::string Server::MetricsText() const {
  return obs::MetricsRegistry::Global().ExpositionText(
      options_.include_timing);
}

std::string Server::HandleLine(const std::string& line) {
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    AccountRequest(FindVerb("").requests, false);
    return ErrorResponse(Json::Null(), ErrorCode::kBadRequest,
                         parsed.status().message());
  }
  return HandleRequest(parsed.value());
}

std::string Server::HandleRequest(const Request& request) {
  Call call(request);
  const Verb& verb = FindVerb(request.verb);
  if (verb.handle == nullptr) {
    AccountRequest(verb.requests, false);
    return ErrorResponse(request.id, ErrorCode::kBadRequest,
                         "unknown verb '" + request.verb + "'");
  }

  if (verb.mode == Verb::Mode::kReport) AccountRequest(verb.requests, true);
  SlotGuard slot;
  if (verb.mode == Verb::Mode::kAdmitted) {
    AdmissionController::Decision decision;
    {
      obs::TraceSpan wait_span("serve.admission_wait");
      decision = admission_.Admit(request.deadline_ms, &call.queued_ms);
    }
    switch (decision) {
      case AdmissionController::Decision::kShed:
        AccountRequest(verb.requests, false);
        return ErrorResponse(request.id, ErrorCode::kOverloaded,
                             "admission queue full; retry later");
      case AdmissionController::Decision::kDeadlineExceeded:
        AccountRequest(verb.requests, false);
        return ErrorResponse(request.id, ErrorCode::kDeadlineExceeded,
                             "request exceeded its deadline_ms while queued");
      case AdmissionController::Decision::kDraining:
        AccountRequest(verb.requests, false);
        return ErrorResponse(request.id, ErrorCode::kUnavailable,
                             "server is draining for shutdown");
      case AdmissionController::Decision::kAdmitted:
        slot.admission = &admission_;
        break;
    }
  }

  Result<Json> result = verb.handle(*this, call);
  // Single accounting site for the solve invariant: ok is recorded first,
  // then the solve tally — and only for an ok response, so a
  // deadline-exceeded solve counts as an error, never a solve.
  if (verb.mode != Verb::Mode::kReport) {
    AccountRequest(verb.requests, result.ok());
  }
  if (!result.ok()) {
    const ErrorCode code =
        call.shed ? ErrorCode::kOverloaded : CodeFromStatus(result.status());
    return ErrorResponse(request.id, code, result.status().message(),
                         call.partial);
  }
  if (call.solve_ms.has_value()) {
    RequestInstruments& m = RequestAccounting();
    m.solves.Add();
    m.solve_latency_ms.Observe(*call.solve_ms);
  }
  return OkResponse(request.id, result.value(), call.serve_info);
}

Result<Json> Server::DoLoadGraph(Call& call) {
  const Json& body = call.request.body;
  Result<std::string> name = GetStringField(body, "name");
  if (!name.ok()) return name.status();
  if (name.value().empty()) {
    return Status::InvalidArgument("load_graph needs a 'name'");
  }
  Result<Graph> graph = BuildGraphFromSpec(body);
  if (!graph.ok()) return graph.status();
  Result<GraphSession> session =
      sessions_.AddGraph(name.value(), graph.MoveValue());
  if (!session.ok()) {
    // The registry caps are admission control: a full registry sheds the
    // load (kOverloaded) rather than reporting a client mistake.
    call.shed = session.status().code() == Status::Code::kFailedPrecondition;
    return session.status();
  }
  // A same-name replace retires the old generation's warm entries: the
  // old graph object stays alive only for solves already holding a pin.
  Json result = Json::Object();
  result.Set("name", Json::Str(session.value().name));
  result.Set("generation",
             Json::Int(static_cast<long long>(session.value().generation)));
  result.Set("nodes", Json::Int(session.value().graph->num_nodes()));
  result.Set("edges", Json::Int(static_cast<long long>(
                          session.value().graph->num_edges())));
  return result;
}

Result<Json> Server::DoLoadParams(Call& call) {
  const Json& body = call.request.body;
  Result<std::string> name = GetStringField(body, "name");
  if (!name.ok()) return name.status();
  if (name.value().empty()) {
    return Status::InvalidArgument("load_params needs a 'name'");
  }
  Result<ItemParams> params = BuildParamsFromSpec(body);
  if (!params.ok()) return params.status();
  Result<ParamsSession> session =
      sessions_.AddParams(name.value(), params.MoveValue());
  if (!session.ok()) {
    // As for graphs: a full registry sheds the load.
    call.shed = session.status().code() == Status::Code::kFailedPrecondition;
    return session.status();
  }
  Json result = Json::Object();
  result.Set("name", Json::Str(session.value().name));
  result.Set("generation",
             Json::Int(static_cast<long long>(session.value().generation)));
  result.Set("items", Json::Int(session.value().params->num_items()));
  return result;
}

Result<Json> Server::DoUnload(const Json& body) {
  Result<std::string> graph_field = GetStringField(body, "graph");
  if (!graph_field.ok()) return graph_field.status();
  Result<std::string> params_field = GetStringField(body, "params");
  if (!params_field.ok()) return params_field.status();
  const std::string& graph_name = graph_field.value();
  const std::string& params_name = params_field.value();
  if (graph_name.empty() == params_name.empty()) {
    return Status::InvalidArgument(
        "unload needs exactly one of 'graph' or 'params'");
  }
  Json result = Json::Object();
  if (!graph_name.empty()) {
    uint64_t generation = 0;
    UIC_RETURN_NOT_OK(sessions_.RemoveGraph(graph_name, &generation));
    warm_.DropGeneration(generation);
    result.Set("unloaded_graph", Json::Str(graph_name));
  } else {
    UIC_RETURN_NOT_OK(sessions_.RemoveParams(params_name));
    result.Set("unloaded_params", Json::Str(params_name));
  }
  return result;
}

Result<Json> Server::DoSetFailpoints(const Json& body) {
  const Json* points = body.Find("failpoints");
  if (points == nullptr || !points->is_object()) {
    return Status::InvalidArgument(
        "set_failpoints needs a 'failpoints' object mapping site names to "
        "policy strings");
  }
  for (const auto& [name, policy] : points->members()) {
    if (!policy.is_string()) {
      return Status::InvalidArgument("failpoint '" + name +
                                     "' policy must be a string");
    }
    UIC_RETURN_NOT_OK(failpoint::Set(name, policy.AsString()));
  }
  Json armed = Json::Object();
  for (const auto& [name, spec] : failpoint::List()) {
    armed.Set(name, Json::Str(spec));
  }
  Json result = Json::Object();
  result.Set("armed", std::move(armed));
  return result;
}

Result<Json> Server::DoSolve(Call& call) {
  obs::TraceSpan solve_span("serve.solve");
  // Post-admission site: error(...) exercises the typed internal error
  // path; delay_ms(n) pins a solve in flight (the SIGTERM-drain and
  // mid-solve-deadline tests) without touching solver code.
  const failpoint::Hit fp = UIC_FAILPOINT("serve.solve.admitted");
  if (fp.action == failpoint::Action::kError) {
    return Status::Internal("injected fault at serve.solve.admitted");
  }
  failpoint::SleepFor(fp);
  Result<Json> result = SolveAdmitted(call);
  solve_span.SetAttr("ok", result.ok() ? 1 : 0);
  return result;
}

Result<Json> Server::SolveAdmitted(Call& call) {
  const Json& body = call.request.body;
  Result<std::string> graph_name = GetStringField(body, "graph");
  if (!graph_name.ok()) return graph_name.status();
  if (graph_name.value().empty()) {
    return Status::InvalidArgument("solve needs a 'graph' session name");
  }
  Result<GraphSession> graph_session = sessions_.GetGraph(graph_name.value());
  if (!graph_session.ok()) return graph_session.status();
  const GraphSession& graph = graph_session.value();

  const Json* budgets_field = body.Find("budgets");
  if (budgets_field == nullptr || !budgets_field->is_array() ||
      budgets_field->items().empty()) {
    return Status::InvalidArgument(
        "'budgets' must be a non-empty array of per-item seed budgets");
  }
  std::vector<uint32_t> budgets;
  for (const Json& b : budgets_field->items()) {
    if (!b.is_number() ||
        b.AsDouble() != static_cast<double>(b.AsInt()) || b.AsInt() < 0 ||
        b.AsInt() > 1000000) {
      return Status::InvalidArgument(
          "'budgets' entries must be integers in [0, 1000000]");
    }
    budgets.push_back(static_cast<uint32_t>(b.AsInt()));
  }

  WelfareProblem problem;
  problem.graph = graph.graph.get();
  problem.budgets = std::move(budgets);

  Result<std::string> params_name = GetStringField(body, "params");
  if (!params_name.ok()) return params_name.status();
  if (!params_name.value().empty()) {
    Result<ParamsSession> params = sessions_.GetParams(params_name.value());
    if (!params.ok()) return params.status();
    problem.params = *params.value().params;
  }

  Result<std::string> model = GetStringField(body, "model", "ic");
  if (!model.ok()) return model.status();
  if (model.value() != "ic" && model.value() != "lt") {
    return Status::InvalidArgument("'model' must be \"ic\" or \"lt\"");
  }
  const bool lt = model.value() == "lt";
  problem.model = lt ? DiffusionModel::kLinearThreshold
                     : DiffusionModel::kIndependentCascade;

  SolverOptions options;
  Result<long long> seed = GetIntField(body, "seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return seed.status();
  options.seed = static_cast<uint64_t>(seed.value());
  Result<double> eps = GetNumberField(body, "eps", 0.5, 1e-6, 1.0);
  if (!eps.ok()) return eps.status();
  options.eps = eps.value();
  Result<double> ell = GetNumberField(body, "ell", 1.0, 1e-6, 16.0);
  if (!ell.ok()) return ell.status();
  options.ell = ell.value();

  Result<std::string> algorithm =
      GetStringField(body, "algorithm", "bundle-grd");
  if (!algorithm.ok()) return algorithm.status();
  Result<long long> eval_sims =
      GetIntField(body, "eval_sims", 0, 0, 1000000);
  if (!eval_sims.ok()) return eval_sims.status();
  Result<long long> eval_seed =
      GetIntField(body, "eval_seed", 20190701, 0, INT64_MAX);
  if (!eval_seed.ok()) return eval_seed.status();
  const Json* warm_field = body.Find("warm");
  if (warm_field != nullptr && !warm_field->is_bool()) {
    return Status::InvalidArgument("'warm' must be a boolean");
  }
  const bool warm = warm_field == nullptr || warm_field->AsBool(true);

  // Warm path: exclusive lease on the shared pool for (generation, seed,
  // LT). Cold path ('warm':false): a private cache, so the request still
  // reports exact sampled counts — the payload is identical either way by
  // the RrStreamCache replay contract.
  RrStreamCache cold_cache;
  WarmLease lease;
  RrStreamCache* cache = &cold_cache;
  bool warm_hit = false;
  if (warm) {
    obs::TraceSpan acquire_span("serve.warm_acquire");
    WarmKey key;
    key.generation = graph.generation;
    key.seed = options.seed;
    key.linear_threshold = lt;
    lease = warm_.Acquire(key, graph.graph);
    cache = lease.cache();
    warm_hit = lease.hit();
    acquire_span.SetAttr("hit", warm_hit ? 1 : 0);
  }
  const RrStreamCache::Stats before = cache->stats();
  options.rr_options.stream_cache = cache;

  WallTimer timer;
  Result<std::unique_ptr<Solver>> solver =
      SolverRegistry::CreateOrError(algorithm.value(), options);
  if (!solver.ok()) return solver.status();
  Result<AllocationResult> solved = [&] {
    obs::TraceSpan solver_span("solver.solve");
    return solver.value()->Solve(problem);
  }();
  const double solve_ms = timer.ElapsedMillis();
  call.solve_ms = solve_ms;
  const RrStreamCache::Stats after = cache->stats();
  // Hand the pool back before the (cache-independent) welfare evaluation
  // so a same-key request can start solving during our eval.
  lease.Release();
  if (!solved.ok()) return solved.status();
  const AllocationResult& allocation_result = solved.value();

  // Cheap deadline checks at solve-phase boundaries: a request that blows
  // its end-to-end budget mid-solve must not return a full result late.
  // The client gets progress stats, never a payload it could mistake for
  // the answer it stopped waiting for.
  const auto deadline_expired = [&]() {
    const double deadline_ms = call.request.deadline_ms;
    return deadline_ms > 0.0 && call.timer.ElapsedMillis() > deadline_ms;
  };
  const auto deadline_status = [&]() -> Status {
    Json* partial = &call.partial;
    *partial = Json::Object();
    partial->Set("num_rr_sets",
                 Json::Int(static_cast<long long>(
                     allocation_result.num_rr_sets)));
    partial->Set("rr_sets_sampled",
                 Json::Int(static_cast<long long>(after.sampled_sets -
                                                  before.sampled_sets)));
    partial->Set("rr_sets_served",
                 Json::Int(static_cast<long long>(after.served_sets -
                                                  before.served_sets)));
    return Status::DeadlineExceeded(
        "request exceeded its deadline_ms mid-solve");
  };
  if (deadline_expired()) return deadline_status();

  Json result = Json::Object();
  result.Set("algorithm", Json::Str(solver.value()->name()));
  result.Set("model", Json::Str(model.value()));
  result.Set("seed", Json::Int(seed.value()));
  result.Set("allocation", AllocationToJson(allocation_result.allocation));
  result.Set("num_rr_sets",
             Json::Int(static_cast<long long>(
                 allocation_result.num_rr_sets)));
  result.Set("objective", Json::Number(allocation_result.objective));
  if (problem.params.has_value() && eval_sims.value() > 0) {
    obs::TraceSpan estimate_span("serve.estimate");
    UIC_METRIC_TIMING_COUNTER(
        estimate_us, "uic_solver_phase_us_total", "phase=\"estimate\"",
        "Wall time per solve phase, microseconds.");
    WallTimer estimate_timer;
    const WelfareEstimate estimate = EstimateWelfare(
        *problem.graph, allocation_result.allocation, *problem.params,
        static_cast<size_t>(eval_sims.value()),
        static_cast<uint64_t>(eval_seed.value()), /*workers=*/0,
        problem.model);
    estimate_us.Add(
        static_cast<uint64_t>(estimate_timer.ElapsedMillis() * 1000.0));
    Json welfare = Json::Object();
    welfare.Set("welfare", Json::Number(estimate.welfare));
    welfare.Set("std_error", Json::Number(estimate.std_error));
    welfare.Set("avg_adopters", Json::Number(estimate.avg_adopters));
    welfare.Set("avg_adoptions", Json::Number(estimate.avg_adoptions));
    result.Set("welfare", std::move(welfare));
    // Boundary #2: Monte-Carlo evaluation can dominate the request when
    // eval_sims is large, so re-check before shipping the result.
    if (deadline_expired()) return deadline_status();
  }

  Json* serve_info = &call.serve_info;
  *serve_info = Json::Object();
  serve_info->Set("warm", Json::Bool(warm));
  serve_info->Set("warm_hit", Json::Bool(warm_hit));
  serve_info->Set("rr_sets_sampled",
                  Json::Int(static_cast<long long>(after.sampled_sets -
                                                   before.sampled_sets)));
  serve_info->Set("rr_sets_served",
                  Json::Int(static_cast<long long>(after.served_sets -
                                                   before.served_sets)));
  if (options_.include_timing) {
    serve_info->Set("queued_ms", Json::Number(call.queued_ms));
    serve_info->Set("solve_ms", Json::Number(solve_ms));
  }
  return result;
}

void Server::ServePipe(FdLineChannel& channel) {
  std::string line;
  while (!stopping() && channel.ReadLine(&line, stop_)) {
    if (line.empty()) continue;
    if (!channel.WriteLine(HandleLine(line))) break;
  }
}

Status Server::ServeTcp(TcpListener& listener) {
  struct ConnectionWorker {
    std::shared_ptr<TcpConnection> connection;
    std::shared_ptr<std::atomic<bool>> done;
    std::unique_ptr<BackgroundThread> thread;
  };
  std::vector<ConnectionWorker> workers;

  while (!stopping()) {
    Result<TcpConnection> accepted = listener.Accept(*stop_);
    if (!accepted.ok()) {
      BeginDrain();
      for (auto& w : workers) w.thread->Join();
      return accepted.status();
    }
    if (!accepted.value().valid()) break;  // stop flag fired

    ConnectionWorker worker;
    worker.connection =
        std::make_shared<TcpConnection>(accepted.MoveValue());
    worker.done = std::make_shared<std::atomic<bool>>(false);
    auto connection = worker.connection;
    auto done = worker.done;
    worker.thread = std::make_unique<BackgroundThread>([this, connection,
                                                        done]() {
      FdLineChannel channel(connection->fd(), connection->fd(),
                            /*socket_fds=*/true);
      std::string line;
      while (channel.ReadLine(&line, stop_)) {
        if (line.empty()) continue;
        if (!channel.WriteLine(HandleLine(line))) break;
        if (stopping()) break;
      }
      done->store(true, std::memory_order_release);
    });
    workers.push_back(std::move(worker));

    // Reap finished connections so a long-lived daemon doesn't accumulate
    // one joinable thread per past client.
    for (size_t i = workers.size(); i > 0; --i) {
      if (workers[i - 1].done->load(std::memory_order_acquire)) {
        workers[i - 1].thread->Join();
        workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i - 1));
      }
    }
  }

  // Drain: every connection thread observes the stop flag within the poll
  // interval, finishes (and answers) its in-flight request, and exits.
  BeginDrain();
  for (auto& w : workers) w.thread->Join();
  admission_.AwaitIdle();
  return Status::OK();
}

Status Server::ServeMetricsHttp(TcpListener& listener) {
  while (!stopping()) {
    Result<TcpConnection> accepted = listener.Accept(*stop_);
    if (!accepted.ok()) return accepted.status();
    if (!accepted.value().valid()) break;  // stop flag fired
    TcpConnection connection = accepted.MoveValue();
    FdLineChannel channel(connection.fd(), connection.fd(),
                          /*socket_fds=*/true);
    // Consume the request line before answering so a well-behaved HTTP
    // client does not race our close against its own send; clients that
    // half-close without sending anything get the body anyway.
    std::string request_line;
    (void)channel.ReadLine(&request_line, stop_);
    const std::string body = MetricsText();
    std::string response = "HTTP/1.0 200 OK\r\n";
    response += "Content-Type: text/plain; version=0.0.4\r\n";
    response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    response += "Connection: close\r\n\r\n";
    response += body;
    (void)channel.WriteRaw(response);  // peer gone: just move on
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace uic
