#include "exp/spec_file.h"

#include <cstdint>
#include <map>

#include "serve/session.h"

namespace uic {

namespace {

using serve::Json;

struct KeyRule {
  const char* key;
  Json::Type type;
  const char* noun;
};

constexpr KeyRule kGroupKeys[] = {
    {"graph", Json::Type::kObject, "an object"},
    {"params", Json::Type::kObject, "an object"},
    {"model", Json::Type::kString, "a string"},
    {"seed", Json::Type::kNumber, "a number"},
    {"eps", Json::Type::kNumber, "a number"},
    {"ell", Json::Type::kNumber, "a number"},
    {"eval_sims", Json::Type::kNumber, "a number"},
    {"eval_seed", Json::Type::kNumber, "a number"},
    {"algorithms", Json::Type::kArray, "an array of solver names"},
    {"sweep", Json::Type::kString, "a string"},
    {"warm", Json::Type::kBool, "a boolean"},
    {"title", Json::Type::kString, "a string"},
};

Status CheckGroupKeys(const Json& group) {
  for (const auto& [key, value] : group.members()) {
    const KeyRule* rule = nullptr;
    for (const KeyRule& r : kGroupKeys) {
      if (key == r.key) rule = &r;
    }
    if (rule == nullptr) {
      return Status::InvalidArgument("spec: unknown key '" + key + "'");
    }
    if (value.type() != rule->type) {
      return Status::InvalidArgument("spec: '" + key + "' must be " +
                                     rule->noun);
    }
  }
  return Status::OK();
}

/// Graphs built so far in one load, keyed by their body's canonical dump.
using GraphCache = std::map<std::string, std::shared_ptr<const Graph>>;

Result<SweepGroup> LoadGroup(const Json& group, const SolverOptions& base,
                             GraphCache* graphs) {
  const Json* graph_body = group.Find("graph");
  const Json* algorithms = group.Find("algorithms");
  const Json* sweep = group.Find("sweep");
  if (graph_body == nullptr || algorithms == nullptr || sweep == nullptr) {
    return Status::InvalidArgument(
        "spec: a group needs 'graph', 'algorithms' and 'sweep'");
  }

  SweepGroup out;
  Result<std::string> title = serve::GetStringField(group, "title");
  if (!title.ok()) return title.status();
  out.title = title.value();
  std::shared_ptr<const Graph>& graph = (*graphs)[graph_body->Dump()];
  if (graph == nullptr) {
    Result<Graph> built = serve::BuildGraphFromSpec(*graph_body);
    if (!built.ok()) return built.status();
    graph = std::make_shared<const Graph>(built.MoveValue());
  }
  out.graph = graph;

  SweepSpec& spec = out.spec;
  spec.graph = out.graph.get();
  if (const Json* params_body = group.Find("params")) {
    Result<ItemParams> params = serve::BuildParamsFromSpec(*params_body);
    if (!params.ok()) return params.status();
    spec.params = params.MoveValue();
  }

  Result<std::string> model = serve::GetStringField(group, "model", "ic");
  if (!model.ok()) return model.status();
  if (model.value() != "ic" && model.value() != "lt") {
    return Status::InvalidArgument("'model' must be \"ic\" or \"lt\"");
  }
  spec.model = model.value() == "lt" ? DiffusionModel::kLinearThreshold
                                     : DiffusionModel::kIndependentCascade;

  // The `solve` verb's ranges and defaults.
  spec.options = base;
  Result<long long> seed = serve::GetIntField(group, "seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return seed.status();
  spec.options.seed = static_cast<uint64_t>(seed.value());
  Result<double> eps = serve::GetNumberField(group, "eps", 0.5, 1e-6, 1.0);
  if (!eps.ok()) return eps.status();
  spec.options.eps = eps.value();
  Result<double> ell = serve::GetNumberField(group, "ell", 1.0, 1e-6, 16.0);
  if (!ell.ok()) return ell.status();
  spec.options.ell = ell.value();
  Result<long long> eval_sims =
      serve::GetIntField(group, "eval_sims", 0, 0, 1000000);
  if (!eval_sims.ok()) return eval_sims.status();
  spec.eval_simulations = static_cast<size_t>(eval_sims.value());
  Result<long long> eval_seed =
      serve::GetIntField(group, "eval_seed", 20190701, 0, INT64_MAX);
  if (!eval_seed.ok()) return eval_seed.status();
  spec.eval_seed = static_cast<uint64_t>(eval_seed.value());

  for (const Json& name : algorithms->items()) {
    if (!name.is_string()) {
      return Status::InvalidArgument(
          "spec: 'algorithms' must be an array of solver names");
    }
    spec.algorithms.push_back(name.AsString());
  }

  // Without params nothing sizes the uniform forms, so only explicit
  // per-item vectors say how many items a point has.
  if (!spec.params.has_value() &&
      sweep->AsString().find(';') == std::string::npos) {
    return Status::InvalidArgument(
        "spec: a group without 'params' needs explicit budget vectors in "
        "'sweep' (\"a,b;c,d\")");
  }
  Result<std::vector<std::vector<uint32_t>>> points = ParseSweepPoints(
      sweep->AsString(),
      spec.params.has_value() ? spec.params->num_items() : 1);
  if (!points.ok()) return points.status();
  spec.budget_points = points.MoveValue();

  if (const Json* warm = group.Find("warm")) spec.warm = warm->AsBool();
  return out;
}

}  // namespace

Result<std::vector<Json>> ExpandSpecGroups(const Json& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("spec: the file must hold a JSON object");
  }
  Json defaults = Json::Object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "groups") defaults.Set(key, value);
  }
  // A file without "groups" is one group of its top-level keys.
  std::vector<Json> entries = {Json::Object()};
  if (const Json* listed = doc.Find("groups")) {
    if (!listed->is_array() || listed->size() == 0) {
      return Status::InvalidArgument(
          "spec: 'groups' must be a non-empty array of objects");
    }
    entries = listed->items();
  }
  std::vector<Json> groups;
  for (const Json& entry : entries) {
    if (!entry.is_object()) {
      return Status::InvalidArgument(
          "spec: 'groups' must be a non-empty array of objects");
    }
    Json group = defaults;
    for (const auto& [key, value] : entry.members()) group.Set(key, value);
    UIC_RETURN_NOT_OK(CheckGroupKeys(group));
    groups.push_back(std::move(group));
  }
  return groups;
}

Result<std::vector<SweepGroup>> LoadSweepGroups(const std::vector<Json>& groups,
                                                const SolverOptions& base) {
  GraphCache graphs;
  std::vector<SweepGroup> loaded;
  for (size_t g = 0; g < groups.size(); ++g) {
    Result<SweepGroup> group = LoadGroup(groups[g], base, &graphs);
    if (!group.ok()) {
      if (groups.size() == 1) return group.status();
      return Status(group.status().code(),
                    "spec group " + std::to_string(g + 1) + ": " +
                        group.status().message());
    }
    loaded.push_back(group.MoveValue());
  }
  return loaded;
}

}  // namespace uic
