#include "rrset/rr_stream_cache.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace uic {

RrStreamCache::Stats RrStreamCache::stats() const {
  Stats s;
  s.sampled_sets = sampled_sets_.load(std::memory_order_relaxed);
  s.sampled_nodes = sampled_nodes_.load(std::memory_order_relaxed);
  s.served_sets = served_sets_;
  s.entries = entries_.size();
  return s;
}

void RrStreamCache::Clear() {
  entries_.clear();
  ic_plan_.reset();
  lt_plan_.reset();
  graph_ = nullptr;
  // The sampled/served counters deliberately persist: they are monotone
  // over the cache's lifetime, so per-point deltas stay meaningful across
  // Clears (the cold-sweep mode clears between points) and Trims.
}

void RrStreamCache::TrimPassProbEntries(size_t keep) {
  size_t with_coins = 0;
  for (const auto& e : entries_) with_coins += e->has_pass_prob;
  if (with_coins <= keep) return;
  size_t drop = with_coins - keep;
  // entries_ is in creation order; drop the oldest coin entries first.
  std::vector<std::unique_ptr<Entry>> kept;
  kept.reserve(entries_.size() - drop);
  for (auto& e : entries_) {
    if (e->has_pass_prob && drop > 0) {
      --drop;
      continue;
    }
    kept.push_back(std::move(e));
  }
  entries_ = std::move(kept);
}

void RrStreamCache::BindGraph(const Graph& graph) {
  if (graph_ == nullptr) {
    graph_ = &graph;
    return;
  }
  UIC_CHECK_MSG(graph_ == &graph,
                "RrStreamCache is bound to a different graph; one cache "
                "serves one network (Clear() it to rebind)");
}

RrStreamCache::Entry* RrStreamCache::GetEntry(uint64_t seed,
                                              const RrOptions& options) {
  const bool has_pp = options.node_pass_prob != nullptr;
  for (const auto& e : entries_) {
    if (e->seed != seed || e->linear_threshold != options.linear_threshold ||
        e->has_pass_prob != has_pp) {
      continue;
    }
    // Pass probabilities are keyed by *contents* (callers typically rebuild
    // the vector per invocation), so equal coins reuse the entry and
    // different coins — e.g. a different i2 seed set — get their own.
    if (has_pp && e->pass_prob != *options.node_pass_prob) continue;
    return e.get();
  }
  auto e = std::make_unique<Entry>();
  e->seed = seed;
  e->linear_threshold = options.linear_threshold;
  e->has_pass_prob = has_pp;
  if (has_pp) e->pass_prob = *options.node_pass_prob;
  e->plan = options.sampling_plan;
  if (e->plan == nullptr) {
    // One plan per bound graph and feature, shared across entries; built
    // here (serially) so concurrent EnsureSamples calls only read it.
    std::shared_ptr<const SamplingPlan>& plan =
        options.linear_threshold ? lt_plan_ : ic_plan_;
    if (plan == nullptr) {
      plan = SamplingPlan::Build(*graph_, SamplingPlan::Direction::kReverse,
                                 options.linear_threshold
                                     ? SamplingPlan::kLtAlias
                                     : SamplingPlan::kIcBuckets);
    }
    e->plan = plan.get();
  }
  e->streams.resize(kRrStreams);
  for (unsigned s = 0; s < kRrStreams; ++s) {
    e->streams[s].rng = Rng::Split(seed, s);
  }
  entries_.push_back(std::move(e));
  return entries_.back().get();
}

void RrStreamCache::EnsureSamples(Entry* entry, unsigned s, size_t count) {
  Stream& stream = entry->streams[s];
  if (stream.samples.size() >= count) return;
  UIC_CHECK(graph_ != nullptr);

  RrOptions options;
  options.linear_threshold = entry->linear_threshold;
  if (entry->has_pass_prob) options.node_pass_prob = &entry->pass_prob;
  options.sampling_plan = entry->plan;
  RrSampler sampler(*graph_, options);

  // Draw the whole extension into one arena, then point the new samples
  // into it (arena buffers are never touched again, so the pointers stay
  // stable for the cache's lifetime).
  const size_t first = stream.samples.size();
  stream.samples.reserve(count);
  std::vector<NodeId> nodes;
  uint64_t edges_total = 0;
  while (stream.samples.size() < count) {
    const size_t before = nodes.size();
    // Cast is exact: edges <= num_edges() < 2^32 (see Sample::edges).
    const auto edges =
        static_cast<uint32_t>(sampler.SampleAppend(stream.rng, &nodes));
    stream.samples.push_back(
        Sample{nullptr, static_cast<uint32_t>(nodes.size() - before), edges});
    edges_total += edges;
  }
  stream.arenas.push_back(std::move(nodes));
  const NodeId* data = stream.arenas.back().data();
  for (size_t i = first; i < count; ++i) {
    stream.samples[i].data = data;
    data += stream.samples[i].size;
  }
  const size_t need = count - first;
  sampled_sets_.fetch_add(need, std::memory_order_relaxed);
  sampled_nodes_.fetch_add(stream.arenas.back().size(),
                           std::memory_order_relaxed);
  UIC_METRIC_COUNTER(rr_sets, "uic_rr_sets_sampled_total",
                     "RR sets freshly sampled (cold path + cache fills).");
  rr_sets.Add(need);
  UIC_METRIC_COUNTER(rr_edges, "uic_rr_edges_examined_total",
                     "Edges examined by the RR sampler.");
  rr_edges.Add(edges_total);
}

}  // namespace uic
