#include "rrset/rr_collection.h"

#include <array>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "rrset/rr_stream_cache.h"

namespace uic {

namespace {

/// Number of global set indices g < g0 with g % kRrStreams == s — i.e. the
/// position stream `s` has reached once the pool holds g0 sets.
inline size_t QuotBegin(size_t g0, unsigned s) {
  return (g0 + kRrStreams - 1 - s) / kRrStreams;
}

}  // namespace

RrSampler::RrSampler(const Graph& graph, RrOptions options)
    : graph_(graph),
      options_(options),
      visited_epoch_(graph.num_nodes(), 0) {
  if (options_.sampling_plan == nullptr) {
    owned_plan_ = SamplingPlan::Build(graph, SamplingPlan::Direction::kReverse,
                                      options_.linear_threshold
                                          ? SamplingPlan::kLtAlias
                                          : SamplingPlan::kIcBuckets);
    options_.sampling_plan = owned_plan_.get();
  }
  plan_ = options_.sampling_plan;
  UIC_CHECK(plan_->direction() == SamplingPlan::Direction::kReverse);
  UIC_CHECK(options_.linear_threshold ? plan_->has_lt_alias()
                                      : plan_->has_ic_buckets());
}

size_t RrSampler::SampleInto(Rng& rng, std::vector<NodeId>* out) {
  out->clear();
  return SampleAppend(rng, out);
}

size_t RrSampler::SampleRootedInto(NodeId root, Rng& rng,
                                   std::vector<NodeId>* out) {
  out->clear();
  return SampleRootedAppend(root, rng, out);
}

size_t RrSampler::SampleAppend(Rng& rng, std::vector<NodeId>* arena) {
  const NodeId root = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
  return SampleRootedAppend(root, rng, arena);
}

bool RrSampler::TryVisit(NodeId u, Rng& rng, std::vector<NodeId>* arena) {
  if (visited_epoch_[u] == epoch_) return false;
  if (options_.node_pass_prob != nullptr &&
      !rng.NextBernoulli((*options_.node_pass_prob)[u])) {
    // Node rejected: mark visited so it is not retried through another
    // edge (its adoption coin is flipped once), and do not traverse.
    visited_epoch_[u] = epoch_;
    return false;
  }
  visited_epoch_[u] = epoch_;
  arena->push_back(u);
  return true;
}

size_t RrSampler::LtWalk(NodeId root, Rng& rng, std::vector<NodeId>* arena) {
  // LT live-edge: reverse random walk — each node contributes at most one
  // in-edge, drawn in O(1) from the plan's alias tables.
  size_t edges = 0;
  NodeId w = root;
  while (true) {
    edges += graph_.InDegree(w);
    const NodeId src = plan_->SampleLtSource(w, rng);
    if (src == SamplingPlan::kNoSource || visited_epoch_[src] == epoch_) break;
    if (options_.node_pass_prob != nullptr &&
        !rng.NextBernoulli((*options_.node_pass_prob)[src])) {
      break;
    }
    visited_epoch_[src] = epoch_;
    arena->push_back(src);
    w = src;
  }
  return edges;
}

size_t RrSampler::SampleRootedAppend(NodeId root, Rng& rng,
                                     std::vector<NodeId>* arena) {
  ++epoch_;
  if (options_.node_pass_prob != nullptr) {
    if (!rng.NextBernoulli((*options_.node_pass_prob)[root])) {
      return 0;  // root rejected: empty RR set
    }
  }
  visited_epoch_[root] = epoch_;
  arena->push_back(root);
  if (options_.linear_threshold) return LtWalk(root, rng, arena);
  queue_.clear();
  queue_.push_back(root);
  size_t head = 0;
  size_t edges = 0;
  while (head < queue_.size()) {
    const NodeId w = queue_[head++];
    // EPT accounting counts every in-edge of a visited node as examined,
    // including edges a geometric skip jumps over (rr_collection.h).
    edges += graph_.InDegree(w);
    plan_->ForEachLiveEdge(
        w, rng, [&](NodeId u) { return visited_epoch_[u] == epoch_; },
        [&](NodeId u) {
          if (TryVisit(u, rng, arena)) queue_.push_back(u);
        });
  }
  return edges;
}

RrCollection::RrCollection(const Graph& graph, uint64_t seed,
                           unsigned workers, RrOptions options,
                           ThreadPool* pool)
    : graph_(graph),
      options_(options),
      workers_(workers),
      pool_(pool),
      seed_(seed),
      cache_(options.stream_cache) {
  if (workers_ == 0) workers_ = DefaultWorkers();
  if (pool_ == nullptr) pool_ = &ThreadPool::Shared();
  if (cache_ == nullptr) {
    owned_cache_ = std::make_unique<RrStreamCache>();
    cache_ = owned_cache_.get();
  } else {
    // A shared cache may outlive a borrowed plan: it builds its own.
    options_.sampling_plan = nullptr;
  }
  index_degree_.assign(graph_.num_nodes(), 0);
}

RrCollection::~RrCollection() = default;

std::span<const NodeId> RrCollection::Set(size_t r) const {
  const auto* entry = static_cast<const RrStreamCache::Entry*>(cache_entry_);
  const RrStreamCache::Sample& s =
      entry->streams[r % kRrStreams].samples[r / kRrStreams];
  return {s.data, s.data + s.size};
}

void RrCollection::Reset(uint64_t seed) {
  size_ = 0;
  total_nodes_ = 0;
  edges_examined_ = 0;
  index_.clear();
  index_degree_.assign(graph_.num_nodes(), 0);
  seed_ = seed;
  cache_entry_ = nullptr;  // re-bound (to the new seed's entry) on next growth
  // Nothing else reads a private cache's samples, so free them now (the
  // plan survives): PRIMA's phase pool must not outlive its regeneration.
  if (owned_cache_ != nullptr) owned_cache_->entries_.clear();
}

void RrCollection::GenerateUntil(size_t target) {
  if (target <= size_) return;
  const size_t first = size_;
  auto* entry = static_cast<RrStreamCache::Entry*>(cache_entry_);
  if (entry == nullptr) {
    cache_->BindGraph(graph_);
    entry = cache_->GetEntry(seed_, options_);
    cache_entry_ = entry;
  }
  // Extend the cache streams (in parallel) to this round's high-water
  // marks; streams already long enough cost nothing. `workers_` only
  // bounds how many streams run concurrently; the pool content depends on
  // the seed alone.
  pool_->ParallelFor(
      kRrStreams, workers_, [&](unsigned, size_t sb, size_t se) {
        for (size_t s = sb; s < se; ++s) {
          const unsigned su = static_cast<unsigned>(s);
          cache_->EnsureSamples(entry, su, QuotBegin(target, su));
        }
      });
  for (size_t g = first; g < target; ++g) {
    const RrStreamCache::Sample& smp =
        entry->streams[g % kRrStreams].samples[g / kRrStreams];
    total_nodes_ += smp.size;
    edges_examined_ += smp.edges;
  }
  size_ = target;
  if (owned_cache_ == nullptr) {
    // Replay accounting covers attached caches only: a private cache's
    // sets were all just drawn, and are counted as sampled.
    cache_->served_sets_ += target - first;
    UIC_METRIC_COUNTER(rr_served, "uic_rr_cache_sets_served_total",
                       "RR sets served by warm-cache stream replay.");
    rr_served.Add(target - first);
  }
  ExtendIndex(first);
}

void RrCollection::ExtendIndex(size_t first_new) {
  const size_t num_new = size_ - first_new;
  if (num_new == 0) return;
  UIC_CHECK_LT(size_, size_t{UINT32_MAX});  // ids are uint32
  const size_t n = graph_.num_nodes();

  // Logical workers for this delta build; ParallelFor clamps identically,
  // so `w` in the lambdas is always < iw. Small rounds use fewer workers:
  // the counting scratch (and its zeroing) is iw × n, which must not cost
  // Θ(workers·n) for a round that adds a handful of sets.
  const size_t by_work = (num_new + 1023) / 1024;
  unsigned iw = workers_;
  if (iw > by_work) iw = static_cast<unsigned>(by_work);
  if (iw < 1) iw = 1;

  // The bound entry's per-stream sample arrays: set g is
  // samples[g % kRrStreams][g / kRrStreams].
  const auto* entry = static_cast<const RrStreamCache::Entry*>(cache_entry_);
  std::array<const RrStreamCache::Sample*, kRrStreams> samples{};
  for (unsigned s = 0; s < kRrStreams; ++s) {
    samples[s] = entry->streams[s].samples.data();
  }

  // Pass 1 (parallel): per-(worker, node) occurrence counts over each
  // worker's slice of the new sets. Counting is order-free, so each
  // stream's share of the slice is read sequentially.
  std::vector<uint32_t> scratch(static_cast<size_t>(iw) * n, 0);
  uint32_t* counts = scratch.data();
  pool_->ParallelFor(num_new, iw, [&](unsigned w, size_t begin, size_t end) {
    uint32_t* cnt = counts + static_cast<size_t>(w) * n;
    for (unsigned s = 0; s < kRrStreams; ++s) {
      const size_t q_end = QuotBegin(first_new + end, s);
      for (size_t q = QuotBegin(first_new + begin, s); q < q_end; ++q) {
        const RrStreamCache::Sample& set = samples[s][q];
        for (uint32_t i = 0; i < set.size; ++i) ++cnt[set.data[i]];
      }
    }
  });

  // Prefix sums (serial): delta offsets per node, and in place of each
  // count the start cursor for that (worker, node) region, stored
  // *relative to off[v]* so it fits uint32 (per-node degree < 2^32) even
  // when the delta itself holds more than 2^32 entries. Worker order per
  // node matches set-id order, keeping ids ascending within a node.
  IndexDelta delta;
  delta.off.assign(n + 1, 0);
  size_t run = 0;
  for (size_t v = 0; v < n; ++v) {
    delta.off[v] = run;
    uint32_t rel = 0;
    for (unsigned w = 0; w < iw; ++w) {
      uint32_t& slot = counts[static_cast<size_t>(w) * n + v];
      const uint32_t c = slot;
      slot = rel;
      rel += c;
    }
    index_degree_[v] += rel;
    run += rel;
  }
  delta.off[n] = run;

  // Pass 2 (parallel): scatter set ids into the delta via the per-worker
  // cursors; every (worker, node) writes a disjoint region.
  delta.sets.resize(run);
  uint32_t* slots = delta.sets.data();
  const size_t* off = delta.off.data();
  pool_->ParallelFor(num_new, iw, [&](unsigned w, size_t begin, size_t end) {
    uint32_t* cur = counts + static_cast<size_t>(w) * n;
    for (size_t r = begin; r < end; ++r) {
      const uint32_t id = static_cast<uint32_t>(first_new + r);
      const RrStreamCache::Sample& set =
          samples[id % kRrStreams][id / kRrStreams];
      for (uint32_t i = 0; i < set.size; ++i) {
        const NodeId v = set.data[i];
        slots[off[v] + cur[v]++] = id;
      }
    }
  });
  index_.push_back(std::move(delta));

  // Tiered merging (binary-counter style): fold the newest delta into its
  // predecessor while it is at least as large, so delta sizes stay
  // geometrically decreasing and the merge work stays amortized
  // near-linear for any growth schedule. The hard cap then bounds the
  // retained (n+1)-entry offset arrays and per-lookup delta walks even
  // for schedules of many strictly shrinking rounds.
  while (index_.size() >= 2 &&
         index_.back().sets.size() >=
             index_[index_.size() - 2].sets.size()) {
    MergeIndexTail(index_.size() - 2);
  }
  constexpr size_t kMaxIndexDeltas = 8;
  if (index_.size() > kMaxIndexDeltas) MergeIndexTail(0);
}

void RrCollection::MergeIndexTail(size_t first) {
  if (index_.size() - first <= 1) return;
  UIC_METRIC_COUNTER(rr_merges, "uic_rr_index_merges_total",
                     "Coverage-index delta merges (tiered merging).");
  rr_merges.Add();
  const size_t n = graph_.num_nodes();
  const size_t num_deltas = index_.size();
  IndexDelta merged;
  merged.off.assign(n + 1, 0);
  size_t run = 0;
  for (size_t v = 0; v < n; ++v) {
    merged.off[v] = run;
    for (size_t d = first; d < num_deltas; ++d) {
      run += index_[d].off[v + 1] - index_[d].off[v];
    }
  }
  merged.off[n] = run;
  merged.sets.resize(run);
  uint32_t* slots = merged.sets.data();
  const IndexDelta* deltas = index_.data();
  // Parallel over node ranges: each node's merged slice is filled by
  // walking the tail deltas in order, preserving ascending set-id order;
  // regions are disjoint per node.
  pool_->ParallelFor(n, workers_, [&](unsigned, size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      uint32_t* out = slots + merged.off[v];
      for (size_t d = first; d < num_deltas; ++d) {
        const IndexDelta& dd = deltas[d];
        const size_t d_end = dd.off[v + 1];
        for (size_t i = dd.off[v]; i < d_end; ++i) *out++ = dd.sets[i];
      }
    }
  });
  index_.resize(first);
  index_.push_back(std::move(merged));
}

}  // namespace uic
