// Random reverse-reachable (RR) set sampling and storage (§4.2.3).
//
// An RR set is sampled by picking a root uniformly at random and walking
// the graph *backwards*, keeping each in-edge live with its influence
// probability; the RR set is the set of nodes reaching the root in that
// partial edge world. The key identity is σ(S) = n · E[ S ∩ R ≠ ∅ ].
//
// `RrCollection` is the RR engine's state: a growing pool of RR sets plus
// the inverted node→RR-set coverage index NodeSelection consumes, both
// maintained *incrementally* — every `GenerateUntil` round extends the
// sample streams and the index with a CSR delta built in parallel, so
// nothing is recomputed when the pool only grows. All parallel work runs
// on a persistent `ThreadPool` (the process-wide shared pool by default);
// no threads are spawned per round.
//
// Generation is deterministic in the seed ALONE: the pool is a fixed grid
// of `kRrStreams` logical sample streams, and RR set g is always drawn as
// sample g / kRrStreams of stream g % kRrStreams. Pool content at any size
// is therefore a pure function of (graph, options, seed) — independent of
// the worker count, the physical thread count, and the sequence of
// `GenerateUntil` targets used to reach that size. Every set is drawn and
// stored by an `RrStreamCache` (rr_stream_cache.h): a cold collection owns
// a private one, a warm one shares a cache across solver invocations.
// There is one sampling path, so warm and cold pools are bit-identical by
// construction, and every solver above the engine is worker-count
// invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "graph/sampling_plan.h"

namespace uic {

class ThreadPool;
class RrStreamCache;

/// Number of logical RR sample streams — the RR engine's name for the
/// process-wide stream-grid width (one constant, common/random.h).
inline constexpr unsigned kRrStreams = kRngStreams;

/// \brief Options modifying RR sampling semantics.
struct RrOptions {
  /// Optional per-node pass probability (used by the Com-IC style samplers
  /// RR-SIM/RR-CIM): a visited node joins the RR set only if an independent
  /// coin with this probability succeeds; traversal continues only through
  /// passing nodes. The *root* failing its coin yields an empty RR set
  /// (which still counts toward the pool size).
  const std::vector<float>* node_pass_prob = nullptr;

  /// Sample under the Linear Threshold live-edge distribution instead of
  /// IC: each visited node selects at most ONE in-neighbor (u with
  /// probability w(u,v), none with 1 − Σ w), so an LT RR set is a reverse
  /// random walk. Requires Σ_u w(u,v) <= 1 per node.
  bool linear_threshold = false;

  /// Optional warm-start hook (the sweep engine's pool-reuse point): when
  /// set, `GenerateUntil` serves samples from this shared cache —
  /// extending it by sampling only past its high-water mark — instead of
  /// a private cache the collection owns (nullptr = cold). Results are
  /// bit-identical either way; only the number of sets sampled from
  /// scratch changes. Does not affect sampling semantics, so it is
  /// ignored by the cache's own entry keying. The cache must outlive the
  /// collection.
  RrStreamCache* stream_cache = nullptr;

  /// Optional pre-built reverse-direction sampling plan for the graph.
  /// Borrowed, not owned (it must outlive the consumer), and non-semantic
  /// like `stream_cache`: a plan is a pure function of the graph, so
  /// sharing one only moves the one-time build cost — never the sampled
  /// pool. A cold collection's private cache and a standalone RrSampler
  /// use it; a shared `stream_cache` ignores it (the cache may outlive
  /// the plan) and builds its own. nullptr = consumers build and cache
  /// their own.
  const SamplingPlan* sampling_plan = nullptr;
};

/// \brief A pool of RR sets with deterministic parallel growth and an
/// incrementally maintained node→RR-set coverage index.
class RrCollection {
 public:
  /// `workers` bounds how many streams are processed concurrently (0 =
  /// `DefaultWorkers()`); it does NOT affect pool content. `pool` is the
  /// thread pool parallel growth runs on; nullptr means the process-wide
  /// `ThreadPool::Shared()`. The pool must outlive the collection.
  RrCollection(const Graph& graph, uint64_t seed, unsigned workers = 0,
               RrOptions options = {}, ThreadPool* pool = nullptr);
  ~RrCollection();

  // Not copyable: the sets live in a cache entry the collection is bound
  // to (its own private cache when cold).
  RrCollection(const RrCollection&) = delete;
  RrCollection& operator=(const RrCollection&) = delete;

  /// Grow the pool until it holds at least `target` RR sets, extending the
  /// coverage index with the new sets.
  void GenerateUntil(size_t target);

  size_t size() const { return size_; }

  /// Nodes of RR set `r` (sample r / kRrStreams of stream r % kRrStreams).
  std::span<const NodeId> Set(size_t r) const;

  /// Total Σ_r |R_r| (memory proxy; also the NodeSelection cost).
  size_t TotalNodes() const { return total_nodes_; }

  /// Total Σ_r w(R_r): edges examined while sampling (EPT cost model).
  size_t TotalEdgesExamined() const { return edges_examined_; }

  const Graph& graph() const { return graph_; }

  unsigned workers() const { return workers_; }

  /// Drop all sets and the index and reseed the sample streams: the
  /// collection becomes indistinguishable from a freshly constructed
  /// `RrCollection(graph, seed, workers, options)` while keeping its
  /// thread pool and any attached stream cache. A private cache frees its
  /// samples here (its sampling plan is kept). This is how one engine
  /// instance serves a whole solver invocation, including the
  /// regeneration fix of PRIMA/IMM: the final NodeSelection must run on
  /// freshly sampled sets.
  void Reset(uint64_t seed);

  // --- Coverage index ---------------------------------------------------
  // Maintained by GenerateUntil (extended per growth round, in parallel)
  // and invalidated only by Reset(). For every node v it lists the ids of
  // the RR sets containing v, in ascending id order.

  /// Number of RR sets containing `v`.
  uint32_t IndexDegree(NodeId v) const { return index_degree_[v]; }

  /// Invoke `fn(set_id)` for every RR set containing `v`, in ascending
  /// set-id order.
  template <typename Fn>
  void ForEachSetContaining(NodeId v, Fn&& fn) const {
    for (const IndexDelta& d : index_) {
      const size_t begin = d.off[v];
      const size_t end = d.off[v + 1];
      for (size_t i = begin; i < end; ++i) fn(d.sets[i]);
    }
  }

  /// Number of CSR deltas the index currently consists of (one per growth
  /// round; exposed for tests and instrumentation).
  size_t IndexDeltaCount() const { return index_.size(); }

 private:
  /// One growth round's contribution to the inverted index, in CSR form:
  /// `sets[off[v] .. off[v+1])` are the ids of this round's RR sets that
  /// contain v. Offsets are size_t (a delta can hold the whole pool after
  /// compaction — or after PRIMA's regeneration, which samples the final
  /// pool in one round); set ids are uint32, bounding the pool at 2^32
  /// sets (checked).
  struct IndexDelta {
    std::vector<size_t> off;     // graph.num_nodes() + 1
    std::vector<uint32_t> sets;  // global RR set ids, ascending per node
  };

  /// Build the CSR delta for the new sets [first_new, size()) in parallel
  /// and append it to the index, merging deltas per the tiering policy.
  void ExtendIndex(size_t first_new);

  /// Merge deltas [first, end) into one, preserving per-node ascending
  /// set-id order. Called with binary-counter tiering (merge while the
  /// newest delta is at least as large as its predecessor), which keeps
  /// delta sizes geometrically decreasing — O(log) deltas and amortized
  /// O(E log E) maintenance over E index entries for *any* growth
  /// schedule, O(E) for geometric ones like PRIMA's.
  void MergeIndexTail(size_t first);

  const Graph& graph_;
  RrOptions options_;
  unsigned workers_;
  ThreadPool* pool_;
  uint64_t seed_;

  std::unique_ptr<RrStreamCache> owned_cache_;  ///< the private cache (cold)
  RrStreamCache* cache_;                        ///< owned_cache_ or shared
  void* cache_entry_ = nullptr;  ///< RrStreamCache::Entry*, lazily bound

  size_t size_ = 0;
  size_t total_nodes_ = 0;
  size_t edges_examined_ = 0;

  std::vector<uint32_t> index_degree_;  ///< per node, summed over deltas
  std::vector<IndexDelta> index_;
};

/// \brief Single-threaded RR sampler (exposed for tests and custom loops).
///
/// Edges are drawn through the graph's reverse `SamplingPlan`, which picks
/// per node between per-edge trials and geometric skips (IC) or holds the
/// alias tables (LT). If no plan was supplied in the options, the sampler
/// builds its own (with exactly the features the options need) —
/// convenient standalone, but per-stream loops should share one plan via
/// `RrOptions::sampling_plan`.
class RrSampler {
 public:
  explicit RrSampler(const Graph& graph, RrOptions options = {});

  /// Sample one RR set rooted at a uniformly random node into `out`
  /// (cleared first). Returns the number of in-edges examined — which, by
  /// the EPT cost-model convention, counts edges a geometric skip jumped
  /// over as examined too (always Σ deg over visited nodes, whichever
  /// path each node takes).
  size_t SampleInto(Rng& rng, std::vector<NodeId>* out);

  /// Sample one RR set with the given root (into a cleared `out`).
  size_t SampleRootedInto(NodeId root, Rng& rng, std::vector<NodeId>* out);

  /// Arena mode: as SampleInto/SampleRootedInto, but APPENDS the set's
  /// nodes to `arena` without clearing it — the sampled set is the
  /// appended suffix. This is how generation writes nodes straight into
  /// their final per-stream buffer. Draw sequence identical to the
  /// clearing variants.
  size_t SampleAppend(Rng& rng, std::vector<NodeId>* arena);
  size_t SampleRootedAppend(NodeId root, Rng& rng, std::vector<NodeId>* arena);

 private:
  /// Visited/pass-prob bookkeeping of the IC expansion; returns true if
  /// `u` joined the set (and the BFS queue).
  bool TryVisit(NodeId u, Rng& rng, std::vector<NodeId>* arena);

  size_t LtWalk(NodeId root, Rng& rng, std::vector<NodeId>* arena);

  const Graph& graph_;
  RrOptions options_;
  const SamplingPlan* plan_ = nullptr;  ///< options_.sampling_plan, never null
  std::shared_ptr<const SamplingPlan> owned_plan_;
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> queue_;
};

}  // namespace uic
