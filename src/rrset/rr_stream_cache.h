// Memoized RR sample streams: the RR engine's one sampling path, and the
// sweep engine's and serve daemon's warm pool cache.
//
// RR generation is organized as `kRrStreams` logical sample streams, and a
// stream's sample sequence is a pure function of (graph, sampling options,
// seed, stream index) — see rr_collection.h. An `RrStreamCache` memoizes
// those sequences, and every `RrCollection` draws its sets through one: a
// cold collection through a private cache it owns, a warm one through the
// cache passed as `RrOptions::stream_cache`, which `GenerateUntil` extends
// by actually sampling only past the high-water mark. Because a shared
// cache serves byte-for-byte what a private one draws, every consumer —
// PRIMA's phase loop, its regeneration pass, IMM, the Com-IC coin
// samplers — produces bit-identical results warm or cold; the only
// difference is how many RR sets are sampled from scratch.
//
// This is what makes budget sweeps cheap: consecutive PRIMA invocations at
// growing budgets use the same master seed, so their phase pools (and,
// separately, their regeneration pools) are nested prefixes of the same
// cached streams — a 4-point sweep samples roughly the largest point's
// pool once instead of four pools from scratch.
//
// Entries are keyed by (seed, sampling semantics): the linear-threshold
// flag and the *contents* of any node-pass-probability vector. The cache
// is bound to one graph (checked) and is NOT thread-safe across concurrent
// solver invocations; a SweepRunner drives solves sequentially. It is
// therefore deliberately mutex-free and carries no thread-safety
// capabilities (common/annotations.h): the only intra-solve concurrency
// is EnsureSamples extending *distinct* streams under the ParallelFor
// barrier, coordinated by the two lifetime counters below being atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"

namespace uic {

/// \brief Memoized per-stream RR sample sequences, shared across the
/// solver invocations of a sweep.
class RrStreamCache {
 public:
  RrStreamCache() = default;

  // Not copyable: collections read their sets from the cache's entries.
  RrStreamCache(const RrStreamCache&) = delete;
  RrStreamCache& operator=(const RrStreamCache&) = delete;

  /// Aggregate reuse accounting. The sampled/served counters are monotone
  /// over the cache's lifetime (they survive Clear/Trim, so per-solve
  /// deltas stay meaningful); `entries` reflects the current contents.
  struct Stats {
    size_t sampled_sets = 0;   ///< RR sets drawn from scratch into the cache
    size_t sampled_nodes = 0;  ///< Σ |R| over those sets
    size_t served_sets = 0;    ///< RR sets handed to collections (incl. repeats)
    size_t entries = 0;        ///< distinct (seed, semantics) stream groups
  };
  Stats stats() const;

  /// Drop every entry (collections serving from this cache must be
  /// discarded first — their sets live in the cache's entries).
  void Clear();

  /// Drop all but the `keep` most recently created node-pass-probability
  /// entries (coin pools). Coin contents usually change with the budget
  /// point (they derive from the i2 seed set), so old coin entries are
  /// dead weight a long Com-IC sweep would otherwise accumulate linearly;
  /// keeping the newest few preserves reuse for specs that pin the coin
  /// budget. Plain entries (no coins) are always kept. Like Clear(), only
  /// safe while no collection is serving from the cache — SweepRunner
  /// calls it between cells.
  void TrimPassProbEntries(size_t keep);

 private:
  friend class RrCollection;

  /// One memoized sample: nodes live in an arena owned by the stream.
  /// The pool's only per-set record besides its nodes, so kept at 16 B.
  struct Sample {
    const NodeId* data;
    uint32_t size;
    /// In-edges examined while drawing it (EPT accounting). Each in-edge
    /// counts at most once per set, and CSR offsets are uint32_t, so this
    /// is at most num_edges() < 2^32.
    uint32_t edges;
  };
  static_assert(sizeof(Sample) == 16);

  /// One logical stream's materialized prefix.
  struct Stream {
    Rng rng;  ///< positioned after `samples.size()` draws
    std::vector<std::vector<NodeId>> arenas;
    std::vector<Sample> samples;
  };

  /// Streams for one (seed, sampling semantics) group.
  struct Entry {
    uint64_t seed = 0;
    bool linear_threshold = false;
    bool has_pass_prob = false;
    std::vector<float> pass_prob;  ///< copied contents, exact-match keyed
    std::vector<Stream> streams;   ///< kRrStreams
    /// Plan the entry's samplers run on: the caller's
    /// `RrOptions::sampling_plan` if set, else a cache-owned plan shared
    /// across entries and built once per bound graph. Resolving it in
    /// GetEntry — serially, before EnsureSamples fans out — is what keeps
    /// the concurrent stream extensions free of shared mutation. The plan
    /// is a pure function of the graph, so it is not part of the key.
    const SamplingPlan* plan = nullptr;
  };

  /// Bind to (or verify against) `graph`; the cache serves one graph.
  void BindGraph(const Graph& graph);

  /// Find-or-create the entry for (seed, options-semantics). A new entry
  /// borrows `options.sampling_plan` when set, so only a cache its
  /// collection owns may be handed one.
  Entry* GetEntry(uint64_t seed, const RrOptions& options);

  /// Extend `entry`'s stream `s` until it holds at least `count` samples.
  /// Safe to call concurrently for distinct streams of the same entry.
  void EnsureSamples(Entry* entry, unsigned s, size_t count);

  const Graph* graph_ = nullptr;
  std::vector<std::unique_ptr<Entry>> entries_;
  /// Lazily built sampling plans for the bound graph (IC buckets, LT alias
  /// tables), shared by every entry (cleared with the entries on Clear()).
  std::shared_ptr<const SamplingPlan> ic_plan_;
  std::shared_ptr<const SamplingPlan> lt_plan_;
  // Monotone lifetime counters; sampled_* are only ever touched under the
  // ParallelFor barrier (atomics: distinct streams extend concurrently).
  std::atomic<size_t> sampled_sets_{0};
  std::atomic<size_t> sampled_nodes_{0};
  size_t served_sets_ = 0;
};

}  // namespace uic
