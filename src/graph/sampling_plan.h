// Probability-stratified sampling plan: the one IC edge sampler.
//
// The paper's cost model (§4.2.3) charges sampling one unit per in-edge
// *examined*, and every probability scheme the repo ships — weighted
// cascade (uniform 1/din(v) per node), constant, trivalency (≤3 distinct
// values) — gives each node's adjacency only a handful of distinct edge
// probabilities. A `SamplingPlan` materializes that structure once per
// graph so the hot samplers can replace per-edge Bernoulli trials with
// geometric jumps: within a run of edges sharing probability p, the gap
// to the next live edge is floor(log1p(-U)/log1p(-p)) — one RNG draw per
// *success* instead of one per edge (Rng::NextGeometric, common/random.h).
//
// A geometric draw costs more than a Bernoulli trial, so jumping only pays
// where edges are many and successes few. Per node the plan classifies the
// adjacency slice as
//   * scan     — one Bernoulli trial per edge, in CSR order, skipping
//                already-reached neighbors without a draw. A node scans
//                when kScanCostRatio · Σ_buckets (1 + size·p) — the skip
//                path's expected draws, weighted by their relative cost —
//                is at least its positive degree, or when it has more
//                than kMaxDistinct distinct positive probabilities;
//   * uniform  — skip path, one positive probability; the single bucket
//                aliases the graph's own CSR slice (no copy);
//   * bucketed — skip path, ≤ kMaxDistinct distinct positive values; a
//                probability-sorted (descending) permutation of the slice
//                with bucket boundaries, stored in the plan.
// Edges with p <= 0 can never fire and are dropped from buckets entirely
// (they still count as examined in EPT accounting — see rr_collection.h).
// `ForEachLiveEdge` runs whichever path the node was given; the RR sampler
// and the forward IC simulator both draw through it. The classification
// decides which RNG draws are made, so it is part of every sampled pool's
// identity: changing the rule or its constant changes the pools (see
// docs/determinism.md).
//
// For the Linear Threshold reverse walk the plan additionally
// precomputes a Vose alias table per node over the outcomes {in-neighbor
// k with prob w_k, none with 1 − Σ w}, replacing the linear cumulative
// scan with an O(1) draw.
//
// A plan is immutable after Build, borrows the graph and its CSR arrays
// (it must not outlive the graph, nor survive Apply* reweighting — it is a
// function of the probabilities), and is shared freely across threads.
// Consumers cache plans where the graph lives: `RrStreamCache` — which
// every `RrCollection` samples through — builds one per bound graph, so
// a solve, a sweep, or the serve daemon's warm pools pay the build once.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"

namespace uic {

/// \brief Immutable per-graph stratification of adjacency probabilities.
class SamplingPlan {
 public:
  /// Which adjacency the plan stratifies: kReverse (in-edges; RR sampling)
  /// or kForward (out-edges; forward IC simulation).
  enum class Direction : uint8_t { kReverse, kForward };

  /// What to precompute (bitmask).
  enum Features : uint32_t {
    kIcBuckets = 1u << 0,  ///< scan/skip classes and buckets for IC
    kLtAlias = 1u << 1,    ///< alias tables for the LT reverse walk
  };

  /// A maximal run of same-probability edges of one node. `nodes` points
  /// either into the graph's CSR slice (uniform nodes) or into the plan's
  /// probability-sorted permutation (bucketed nodes).
  struct Bucket {
    const NodeId* nodes = nullptr;
    uint32_t size = 0;
    float p = 0.0f;
    double log1p_neg_p = 0.0;  ///< log1p(-p); -inf for p >= 1
  };

  /// More distinct positive probabilities than this per node → scan.
  static constexpr uint32_t kMaxDistinct = 8;

  /// Sentinel returned by SampleLtSource for the "no in-neighbor fires"
  /// outcome (probability 1 − Σ w).
  static constexpr NodeId kNoSource = ~NodeId{0};

  /// Build a plan for `graph`. The plan borrows the graph's CSR arrays.
  static std::shared_ptr<const SamplingPlan> Build(const Graph& graph,
                                                   Direction direction,
                                                   uint32_t features);

  Direction direction() const { return direction_; }
  bool has_ic_buckets() const { return (features_ & kIcBuckets) != 0; }
  bool has_lt_alias() const { return (features_ & kLtAlias) != 0; }

  /// True if `v`'s edges are sampled by per-edge trials.
  bool Scans(NodeId v) const { return scan_[v] != 0; }

  /// `v`'s buckets, descending in probability; empty when `v` scans or
  /// every edge has p <= 0.
  std::span<const Bucket> Buckets(NodeId v) const {
    return {buckets_.data() + bucket_off_[v],
            buckets_.data() + bucket_off_[v + 1]};
  }

  /// Draw the live edges of `v` in one IC edge world from `rng`, calling
  /// `fn(u)` for every neighbor u (in-neighbor for kReverse, out-neighbor
  /// for kForward) whose edge fires. A scan node skips, without a draw,
  /// every neighbor `reached(u)` holds for; a skip node draws over its
  /// buckets regardless and may report a reached neighbor, which `fn` must
  /// ignore. Either way the set of newly reached nodes has the IC
  /// distribution; only the draw sequence depends on the class.
  /// Requires has_ic_buckets().
  template <typename Reached, typename Fn>
  void ForEachLiveEdge(NodeId v, Rng& rng, Reached&& reached, Fn&& fn) const {
    if (scan_[v] != 0) {
      const auto nbrs = Slice(*graph_, v);
      const auto probs = Probs(*graph_, v);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        if (reached(nbrs[k]) || !rng.NextBernoulli(probs[k])) continue;
        fn(nbrs[k]);
      }
      return;
    }
    // One geometric draw per live edge, plus at most one closing draw per
    // bucket; none is spent once the last edge has been reached, which
    // keeps size-1 buckets on the exact Bernoulli draw sequence.
    for (const Bucket& b : Buckets(v)) {
      size_t i = rng.NextGeometric(b.log1p_neg_p);
      while (i < b.size) {
        fn(b.nodes[i]);
        if (i + 1 >= b.size) break;
        i += 1 + rng.NextGeometric(b.log1p_neg_p);
      }
    }
  }

  /// Draw the LT walk's live in-neighbor of `v`: in-neighbor u with
  /// probability w(u,v), kNoSource with 1 − Σ w. O(1): one bounded draw
  /// plus one uniform (none consumed when v has no in-edges). Requires
  /// has_lt_alias().
  NodeId SampleLtSource(NodeId v, Rng& rng) const {
    const size_t begin = alias_off_[v];
    const size_t count = alias_off_[v + 1] - begin;
    if (count == 0) return kNoSource;
    const size_t slot = begin + rng.NextBounded(count);
    return rng.NextDouble() < alias_prob_[slot] ? alias_first_[slot]
                                                : alias_second_[slot];
  }

  // Classification tallies (tests/instrumentation).
  NodeId num_uniform_nodes() const { return num_uniform_; }
  NodeId num_bucketed_nodes() const { return num_bucketed_; }
  NodeId num_scan_nodes() const { return num_scan_; }

 private:
  SamplingPlan() = default;

  void BuildBuckets(const Graph& graph);
  void BuildLtAlias(const Graph& graph);

  std::span<const NodeId> Slice(const Graph& graph, NodeId v) const {
    return direction_ == Direction::kReverse ? graph.InNeighbors(v)
                                             : graph.OutNeighbors(v);
  }
  std::span<const float> Probs(const Graph& graph, NodeId v) const {
    return direction_ == Direction::kReverse ? graph.InProbs(v)
                                             : graph.OutProbs(v);
  }

  const Graph* graph_ = nullptr;
  Direction direction_ = Direction::kReverse;
  uint32_t features_ = 0;

  // IC buckets (feature kIcBuckets).
  std::vector<uint8_t> scan_;         ///< per node: per-edge trials
  std::vector<uint32_t> bucket_off_;  ///< per node into buckets_, n+1
  std::vector<Bucket> buckets_;
  std::vector<NodeId> permuted_;  ///< bucketed nodes' sorted slices

  // LT alias tables (feature kLtAlias): per node, deg+1 slots over the
  // outcomes {each in-neighbor, none}, stored as resolved NodeIds.
  std::vector<size_t> alias_off_;  ///< per node into the slot arrays, n+1
  std::vector<double> alias_prob_;
  std::vector<NodeId> alias_first_;
  std::vector<NodeId> alias_second_;

  NodeId num_uniform_ = 0;
  NodeId num_bucketed_ = 0;
  NodeId num_scan_ = 0;
};

}  // namespace uic
