// Sampling-plan classification, and the one sampler against a per-edge
// reference.
//
// The plan sends each node down the per-edge scan or the geometric skip
// (graph/sampling_plan.h). `ReferenceReach` below is the textbook per-edge
// sampler; the skip path draws a different RNG sequence, so comparisons
// with it are statistical (frequencies and means within tolerance at
// sample counts that put flakes many sigma away), except where an exact
// identity holds:
//   * p = 0 edges can never fire — RR sets are root singletons,
//   * p = 1 edges always fire — RR sets are the full reverse-reachable set,
//   * a scan node draws exactly the reference's sequence, so a graph whose
//     nodes all scan samples bit-identical sets from one shared RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "diffusion/ic_model.h"
#include "graph/generators.h"
#include "graph/sampling_plan.h"
#include "rrset/rr_collection.h"

namespace uic {
namespace {

using Direction = SamplingPlan::Direction;

Graph StarInto(NodeId leaves, const std::vector<double>& probs) {
  // Leaves 1..leaves each point at node 0 with probs[i % probs.size()].
  GraphBuilder b(leaves + 1);
  for (NodeId u = 1; u <= leaves; ++u) {
    b.AddEdge(u, 0, probs[(u - 1) % probs.size()]);
  }
  Result<Graph> g = b.Build();
  EXPECT_TRUE(g.ok());
  return g.MoveValue();
}

// Dense ER: every in- and out-degree is far above the handful of draws a
// low-probability skip needs, so the plan buckets every node.
Graph DenseEr() { return GenerateErdosRenyi(120, 4800, 7); }

// The per-edge reference: the nodes reached from `roots` in one live-edge
// world, walking in-edges (an RR set) or out-edges (an IC cascade). IC
// tries each edge into an unreached node once; LT picks at most one
// in-edge per node by cumulative weight. A reached node joins only if its
// pass coin (if any) succeeds, and is never retried.
std::vector<NodeId> ReferenceReach(const Graph& g,
                                   const std::vector<NodeId>& roots,
                                   bool forward, bool lt,
                                   const std::vector<float>* pass, Rng& rng) {
  std::vector<uint8_t> seen(g.num_nodes(), 0);
  std::vector<NodeId> out;
  auto reach = [&](NodeId u) {
    seen[u] = 1;
    if (pass == nullptr || rng.NextBernoulli((*pass)[u])) out.push_back(u);
  };
  for (NodeId r : roots) {
    if (!seen[r]) reach(r);
  }
  for (size_t head = 0; head < out.size(); ++head) {
    const NodeId w = out[head];
    const auto nbrs = forward ? g.OutNeighbors(w) : g.InNeighbors(w);
    const auto probs = forward ? g.OutProbs(w) : g.InProbs(w);
    double r = lt ? rng.NextDouble() : 0.0;
    for (size_t k = 0; k < nbrs.size(); ++k) {
      // The reference is a per-edge scan by definition.
      const bool fires =
          lt ? (r -= probs[k]) < 0.0
             : !seen[nbrs[k]] &&
                   rng.NextBernoulli(probs[k]);  // uic-lint: allow(UIC-L009)
      if (fires && !seen[nbrs[k]]) reach(nbrs[k]);
      if (lt && fires) break;
    }
  }
  return out;
}

// --- geometric gap primitive -------------------------------------------

TEST(NextGeometric, MatchesBernoulliOnTheFirstTrial) {
  // gap == 0 ⟺ U < p, and both spellings consume exactly one draw — the
  // identity that keeps size-1 buckets on the per-edge draw sequence.
  for (double p : {0.05, 0.3, 0.7, 0.97}) {
    Rng a = Rng::Split(11, 0);
    Rng b = Rng::Split(11, 0);
    const double l = std::log1p(-p);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_EQ(a.NextBernoulli(p), b.NextGeometric(l) == 0) << "p=" << p;
    }
  }
}

TEST(NextGeometric, CertainEdgeAlwaysFires) {
  Rng rng = Rng::Split(3, 1);
  const double l = std::log1p(-1.0);  // -inf
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.NextGeometric(l), 0u);
  }
}

TEST(NextGeometric, MeanMatchesGeometricDistribution) {
  for (double p : {0.1, 0.5, 0.9}) {
    Rng rng = Rng::Split(7, 2);
    const double l = std::log1p(-p);
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.NextGeometric(l));
    const double mean = sum / n;
    const double want = (1.0 - p) / p;
    EXPECT_NEAR(mean, want, 0.05 * want + 0.01) << "p=" << p;
  }
}

// --- plan classification -----------------------------------------------

TEST(SamplingPlanClassification, WeightedCascadeIsAllUniform) {
  Graph g = DenseEr();
  g.ApplyWeightedCascade();
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  EXPECT_EQ(plan->num_scan_nodes(), 0u);
  EXPECT_EQ(plan->num_bucketed_nodes(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_FALSE(plan->Scans(v));
    auto buckets = plan->Buckets(v);
    ASSERT_EQ(buckets.size(), 1u) << "node " << v;
    EXPECT_EQ(buckets[0].size, g.InDegree(v));
    EXPECT_FLOAT_EQ(buckets[0].p, 1.0f / static_cast<float>(g.InDegree(v)));
    // Uniform nodes alias the graph's own CSR slice.
    EXPECT_EQ(buckets[0].nodes, g.InNeighbors(v).data());
  }
}

TEST(SamplingPlanClassification, TrivalencyBucketsAreSortedAndComplete) {
  Graph g = DenseEr();
  g.ApplyTrivalency({0.1, 0.01, 0.001}, 13);
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  EXPECT_EQ(plan->num_scan_nodes(), 0u);
  EXPECT_GT(plan->num_bucketed_nodes(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto buckets = plan->Buckets(v);
    auto srcs = g.InNeighbors(v);
    auto probs = g.InProbs(v);
    ASSERT_LE(buckets.size(), 3u);
    size_t covered = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(buckets[i].p, buckets[i - 1].p);
      }
      // Every bucket member really is an in-neighbor with that probability.
      for (uint32_t j = 0; j < buckets[i].size; ++j) {
        bool found = false;
        for (size_t k = 0; k < srcs.size(); ++k) {
          if (srcs[k] == buckets[i].nodes[j] && probs[k] == buckets[i].p) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << "node " << v;
      }
      covered += buckets[i].size;
    }
    EXPECT_EQ(covered, srcs.size()) << "node " << v;
  }
}

TEST(SamplingPlanClassification, ManyDistinctProbabilitiesFallBackToGeneral) {
  // 12 > kMaxDistinct distinct values: the node scans even though its
  // 240 low-probability edges would favor skipping.
  std::vector<double> probs;
  for (int i = 1; i <= 12; ++i) probs.push_back(0.001 * i);
  Graph g = StarInto(240, probs);
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  EXPECT_TRUE(plan->Scans(0));
  EXPECT_EQ(plan->num_scan_nodes(), 1u);
  EXPECT_TRUE(plan->Buckets(0).empty());
}

TEST(SamplingPlanClassification, DeadEdgesAreDroppedFromBuckets) {
  GraphBuilder b(62);
  for (NodeId u = 1; u <= 60; ++u) b.AddEdge(u, 0, 0.01);
  b.AddEdge(61, 0, 0.0);  // can never fire
  b.AddEdge(1, 61, 0.0);  // node 61: only dead in-edges
  Graph g = b.Build().MoveValue();
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  ASSERT_FALSE(plan->Scans(0));
  EXPECT_EQ(plan->num_bucketed_nodes(), 1u);  // the dead edge splits the slice
  auto buckets = plan->Buckets(0);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].size, 60u);  // the p=0 edge is gone
  EXPECT_TRUE(plan->Buckets(61).empty());  // all-dead: no buckets, no scan
  EXPECT_FALSE(plan->Scans(61));
}

TEST(SamplingPlanClassification, ForwardDirectionStratifiesOutAdjacency) {
  Graph g = DenseEr();
  g.ApplyConstantProbability(0.02);
  auto plan = SamplingPlan::Build(g, Direction::kForward,
                                  SamplingPlan::kIcBuckets);
  EXPECT_EQ(plan->num_scan_nodes(), 0u);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto buckets = plan->Buckets(u);
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].size, g.OutDegree(u));
    EXPECT_EQ(buckets[0].nodes, g.OutNeighbors(u).data());
  }
}

TEST(SamplingPlanClassification, ConstantPErScansAndWeightedCascadeHubsSkip) {
  // p = 0.15 on sparse ER: a live edge every ~7 edges, so per-edge trials
  // are cheaper than geometric jumps at every node.
  Graph er = GenerateErdosRenyi(200, 1200, 7);
  er.ApplyConstantProbability(0.15);
  auto er_plan = SamplingPlan::Build(er, Direction::kReverse,
                                     SamplingPlan::kIcBuckets);
  NodeId with_in_edges = 0;
  for (NodeId v = 0; v < er.num_nodes(); ++v) {
    with_in_edges += er.InDegree(v) > 0;
    EXPECT_EQ(er_plan->Scans(v), er.InDegree(v) > 0) << "node " << v;
  }
  EXPECT_EQ(er_plan->num_scan_nodes(), with_in_edges);

  // Weighted cascade on PA: one expected live in-edge per node, so a hub
  // with hundreds of in-edges skips while a single in-edge is one trial.
  Graph pa = GeneratePreferentialAttachment(2000, 6, false, 99);
  pa.ApplyWeightedCascade();
  auto pa_plan = SamplingPlan::Build(pa, Direction::kReverse,
                                     SamplingPlan::kIcBuckets);
  NodeId hub = 0;
  for (NodeId v = 0; v < pa.num_nodes(); ++v) {
    if (pa.InDegree(v) > pa.InDegree(hub)) hub = v;
    if (pa.InDegree(v) == 1) {
      EXPECT_TRUE(pa_plan->Scans(v)) << "node " << v;
    }
  }
  ASSERT_GT(pa.InDegree(hub), 100u);
  EXPECT_FALSE(pa_plan->Scans(hub));
  EXPECT_GT(pa_plan->num_scan_nodes(), 0u);
  EXPECT_GT(pa_plan->num_uniform_nodes(), 0u);
}

// --- exact identities ----------------------------------------------------

TEST(KernelEquivalenceExact, DeadGraphYieldsRootSingletonsUnderBothKernels) {
  // Under IC and LT alike.
  Graph g = GenerateErdosRenyi(60, 400, 5);
  g.ApplyConstantProbability(0.0);
  for (bool lt : {false, true}) {
    RrOptions opt;
    opt.linear_threshold = lt;
    RrSampler sampler(g, opt);
    Rng rng = Rng::Split(9, 0);
    std::vector<NodeId> set;
    for (NodeId root = 0; root < g.num_nodes(); ++root) {
      sampler.SampleRootedInto(root, rng, &set);
      ASSERT_EQ(set, std::vector<NodeId>{root}) << "lt=" << lt;
    }
  }
}

TEST(KernelEquivalenceExact, CertainGraphYieldsFullReachableSet) {
  // p = 1 everywhere: the RR set is exactly the reverse-reachable set.
  Graph g = GenerateErdosRenyi(80, 500, 6);
  g.ApplyConstantProbability(1.0);
  RrSampler sampler(g);
  Rng rng_a = Rng::Split(9, 1);
  Rng rng_b = Rng::Split(9, 1);
  std::vector<NodeId> a;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    sampler.SampleRootedInto(root, rng_a, &a);
    const std::vector<NodeId> b =
        ReferenceReach(g, {root}, false, false, nullptr, rng_b);
    ASSERT_EQ(a, b) << "root " << root;  // same BFS order, same content
  }
}

TEST(KernelEquivalenceExact, SingleInEdgeNodesAreBitIdenticalAcrossKernels) {
  // Nodes that scan draw the reference's per-edge sequence, pass coins
  // included: on a chain (every in-degree ≤ 1) and on constant p = 0.15
  // ER every node scans, so the sampler and the reference produce
  // identical sets for arbitrarily many samples from ONE shared RNG each.
  GraphBuilder b(64);
  for (NodeId v = 1; v < 64; ++v) {
    b.AddEdge(v - 1, v, 0.05 + 0.9 * static_cast<double>(v) / 64.0);
  }
  Graph chain = b.Build().MoveValue();
  Graph er = GenerateErdosRenyi(200, 1200, 7);
  er.ApplyConstantProbability(0.15);
  const std::vector<float> pass(er.num_nodes(), 0.7f);
  for (const Graph* g : {&chain, &er}) {
    for (bool coins : {false, true}) {
      RrOptions opt;
      if (coins) opt.node_pass_prob = &pass;
      RrSampler sampler(*g, opt);
      Rng rng_a = Rng::Split(4, 2);
      Rng rng_b = Rng::Split(4, 2);
      std::vector<NodeId> a;
      for (int i = 0; i < 4000; ++i) {
        sampler.SampleInto(rng_a, &a);
        const auto root =
            static_cast<NodeId>(rng_b.NextBounded(g->num_nodes()));
        const std::vector<NodeId> want = ReferenceReach(
            *g, {root}, false, false, coins ? &pass : nullptr, rng_b);
        ASSERT_EQ(a, want) << "sample " << i << " coins=" << coins;
      }
    }
  }
}

TEST(KernelEquivalenceExact, EdgesExaminedIsKernelIndependentPerSet) {
  // The EPT convention: edges examined = Σ in-degree over the set's nodes
  // — a geometric skip counts the edges it jumps over as examined. The
  // graph mixes scan and skip nodes.
  Graph g = GenerateErdosRenyi(300, 4500, 8);
  g.ApplyTrivalency({0.05, 0.01, 0.002}, 17);
  auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets);
  ASSERT_GT(plan->num_scan_nodes(), 0u);
  ASSERT_LT(plan->num_scan_nodes(), g.num_nodes());
  for (bool lt : {false, true}) {
    RrOptions opt;
    opt.linear_threshold = lt;
    RrSampler sampler(g, opt);
    Rng rng = Rng::Split(5, 3);
    std::vector<NodeId> set;
    for (int i = 0; i < 500; ++i) {
      const size_t edges = sampler.SampleInto(rng, &set);
      size_t want = 0;
      for (NodeId v : set) want += g.InDegree(v);
      ASSERT_EQ(edges, want) << "lt=" << lt;
    }
  }
}

// --- statistical equivalence with the reference --------------------------

TEST(KernelEquivalenceStatistical, PerEdgeFireFrequenciesMatchOnAStar) {
  // Each leaf joins the root's RR set iff its edge fires, so membership
  // frequency estimates the edge probability exactly. The small star's
  // root scans; the large low-probability star's root skips.
  struct Star {
    NodeId leaves;
    std::vector<double> probs;
    bool scans;
  };
  const Star stars[] = {{18, {0.8, 0.5, 0.5, 0.2, 0.2, 0.05}, true},
                        {240, {0.1, 0.05, 0.02, 0.01}, false}};
  const int n = 100000;
  for (const Star& star : stars) {
    Graph g = StarInto(star.leaves, star.probs);
    ASSERT_EQ(SamplingPlan::Build(g, Direction::kReverse,
                                  SamplingPlan::kIcBuckets)
                  ->Scans(0),
              star.scans);
    RrSampler sampler(g);
    Rng rng = Rng::Split(2, 4);
    Rng ref_rng = Rng::Split(2, 5);
    std::vector<NodeId> set;
    std::vector<int> hits(star.leaves + 1, 0);
    std::vector<int> ref_hits(star.leaves + 1, 0);
    for (int i = 0; i < n; ++i) {
      sampler.SampleRootedInto(0, rng, &set);
      for (NodeId v : set) ++hits[v];
      for (NodeId v : ReferenceReach(g, {0}, false, false, nullptr, ref_rng)) {
        ++ref_hits[v];
      }
    }
    for (NodeId u = 1; u <= star.leaves; ++u) {
      const double p = star.probs[(u - 1) % star.probs.size()];
      const double freq = static_cast<double>(hits[u]) / n;
      const double ref = static_cast<double>(ref_hits[u]) / n;
      // 6σ of a Bernoulli(p) mean at n=100000 is < 0.01 (0.014 for the
      // difference of two such means).
      EXPECT_NEAR(freq, p, 0.01) << "leaf " << u << " scans=" << star.scans;
      EXPECT_NEAR(freq, ref, 0.014) << "leaf " << u << " scans=" << star.scans;
    }
  }
}

TEST(KernelEquivalenceStatistical, LtAliasSourceDistributionMatchesWeights) {
  GraphBuilder b(3);
  b.AddEdge(1, 0, 0.2);
  b.AddEdge(2, 0, 0.3);
  Graph g = b.Build().MoveValue();
  auto plan = SamplingPlan::Build(
      g, Direction::kReverse, SamplingPlan::kIcBuckets | SamplingPlan::kLtAlias);
  Rng rng = Rng::Split(8, 5);
  const int n = 200000;
  int from1 = 0, from2 = 0, none = 0;
  for (int i = 0; i < n; ++i) {
    const NodeId src = plan->SampleLtSource(0, rng);
    if (src == 1) {
      ++from1;
    } else if (src == 2) {
      ++from2;
    } else {
      ASSERT_EQ(src, SamplingPlan::kNoSource);
      ++none;
    }
  }
  EXPECT_NEAR(from1 / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(from2 / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(none / static_cast<double>(n), 0.5, 0.01);
  // Nodes without in-edges never draw and always return kNoSource.
  Rng untouched = Rng::Split(8, 6);
  Rng probe = Rng::Split(8, 6);
  EXPECT_EQ(plan->SampleLtSource(1, probe), SamplingPlan::kNoSource);
  EXPECT_EQ(probe.NextU64(), untouched.NextU64());
}

TEST(KernelEquivalenceStatistical, PoolStatisticsMatchAcrossSchemesAndModels) {
  // Sampler vs reference over {wc, constant, trivalency} × {IC, LT} ×
  // {plain, pass-prob}: pool mean set size and per-node coverage rates
  // must agree within tolerance — same distribution, different draw
  // sequences. The schemes mix scan and skip nodes differently.
  Graph base = GenerateErdosRenyi(300, 4500, 7);
  const size_t target = 6000;
  std::vector<float> pass(base.num_nodes(), 0.6f);
  NodeId scan_nodes = 0;
  NodeId skip_nodes = 0;
  for (int scheme = 0; scheme < 3; ++scheme) {
    Graph g = base;
    if (scheme == 0) {
      g.ApplyWeightedCascade();
    } else if (scheme == 1) {
      g.ApplyConstantProbability(0.04);
    } else {
      g.ApplyTrivalency({0.05, 0.01, 0.002}, 21);
    }
    auto plan = SamplingPlan::Build(g, Direction::kReverse,
                                    SamplingPlan::kIcBuckets);
    scan_nodes += plan->num_scan_nodes();
    skip_nodes += plan->num_uniform_nodes() + plan->num_bucketed_nodes();
    for (bool lt : {false, true}) {
      for (bool coins : {false, true}) {
        RrOptions opt;
        opt.linear_threshold = lt;
        if (coins) opt.node_pass_prob = &pass;
        RrCollection pool(g, 42, 4, opt);
        pool.GenerateUntil(target);
        Rng rng = Rng::Split(42, 0);
        size_t ref_nodes = 0;
        std::vector<size_t> ref_degree(g.num_nodes(), 0);
        for (size_t i = 0; i < target; ++i) {
          const auto root = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
          const std::vector<NodeId> set = ReferenceReach(
              g, {root}, false, lt, coins ? &pass : nullptr, rng);
          ref_nodes += set.size();
          for (NodeId v : set) ++ref_degree[v];
        }
        const double mean = static_cast<double>(pool.TotalNodes()) / target;
        const double ref_mean = static_cast<double>(ref_nodes) / target;
        EXPECT_NEAR(mean, ref_mean, 0.12 * ref_mean + 0.05)
            << "scheme=" << scheme << " lt=" << lt << " coins=" << coins;
        // Per-node coverage rates (live in-degree of the root-of-v RR
        // world): compare the busiest nodes, where the estimate is tight.
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          const double a = static_cast<double>(ref_degree[v]) / target;
          const double b = static_cast<double>(pool.IndexDegree(v)) / target;
          if (a < 0.05 && b < 0.05) continue;
          ASSERT_NEAR(b, a, 0.25 * a + 0.02)
              << "node " << v << " scheme=" << scheme << " lt=" << lt
              << " coins=" << coins;
        }
      }
    }
  }
  EXPECT_GT(scan_nodes, 0u);
  EXPECT_GT(skip_nodes, 0u);
}

// --- forward simulation ------------------------------------------------

TEST(ForwardKernel, EstimateSpreadMatchesScanWithinTolerance) {
  // Constant p on moderately dense ER: low-out-degree nodes scan, the
  // rest skip.
  Graph g = GenerateErdosRenyi(300, 4500, 7);
  g.ApplyConstantProbability(0.04);
  auto plan = SamplingPlan::Build(g, Direction::kForward,
                                  SamplingPlan::kIcBuckets);
  ASSERT_GT(plan->num_scan_nodes(), 0u);
  ASSERT_LT(plan->num_scan_nodes(), g.num_nodes());
  const std::vector<NodeId> seeds = {3, 17, 42};
  const size_t sims = 40000;
  Rng rng = Rng::Split(11, 0);
  double ref = 0.0;
  for (size_t i = 0; i < sims; ++i) {
    ref += static_cast<double>(
        ReferenceReach(g, seeds, true, false, nullptr, rng).size());
  }
  ref /= static_cast<double>(sims);
  const double spread = EstimateSpread(g, seeds, sims, 11, 4);
  EXPECT_NEAR(spread, ref, 0.03 * ref + 0.05);
}

TEST(ForwardKernel, CertainEdgesReachEverythingUnderBothKernels) {
  // Deterministic diffusion: every run reaches the whole reachable set.
  Graph g = GenerateLayeredDag(4, 5, 1.0);
  const std::vector<NodeId> seeds = {0};
  Rng rng(1);
  const size_t reachable =
      ReferenceReach(g, seeds, true, false, nullptr, rng).size();
  EXPECT_EQ(EstimateSpread(g, seeds, 64, 1, 2),
            static_cast<double>(reachable));
}

}  // namespace
}  // namespace uic
