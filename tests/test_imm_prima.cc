#include "rrset/prima.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "diffusion/ic_model.h"
#include "graph/generators.h"
#include "rrset/imm.h"

namespace uic {
namespace {

// Exhaustive optimum spread over all size-k seed sets (MC-estimated), for
// small graphs only.
double ExhaustiveOptSpread(const Graph& g, size_t k, size_t mc,
                           uint64_t seed) {
  std::vector<NodeId> comb(k);
  double best = 0.0;
  // Enumerate combinations via simple recursion on indices.
  std::vector<NodeId> stack;
  std::function<void(NodeId)> rec = [&](NodeId start) {
    if (stack.size() == k) {
      best = std::max(best, EstimateSpread(g, stack, mc, seed, 2));
      return;
    }
    for (NodeId v = start; v < g.num_nodes(); ++v) {
      stack.push_back(v);
      rec(v + 1);
      stack.pop_back();
    }
  };
  rec(0);
  return best;
}

TEST(Lambda, LogChooseIsSymmetricAndMonotoneToMiddle) {
  EXPECT_NEAR(LogChoose(10, 3), LogChoose(10, 7), 1e-9);
  EXPECT_GT(LogChoose(10, 5), LogChoose(10, 2));
  EXPECT_DOUBLE_EQ(LogChoose(10, 0), 0.0);
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-9);
}

TEST(Lambda, LogChooseIsSafeToCallConcurrently) {
  // Concurrent solves each size their pools with LogChoose, so it must not
  // write shared state (std::lgamma writes the global `signgam`; under
  // ThreadSanitizer that write fails this test). Values stay exactly the
  // lgamma ones.
  const double n = 40000.0;
  const double k = 25.0;
  const double expected =
      std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
  ThreadPool pool(4);
  std::vector<double> got(1024);
  pool.ParallelFor(got.size(), 4, [&](unsigned, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) got[i] = LogChoose(n, k);
  });
  for (double v : got) ASSERT_EQ(v, expected);
}

TEST(Lambda, BothLambdasIncreaseWithBudget) {
  const double n = 10000;
  for (double k = 1; k < 500; k *= 2) {
    EXPECT_LT(LambdaPrime(n, k, 0.7, 1.0), LambdaPrime(n, 2 * k, 0.7, 1.0));
    EXPECT_LT(LambdaStar(n, k, 0.5, 1.0), LambdaStar(n, 2 * k, 0.5, 1.0));
  }
}

TEST(Lambda, TighterEpsilonNeedsMoreSamples) {
  const double n = 10000;
  EXPECT_GT(LambdaStar(n, 50, 0.1, 1.0), LambdaStar(n, 50, 0.5, 1.0));
  EXPECT_GT(LambdaPrime(n, 50, 0.1, 1.0), LambdaPrime(n, 50, 0.5, 1.0));
}

TEST(Imm, ReturnsRequestedSeedCount) {
  Graph g = GenerateErdosRenyi(300, 1800, 1);
  g.ApplyWeightedCascade();
  const ImResult r = Imm(g, 10, 0.5, 1.0, 2);
  EXPECT_EQ(r.seeds.size(), 10u);
  EXPECT_GT(r.num_rr_sets, 0u);
  // Seeds are distinct.
  std::vector<NodeId> sorted = r.seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Imm, DeterministicForFixedSeed) {
  Graph g = GenerateErdosRenyi(200, 1000, 3);
  g.ApplyWeightedCascade();
  const ImResult a = Imm(g, 5, 0.5, 1.0, 7, 4);
  const ImResult b = Imm(g, 5, 0.5, 1.0, 7, 4);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.num_rr_sets, b.num_rr_sets);
}

TEST(Imm, PicksTheObviousHub) {
  // Star with certain edges: node 0 is optimal for k=1.
  const NodeId n = 50;
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v, 1.0);
  Graph g = builder.Build().MoveValue();
  const ImResult r = Imm(g, 1, 0.5, 1.0, 4);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0], 0u);
}

TEST(Imm, ExcludedNodesNeverSelected) {
  const NodeId n = 50;
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v, 1.0);
  Graph g = builder.Build().MoveValue();
  const ImResult r = Imm(g, 3, 0.5, 1.0, 5, 0, /*excluded=*/{0});
  for (NodeId s : r.seeds) EXPECT_NE(s, 0u);
}

TEST(Imm, ApproximationHoldsOnSmallGraph) {
  // 24-node random graph, k=2: IMM's spread >= (1 - 1/e - eps) * OPT.
  Graph g = GenerateErdosRenyi(24, 100, 6);
  g.ApplyConstantProbability(0.3);
  const size_t k = 2;
  const ImResult r = Imm(g, k, 0.3, 1.0, 7);
  const double imm_spread = EstimateSpread(
      g, {r.seeds.begin(), r.seeds.begin() + k}, 40000, 99, 2);
  const double opt = ExhaustiveOptSpread(g, k, 4000, 99);
  EXPECT_GE(imm_spread, (1.0 - 1.0 / 2.71828 - 0.3) * opt - 0.25);
}

TEST(Prima, OrderingHasMaxBudgetLength) {
  Graph g = GenerateErdosRenyi(300, 1800, 8);
  g.ApplyWeightedCascade();
  const ImResult r = Prima(g, {5, 20, 10}, 0.5, 1.0, 9);
  EXPECT_EQ(r.seeds.size(), 20u);
}

TEST(Prima, HandlesUniformBudgets) {
  Graph g = GenerateErdosRenyi(200, 1200, 10);
  g.ApplyWeightedCascade();
  const ImResult r = Prima(g, {8, 8, 8}, 0.5, 1.0, 11);
  EXPECT_EQ(r.seeds.size(), 8u);
}

TEST(Prima, IgnoresZeroBudgets) {
  Graph g = GenerateErdosRenyi(100, 500, 12);
  g.ApplyWeightedCascade();
  const ImResult r = Prima(g, {0, 6, 0}, 0.5, 1.0, 13);
  EXPECT_EQ(r.seeds.size(), 6u);
}

TEST(Prima, EmptyBudgetsYieldEmptyResult) {
  Graph g = GenerateErdosRenyi(100, 500, 14);
  const ImResult r = Prima(g, {}, 0.5, 1.0, 15);
  EXPECT_TRUE(r.seeds.empty());
  const ImResult r2 = Prima(g, {0, 0}, 0.5, 1.0, 15);
  EXPECT_TRUE(r2.seeds.empty());
}

TEST(Prima, GeneratesAtLeastAsManySetsAsSingleBudgetImm) {
  // The union bound over budgets (ℓ') can only increase the requirement.
  Graph g = GenerateErdosRenyi(400, 2400, 16);
  g.ApplyWeightedCascade();
  const ImResult imm = Imm(g, 20, 0.5, 1.0, 17, 4);
  const ImResult prima = Prima(g, {20, 10, 5}, 0.5, 1.0, 17, 4);
  EXPECT_GE(prima.num_rr_sets, imm.num_rr_sets);
}

// The heart of Definition 1: every budget's prefix must be near-optimal.
class PrimaPrefixTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrimaPrefixTest, EveryPrefixIsNearOptimal) {
  Rng rng(GetParam());
  Graph g = GenerateErdosRenyi(22, 90, GetParam() + 100);
  g.ApplyConstantProbability(0.25);
  const std::vector<uint32_t> budgets = {3, 2, 1};
  const ImResult r = Prima(g, budgets, 0.3, 1.0, GetParam());
  ASSERT_EQ(r.seeds.size(), 3u);
  for (uint32_t k : budgets) {
    const double prefix_spread = EstimateSpread(
        g, {r.seeds.begin(), r.seeds.begin() + k}, 30000, 55, 2);
    const double opt = ExhaustiveOptSpread(g, k, 3000, 55);
    EXPECT_GE(prefix_spread, (1.0 - 1.0 / 2.71828 - 0.3) * opt - 0.3)
        << "budget " << k << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimaPrefixTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace uic
