#include "rrset/imm.h"

#include <math.h>

#include <cmath>

#include "common/check.h"
#include "rrset/prima.h"

namespace uic {

double LogChoose(double n, double k) {
  if (k <= 0 || k >= n) return 0.0;
  // lgamma_r, not std::lgamma: std::lgamma also writes the global
  // `signgam`, a data race between concurrent solves. Same glibc kernel,
  // bit-identical values.
  int sign = 0;
  return lgamma_r(n + 1.0, &sign) - lgamma_r(k + 1.0, &sign) -
         lgamma_r(n - k + 1.0, &sign);
}

double LambdaPrime(double n, double k, double eps_prime, double ell_prime) {
  const double log_terms =
      LogChoose(n, k) + ell_prime * std::log(n) + std::log(std::log2(n));
  return (2.0 + 2.0 / 3.0 * eps_prime) * log_terms * n / (eps_prime * eps_prime);
}

double LambdaStar(double n, double k, double eps, double ell_prime) {
  constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;
  const double alpha = std::sqrt(ell_prime * std::log(n) + std::log(2.0));
  const double beta = std::sqrt(
      kOneMinusInvE * (LogChoose(n, k) + ell_prime * std::log(n) + std::log(2.0)));
  const double t = kOneMinusInvE * alpha + beta;
  return 2.0 * n * t * t / (eps * eps);
}

ImResult Imm(const Graph& graph, size_t k, double eps, double ell,
             uint64_t seed, unsigned workers,
             const std::vector<NodeId>& excluded, RrOptions rr_options) {
  // IMM is PRIMA with a single budget: ℓ' degenerates to ℓ (no union bound
  // over budgets) and the prefix property is trivial.
  return Prima(graph, {static_cast<uint32_t>(k)}, eps, ell, seed, workers,
               excluded, rr_options);
}

}  // namespace uic
