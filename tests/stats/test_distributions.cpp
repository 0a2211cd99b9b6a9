#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace fbm::stats {
namespace {

// ------------------------------------------------------------ property suite

struct DistCase {
  const char* label;
  std::function<DistributionPtr()> make;
  bool finite_variance;
};

// gtest prints a parameter without a printer as its raw bytes, and those
// start with the label's address — which then ends up in every ctest name.
// Print the label instead, so the names are the same in every build.
void PrintTo(const DistCase& c, std::ostream* os) { *os << c.label; }

class DistributionProperties : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionProperties, QuantileInvertsCdf) {
  const auto d = GetParam().make();
  for (double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double x = d->quantile(p);
    EXPECT_NEAR(d->cdf(x), p, 1e-6) << d->name() << " p=" << p;
  }
}

TEST_P(DistributionProperties, CdfIsMonotone) {
  const auto d = GetParam().make();
  double prev = -1.0;
  for (double p : {0.05, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    const double x = d->quantile(p);
    const double c = d->cdf(x);
    EXPECT_GE(c, prev - 1e-12) << d->name();
    prev = c;
  }
}

TEST_P(DistributionProperties, PdfIsNonNegative) {
  const auto d = GetParam().make();
  for (double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_GE(d->pdf(d->quantile(p)), 0.0) << d->name();
  }
}

TEST_P(DistributionProperties, PdfMatchesCdfDerivative) {
  const auto d = GetParam().make();
  for (double p : {0.2, 0.5, 0.8}) {
    const double x = d->quantile(p);
    const double h = std::max(1e-6, std::abs(x) * 1e-6);
    const double numeric = (d->cdf(x + h) - d->cdf(x - h)) / (2.0 * h);
    const double analytic = d->pdf(x);
    EXPECT_NEAR(numeric, analytic,
                1e-3 * std::max(1.0, std::abs(analytic)) + 1e-9)
        << d->name() << " x=" << x;
  }
}

TEST_P(DistributionProperties, SampleMeanConverges) {
  const auto d = GetParam().make();
  if (!GetParam().finite_variance) GTEST_SKIP() << "infinite variance";
  Rng rng(123);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(d->sample(rng));
  const double m = d->mean();
  EXPECT_NEAR(s.mean(), m, 0.05 * std::max(1.0, std::abs(m)) +
                               4.0 * std::sqrt(d->variance() / 100000.0))
      << d->name();
}

TEST_P(DistributionProperties, SampleVarianceConverges) {
  const auto d = GetParam().make();
  if (!GetParam().finite_variance) GTEST_SKIP() << "infinite variance";
  Rng rng(321);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(d->sample(rng));
  const double v = d->variance();
  EXPECT_NEAR(s.variance(), v, 0.15 * std::max(1e-12, v)) << d->name();
}

TEST_P(DistributionProperties, QuantileRejectsBadP) {
  const auto d = GetParam().make();
  EXPECT_THROW((void)d->quantile(-0.1), std::invalid_argument) << d->name();
  EXPECT_THROW((void)d->quantile(1.0), std::invalid_argument) << d->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionProperties,
    ::testing::Values(
        DistCase{"exponential",
                 [] { return std::make_shared<Exponential>(2.0); }, true},
        DistCase{"pareto_heavy",
                 [] { return std::make_shared<Pareto>(1.5, 1.0); }, false},
        DistCase{"pareto_light",
                 [] { return std::make_shared<Pareto>(3.5, 2.0); }, true},
        DistCase{"bounded_pareto",
                 [] { return std::make_shared<BoundedPareto>(1.2, 1.0, 1e4); },
                 true},
        DistCase{"lognormal",
                 [] { return std::make_shared<LogNormal>(1.0, 0.75); }, true},
        DistCase{"weibull",
                 [] { return std::make_shared<Weibull>(1.7, 3.0); }, true},
        DistCase{"uniform", [] { return std::make_shared<Uniform>(2.0, 5.0); },
                 true},
        DistCase{"mixture",
                 [] {
                   return std::make_shared<Mixture>(
                       std::make_shared<Exponential>(1.0),
                       std::make_shared<Exponential>(0.1), 0.7);
                 },
                 true}),
    [](const auto& info) { return info.param.label; });

// --------------------------------------------------------------- single cases

TEST(Exponential, Moments) {
  Exponential d(4.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.25);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0625);
}

TEST(Exponential, FitRecoversRate) {
  Rng rng(77);
  Exponential truth(3.0);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) xs.push_back(truth.sample(rng));
  const Exponential fitted = Exponential::fit(xs);
  EXPECT_NEAR(fitted.rate(), 3.0, 0.05);
}

TEST(Exponential, RejectsBadRate) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(Pareto, InfiniteMomentsFlaggedAsInf) {
  Pareto heavy(0.9, 1.0);
  EXPECT_TRUE(std::isinf(heavy.mean()));
  Pareto mid(1.5, 1.0);
  EXPECT_FALSE(std::isinf(mid.mean()));
  EXPECT_TRUE(std::isinf(mid.variance()));
}

TEST(Pareto, MeanFormula) {
  Pareto d(3.0, 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(Pareto, FitRecoversAlpha) {
  Rng rng(78);
  Pareto truth(2.2, 1.0);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) xs.push_back(truth.sample(rng));
  const Pareto fitted = Pareto::fit(xs);
  EXPECT_NEAR(fitted.alpha(), 2.2, 0.05);
  EXPECT_NEAR(fitted.xm(), 1.0, 0.01);
}

TEST(Pareto, SupportStartsAtXm) {
  Pareto d(2.0, 5.0);
  EXPECT_DOUBLE_EQ(d.cdf(4.9), 0.0);
  EXPECT_DOUBLE_EQ(d.pdf(4.9), 0.0);
  EXPECT_GT(d.pdf(5.1), 0.0);
}

TEST(BoundedPareto, SupportIsBounded) {
  BoundedPareto d(1.1, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(100.0), 1.0);
  EXPECT_GE(d.quantile(0.999), 1.0);
  EXPECT_LE(d.quantile(0.999), 100.0);
}

TEST(BoundedPareto, MeanViaSampling) {
  BoundedPareto d(1.3, 1.0, 1e5);
  Rng rng(79);
  RunningStats s;
  for (int i = 0; i < 300000; ++i) s.add(d.sample(rng));
  EXPECT_NEAR(s.mean(), d.mean(), 0.05 * d.mean());
}

TEST(BoundedPareto, AlphaEqualsMomentOrderLimit) {
  // alpha == 1 hits the log branch of the first raw moment.
  BoundedPareto d(1.0, 1.0, std::exp(1.0));
  // E[X] = xm^a * a * log(cap/xm) / (1 - (xm/cap)^a) with a=1:
  const double expected = 1.0 * std::log(std::exp(1.0)) /
                          (1.0 - 1.0 / std::exp(1.0));
  EXPECT_NEAR(d.mean(), expected, 1e-9);
}

TEST(LogNormal, MomentFormulas) {
  LogNormal d(0.5, 0.8);
  EXPECT_NEAR(d.mean(), std::exp(0.5 + 0.32), 1e-12);
  const double s2 = 0.64;
  EXPECT_NEAR(d.variance(), (std::exp(s2) - 1.0) * std::exp(1.0 + s2), 1e-9);
}

TEST(LogNormal, FromMeanCvRoundTrips) {
  const LogNormal d = LogNormal::from_mean_cv(100.0, 2.0);
  EXPECT_NEAR(d.mean(), 100.0, 1e-9);
  EXPECT_NEAR(std::sqrt(d.variance()) / d.mean(), 2.0, 1e-9);
}

TEST(LogNormal, FitRecoversParameters) {
  Rng rng(80);
  LogNormal truth(1.2, 0.5);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) xs.push_back(truth.sample(rng));
  const LogNormal fitted = LogNormal::fit(xs);
  EXPECT_NEAR(fitted.mu(), 1.2, 0.01);
  EXPECT_NEAR(fitted.sigma(), 0.5, 0.01);
}

TEST(Weibull, ShapeOneIsExponential) {
  Weibull w(1.0, 2.0);
  Exponential e(0.5);
  for (double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(w.cdf(x), e.cdf(x), 1e-12);
  }
}

TEST(Constant, DegenerateBehaviour) {
  Constant c(42.0);
  EXPECT_DOUBLE_EQ(c.mean(), 42.0);
  EXPECT_DOUBLE_EQ(c.variance(), 0.0);
  EXPECT_DOUBLE_EQ(c.cdf(41.9), 0.0);
  EXPECT_DOUBLE_EQ(c.cdf(42.0), 1.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(c.sample(rng), 42.0);
}

TEST(Mixture, MeanAndVariance) {
  auto a = std::make_shared<Constant>(0.0);
  auto b = std::make_shared<Constant>(10.0);
  Mixture m(a, b, 0.25);
  EXPECT_DOUBLE_EQ(m.mean(), 7.5);
  // Var = E[X^2] - mean^2 = 0.75*100 - 56.25 = 18.75.
  EXPECT_DOUBLE_EQ(m.variance(), 18.75);
}

TEST(Mixture, QuantileByBisectionInvertsCdf) {
  auto a = std::make_shared<Exponential>(1.0);
  auto b = std::make_shared<Exponential>(0.05);
  Mixture m(a, b, 0.9);
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(m.cdf(m.quantile(p)), p, 1e-8) << p;
  }
}

TEST(Mixture, RejectsNullAndBadP) {
  auto a = std::make_shared<Exponential>(1.0);
  EXPECT_THROW(Mixture(nullptr, a, 0.5), std::invalid_argument);
  EXPECT_THROW(Mixture(a, a, 1.5), std::invalid_argument);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  Zipf z(100, 1.2);
  double acc = 0.0;
  for (std::size_t k = 0; k < 100; ++k) acc += z.probability(k);
  EXPECT_NEAR(acc, 1.0, 1e-12);
}

TEST(Zipf, RankZeroIsMostPopular) {
  Zipf z(50, 1.0);
  EXPECT_GT(z.probability(0), z.probability(1));
  EXPECT_GT(z.probability(1), z.probability(10));
}

TEST(Zipf, ZeroSkewIsUniform) {
  Zipf z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(z.probability(k), 0.1, 1e-12);
  }
}

TEST(Zipf, SampleFrequenciesMatch) {
  Zipf z(20, 1.0);
  Rng rng(81);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  for (std::size_t k : {0u, 1u, 5u, 19u}) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.probability(k), 0.005)
        << k;
  }
}

TEST(Zipf, Validation) {
  EXPECT_THROW(Zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(Zipf(10, -0.5), std::invalid_argument);
}

}  // namespace
}  // namespace fbm::stats
