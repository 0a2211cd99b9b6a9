// The paper's stationary shot-noise model as a scenario spec, for the tests
// that need a model-driven packet source.
#pragma once

#include <cmath>
#include <cstdint>

#include "scenario/spec.hpp"

namespace fbm::testsupport {

/// One baseline segment of `duration_s`: Poisson flow arrivals at `lambda`
/// per second, sizes LogNormal(size_mu, size_sigma) bits, durations
/// LogNormal(duration_mu, duration_sigma) seconds, triangular shots. The
/// spec takes each lognormal as its mean e^(mu + sigma^2/2) and CV
/// sqrt(e^(sigma^2) - 1).
inline scenario::ScenarioSpec model_spec(double duration_s, double lambda,
                                         double size_mu, double size_sigma,
                                         double duration_mu,
                                         double duration_sigma,
                                         std::uint64_t seed) {
  const auto mean = [](double mu, double sigma) {
    return std::exp(mu + sigma * sigma / 2.0);
  };
  const auto cv = [](double sigma) {
    return std::sqrt(std::expm1(sigma * sigma));
  };
  scenario::ScenarioSpec spec;
  spec.name = "model";
  spec.seed = seed;
  spec.lambda = lambda;
  spec.size_mean_bits = mean(size_mu, size_sigma);
  spec.size_cv = cv(size_sigma);
  spec.duration_mean_s = mean(duration_mu, duration_sigma);
  spec.duration_cv = cv(duration_sigma);
  spec.shot_b = 1.0;
  scenario::Segment baseline;
  baseline.duration_s = duration_s;
  spec.segments.push_back(baseline);
  return spec;
}

}  // namespace fbm::testsupport
