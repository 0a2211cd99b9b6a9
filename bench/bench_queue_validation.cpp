// Section V-E application check: does the Gaussian dimensioning rule hold up
// when the dimensioned link is actually simulated?
//
// For each target congestion probability eps, size the link with
// C = E[R] + q(1-eps)*sigma (triangular shots), then play model-generated
// traffic through a fluid queue of capacity C and compare the realised
// fraction of congested time against eps, with and without a buffer
// absorbing the overshoot (the paper's "short-term congestion is absorbed
// by the buffers" remark).
//
// Checked: at the moderate targets (eps = 0.2, 0.1) the congested fraction
// lies within the paper's +-20% model band of eps; at the small ones
// (0.05, 0.01) it is at least eps (the rate law is right-skewed, Corollary
// 3); and with the buffer the loss stays below the congested fraction and
// never above the bufferless loss.
#include <cstdio>
#include <limits>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "dimension/provisioning.hpp"
#include "gen/traffic_gen.hpp"
#include "measure/fluid_queue.hpp"

FBM_BENCH(queue_validation) {
  using namespace fbm;
  bench::print_header(
      "Dimensioning validation: Gaussian rule vs simulated fluid queue");

  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto model = core::ShotNoiseModel::from_interval(
      run.five_tuple[0].interval, core::triangular_shot());

  // Long synthetic sample of the modeled process.
  auto gen_cfg = gen::from_model(model, 600.0, 0.2);
  gen_cfg.seed = 777;
  const auto traffic = gen::generate(gen_cfg);

  std::printf("traffic: mean %.2f Mbps, model mean %.2f Mbps\n\n",
              stats::series_mean(traffic.series) / 1e6,
              model.mean_rate() / 1e6);

  std::printf("%8s %14s | %22s | %22s\n", "eps", "capacity",
              "bufferless", "20 ms buffer");
  std::printf("%8s %14s | %10s %11s | %10s %11s\n", "", "", "congested",
              "loss", "congested", "loss");
  struct Row {
    double eps;
    measure::FluidQueueReport bufferless, buffered;
  };
  std::vector<Row> rows;
  for (double eps : {0.2, 0.1, 0.05, 0.01}) {
    const auto plan = dimension::plan_link(model.inputs(), 1.0, eps);
    const measure::FluidQueueConfig no_buffer{plan.capacity_bps, 0.0};
    const measure::FluidQueueConfig buffered{
        plan.capacity_bps, plan.capacity_bps * 0.020};  // 20 ms drain time
    const auto a = run_fluid_queue(traffic.series, no_buffer);
    const auto b = run_fluid_queue(traffic.series, buffered);
    std::printf("%8.2f %11.2f Mbps | %9.3f%% %10.4f%% | %9.3f%% %10.4f%%\n",
                eps, plan.capacity_bps / 1e6, 100.0 * a.congested_fraction,
                100.0 * a.loss_fraction, 100.0 * b.congested_fraction,
                100.0 * b.loss_fraction);
    rows.push_back({eps, a, b});
  }

  std::printf("\n");
  for (const auto& r : rows) {
    char label[64];
    std::snprintf(label, sizeof label, "congested / eps, eps=%g", r.eps);
    if (r.eps >= 0.1) {
      ctx.check(label, r.bufferless.congested_fraction / r.eps, 0.8, 1.2,
                "Section V-E rule, paper's +-20% model band");
    } else {
      ctx.check(label, r.bufferless.congested_fraction / r.eps, 1.0,
                std::numeric_limits<double>::infinity(),
                "Corollary 3: right skew, Gaussian tails are light");
    }
    std::snprintf(label, sizeof label, "buffered loss / congested, eps=%g",
                  r.eps);
    ctx.check(label,
              r.buffered.loss_fraction / r.buffered.congested_fraction, 0.0,
              1.0, "Section V-E: buffers absorb short congestion");
    std::snprintf(label, sizeof label, "buffered / bufferless loss, eps=%g",
                  r.eps);
    ctx.check(label, r.buffered.loss_fraction / r.bufferless.loss_fraction,
              0.0, 1.0, "fluid queue: a buffer never adds loss");
  }
  return 0;
}
