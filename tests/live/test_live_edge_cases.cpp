// Window edge cases the satellite checklist pins: empty windows, flows
// straddling a window boundary, stride > width gaps, the predictor fed a
// series shorter than its lag order, and a window opened on a closed
// window's classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "../support/collect.hpp"
#include "../support/push.hpp"
#include "live/live.hpp"
#include "predict/predictor.hpp"
#include "stats/autocorrelation.hpp"

namespace fbm {
namespace {

using testsupport::push_all;
using testsupport::push_one;

net::PacketRecord packet(double ts, std::uint16_t src_port,
                         std::uint32_t bytes = 1000) {
  net::PacketRecord p;
  p.timestamp = ts;
  p.tuple.src = net::Ipv4Address(10, 0, 0, 1);
  p.tuple.dst = net::Ipv4Address(192, 168, 0, 1);
  p.tuple.src_port = src_port;
  p.tuple.dst_port = 80;
  p.tuple.protocol = 6;
  p.size_bytes = bytes;
  return p;
}

live::LiveConfig tiling_config(double width, double stride = 0.0) {
  live::LiveConfig config;
  config.window_s = width;
  config.stride_s = stride;
  config.analysis.timeout_s(1.0);
  return config;
}

std::vector<live::WindowReport> run(const live::LiveConfig& config,
                                    const std::vector<net::PacketRecord>&
                                        packets) {
  live::WindowedEstimator estimator(config);
  const auto estimator_reports = testsupport::collect(estimator);
  push_all(estimator, packets);
  estimator.finish();
  return estimator_reports->take();
}

TEST(LiveEdgeCases, EmptyWindowsStillReport) {
  // Traffic in windows 0 and 5 only; 1-4 must still produce (zero) reports
  // so the emitted index sequence stays contiguous.
  std::vector<net::PacketRecord> packets;
  packets.push_back(packet(0.1, 1));
  packets.push_back(packet(0.2, 1));
  packets.push_back(packet(25.1, 2));
  packets.push_back(packet(25.2, 2));

  const auto reports = run(tiling_config(5.0), packets);
  ASSERT_EQ(reports.size(), 6u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].window_index, i);
  }
  for (std::size_t i : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(i);
    EXPECT_EQ(reports[i].packets, 0u);
    EXPECT_EQ(reports[i].inputs.flows, 0u);
    EXPECT_EQ(reports[i].measured.mean_bps, 0.0);
    // The zero series still covers the full window at Delta resolution.
    EXPECT_EQ(reports[i].measured.samples,
              static_cast<std::size_t>(
                  std::ceil(5.0 / measure::kPaperDelta)));
  }
  EXPECT_EQ(reports[0].inputs.flows, 1u);
  EXPECT_EQ(reports[5].inputs.flows, 1u);
}

TEST(LiveEdgeCases, FlowStraddlingWindowBoundary) {
  // A two-packet flow at 4.9 / 5.1 crosses the tiling boundary at t=5: each
  // window sees one packet, a single-packet piece, which the paper
  // discards — and whose bytes leave the rate bins.
  std::vector<net::PacketRecord> packets{packet(4.9, 7), packet(5.1, 7)};

  const auto tiled = run(tiling_config(5.0), packets);
  ASSERT_EQ(tiled.size(), 2u);
  for (const auto& r : tiled) {
    SCOPED_TRACE(r.window_index);
    EXPECT_EQ(r.inputs.flows, 0u);
    EXPECT_EQ(r.discards, 1u);
    EXPECT_EQ(r.packets, 1u);  // seen, then excluded from the variance
    EXPECT_EQ(r.measured.mean_bps, 0.0);
  }

  // An overlapping window that contains both packets sees the whole flow.
  const auto overlapped = run(tiling_config(5.0, 2.0), packets);
  bool saw_whole_flow = false;
  for (const auto& r : overlapped) {
    if (r.inputs.flows == 1u) {
      saw_whole_flow = true;
      EXPECT_EQ(r.packets, 2u);
      EXPECT_EQ(r.discards, 0u);
    }
  }
  EXPECT_TRUE(saw_whole_flow);
}

TEST(LiveEdgeCases, StrideLargerThanWidthLeavesGaps) {
  // Windows [0,2), [5,7), [10,12): the packet at t=3 falls in the gap and
  // belongs to no window, but it still advances the stream clock.
  std::vector<net::PacketRecord> packets;
  packets.push_back(packet(0.5, 1));
  packets.push_back(packet(0.9, 1));
  packets.push_back(packet(3.0, 2));
  packets.push_back(packet(3.1, 2));
  packets.push_back(packet(10.5, 3));
  packets.push_back(packet(10.9, 3));

  const auto reports = run(tiling_config(2.0, 5.0), packets);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].inputs.flows, 1u);
  EXPECT_EQ(reports[0].packets, 2u);
  EXPECT_EQ(reports[1].packets, 0u);  // t=3 traffic is in no window
  EXPECT_EQ(reports[1].inputs.flows, 0u);
  EXPECT_EQ(reports[2].inputs.flows, 1u);
  std::uint64_t window_packets = 0;
  for (const auto& r : reports) window_packets += r.packets;
  EXPECT_EQ(window_packets, 4u);  // 2 of the 6 pushed packets fell in gaps
}

TEST(LiveEdgeCases, IdleFlowsExpireBeforeTheirWindowCloses) {
  // Windows [0,10), [2,12), [4,14) with a 1 s timeout. Flow 1 (in window 0)
  // and flow 3 (in windows 0 and 1) go idle; flow 2 keeps the clock moving.
  // The expiry sweep at t=3.5 must drop both idle flows from every window
  // that holds them, long before any window closes at t=10.
  std::vector<net::PacketRecord> packets;
  packets.push_back(packet(0.1, 1));
  packets.push_back(packet(0.2, 1));
  for (const double t : {0.5, 1.0, 1.5, 2.0}) packets.push_back(packet(t, 2));
  packets.push_back(packet(2.1, 3));
  packets.push_back(packet(2.2, 3));
  for (const double t : {2.5, 3.0, 3.5, 4.0, 4.5}) {
    packets.push_back(packet(t, 2));
  }
  live::WindowedEstimator estimator(tiling_config(10.0, 2.0));
  const auto estimator_reports = testsupport::collect(estimator);
  push_all(estimator, packets, 1);
  ASSERT_EQ(estimator.open_windows(), 3u);
  // Flow 2 in each of the three windows; without expiry the idle flows
  // would add three more (flow 1 in window 0, flow 3 in windows 0 and 1).
  EXPECT_EQ(estimator.active_flows(), 3u);
  estimator.finish();
  const auto reports = estimator_reports->take();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].inputs.flows, 3u);  // expired flows are not lost
  EXPECT_EQ(reports[1].inputs.flows, 2u);
  EXPECT_EQ(reports[2].inputs.flows, 1u);
}

TEST(LiveEdgeCases, ForecasterNeedsHistory) {
  live::RollingForecaster forecaster(8, 64, 3.0);
  EXPECT_FALSE(forecaster.forecast().has_value());
  forecaster.observe(1e6);
  forecaster.observe(2e6);
  forecaster.observe(1.5e6);
  EXPECT_FALSE(forecaster.forecast().has_value());  // 3 < 4 samples
  forecaster.observe(1.8e6);
  const auto f = forecaster.forecast();
  ASSERT_TRUE(f.has_value());
  // 4 samples cap the order at history/2 = 2, well under max_order.
  EXPECT_GE(f->order, 1u);
  EXPECT_LE(f->order, 2u);
  EXPECT_LE(f->band_low_bps, f->predicted_mean_bps);
  EXPECT_GE(f->band_high_bps, f->predicted_mean_bps);
}

TEST(LiveEdgeCases, PredictorThrowsOnShortHistory) {
  // The raw predictor contract the forecaster must never trip over: history
  // shorter than the lag order throws.
  const std::vector<double> series{1.0, 2.0, 1.5, 1.8, 2.1, 1.9};
  const auto acf = stats::autocorrelation_series(series, 4);
  const predict::MovingAveragePredictor predictor(acf, 4, 1.7);
  const std::vector<double> short_history{1.0, 2.0};
  EXPECT_THROW((void)predictor.predict(short_history),
               std::invalid_argument);
}

TEST(LiveEdgeCases, ConstantHistoryForecastsItsMean) {
  live::RollingForecaster forecaster(4, 16, 3.0);
  for (int i = 0; i < 8; ++i) forecaster.observe(5e6);
  const auto f = forecaster.forecast();
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->predicted_mean_bps, 5e6);
  EXPECT_DOUBLE_EQ(f->sigma_bps, 0.0);
}

TEST(LiveEdgeCases, WarmupWindowsCarryNoForecast) {
  // First windows have no forecast and therefore can never alert.
  const auto reports =
      run(tiling_config(5.0), {packet(0.1, 1), packet(0.2, 1)});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].forecast.available);
  EXPECT_FALSE(reports[0].anomaly.alert);
}

TEST(LiveEdgeCases, PushWithoutSinkThrows) {
  // Windows leave through a sink only: an estimator without one refuses
  // its first push and names the setter.
  live::WindowedEstimator estimator(tiling_config(5.0));
  try {
    push_one(estimator, packet(1.0, 1));
    FAIL() << "push without a sink did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("set_window_sink"),
              std::string::npos)
        << e.what();
  }
}

TEST(LiveEdgeCases, RejectsBadStreams) {
  live::WindowedEstimator estimator(tiling_config(5.0));
  (void)testsupport::collect(estimator);
  net::PacketRecord negative = packet(1.0, 1);
  negative.timestamp = -0.5;
  EXPECT_THROW(push_one(estimator, negative), std::invalid_argument);

  push_one(estimator, packet(2.0, 1));
  EXPECT_THROW(push_one(estimator, packet(1.0, 1)), std::invalid_argument);

  estimator.finish();
  EXPECT_THROW(push_one(estimator, packet(3.0, 1)), std::logic_error);
}

TEST(LiveEdgeCases, RejectsBadConfig) {
  live::LiveConfig config;
  config.window_s = 0.0;
  EXPECT_THROW(live::WindowedEstimator{config}, std::invalid_argument);
  config.window_s = 5.0;
  config.forecast_history = 2;
  EXPECT_THROW(live::WindowedEstimator{config}, std::invalid_argument);
  config.forecast_history = 64;
  // NaN passed a `stride_s < 0` test and then fell back to the window, so
  // its checkpoint could never be restored (NaN != NaN in the meta check).
  config.stride_s = std::nan("");
  EXPECT_THROW(live::WindowedEstimator{config}, std::invalid_argument);
  config.stride_s = 0.0;
  config.analysis.delta_s(std::numeric_limits<double>::infinity());
  EXPECT_THROW(live::WindowedEstimator{config}, std::invalid_argument);
  config.analysis.delta_s(std::nan(""));
  EXPECT_THROW(live::WindowedEstimator{config}, std::invalid_argument);
  // Finite but past the bin cap: refused when the first window opens,
  // instead of a NaN mean in the report.
  config.analysis.delta_s(1e-300);
  live::WindowedEstimator tiny(config);
  (void)testsupport::collect(tiny);
  EXPECT_THROW(push_one(tiny, packet(0.5, 9)), std::invalid_argument);
}

TEST(LiveEdgeCases, SinkStreamsInsteadOfQueueing) {
  live::WindowedEstimator estimator(tiling_config(1.0));
  std::vector<std::size_t> seen;
  estimator.set_window_sink(
      [&](live::WindowReport&& r) { seen.push_back(r.window_index); });
  for (double t = 0.05; t < 4.0; t += 0.1) {
    push_one(estimator, packet(t, 9));
  }
  estimator.finish();
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(LiveEdgeCases, SpikeRaisesAlert) {
  // Steady 2-packet flows per window, then a 20x burst: the rolling band
  // must flag the burst window as a spike.
  live::LiveConfig config = tiling_config(1.0);
  config.band_k_sigma = 3.0;
  std::vector<net::PacketRecord> packets;
  for (int w = 0; w < 12; ++w) {
    const double t0 = w + 0.1;
    const auto port = static_cast<std::uint16_t>(100 + w);
    const std::uint32_t bytes = w == 11 ? 20000 : 1000;
    packets.push_back(packet(t0, port, bytes));
    packets.push_back(packet(t0 + 0.5, port, bytes));
  }
  const auto reports = run(config, packets);
  ASSERT_EQ(reports.size(), 12u);
  EXPECT_TRUE(reports[11].anomaly.alert);
  EXPECT_EQ(reports[11].anomaly.kind, live::AlertKind::spike);
  for (std::size_t i = 6; i < 11; ++i) {
    EXPECT_FALSE(reports[i].anomaly.alert) << i;
  }
}

TEST(LiveEdgeCases, ReusedClassifierStartsLikeAFreshOne) {
  // Per 2 s window: a 3-packet flow, a single packet, a flow whose second
  // packet comes after the 1 s timeout (a discard mid-window), a 2-packet
  // flow completed by the timeout mid-window, and one flow through all
  // windows.
  std::vector<net::PacketRecord> packets;
  for (int w = 0; w < 4; ++w) {
    const double base = 2.0 * w;
    const auto port = static_cast<std::uint16_t>(100 + 10 * w);
    for (const double dt : {0.1, 0.2, 0.3}) {
      packets.push_back(packet(base + dt, port));
    }
    packets.push_back(packet(base + 0.15, port + 1));
    packets.push_back(packet(base + 0.05, port + 2));
    packets.push_back(packet(base + 1.2, port + 2));
    for (const double dt : {0.05, 0.1, 1.25}) {
      packets.push_back(packet(base + dt, port + 3, 500));
    }
  }
  for (double t = 0.0; t < 8.0; t += 0.25) packets.push_back(packet(t, 7));
  std::stable_sort(packets.begin(), packets.end(),
                   [](const auto& a, const auto& b) {
                     return a.timestamp < b.timestamp;
                   });

  // Cut inside window 3 [6, 8). The whole stream opens window 3 on the
  // classifier windows 0-2 used; its tail alone opens it on a fresh one.
  const double cut = 7.3;
  std::vector<net::PacketRecord> whole;
  std::vector<net::PacketRecord> tail;
  for (const auto& p : packets) {
    if (p.timestamp >= cut) continue;
    whole.push_back(p);
    if (p.timestamp >= 6.0) tail.push_back(p);
  }
  const auto window3 = [](const std::vector<net::PacketRecord>& stream) {
    live::WindowedEstimator estimator(tiling_config(2.0));
    (void)testsupport::collect(estimator);
    push_all(estimator, stream, 4);
    live::EstimatorState st = estimator.save_state();
    EXPECT_EQ(st.next_close, 3);
    EXPECT_EQ(st.open.size(), 1u);
    EXPECT_TRUE(st.open.front().has_value());
    return std::move(*st.open.front());
  };
  const auto reused = window3(whole);
  const auto fresh = window3(tail);

  const flow::ClassifierCounters& r = reused.classifier.counters;
  const flow::ClassifierCounters& f = fresh.classifier.counters;
  EXPECT_EQ(r.packets, tail.size());
  EXPECT_EQ(r.packets, f.packets);
  EXPECT_EQ(r.flows_emitted, 1u);
  EXPECT_EQ(r.flows_emitted, f.flows_emitted);
  EXPECT_EQ(r.single_packet_discards, 1u);
  EXPECT_EQ(r.single_packet_discards, f.single_packet_discards);
  EXPECT_EQ(r.boundary_splits, f.boundary_splits);
  EXPECT_EQ(reused.classifier.last_ts, fresh.classifier.last_ts);

  // The same active flows, whatever order each table lists them in.
  const auto active = [](const api::ClassifierState& st) {
    std::vector<std::tuple<std::uint16_t, double, double, std::uint64_t>> v;
    for (const auto& a : st.active) {
      v.emplace_back(a.key.src_port, a.record.start, a.record.end,
                     a.record.packets);
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(active(reused.classifier), active(fresh.classifier));
  EXPECT_EQ(reused.classifier.active.size(), 5u);
  EXPECT_EQ(reused.window.packets, fresh.window.packets);
  EXPECT_EQ(reused.window.discards, fresh.window.discards);
}

}  // namespace
}  // namespace fbm
