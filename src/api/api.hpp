// fbm::api — the library's public entry point.
//
// Single link (one estimator per stream, api::analyze):
//
//   TraceSource ──► WindowedEstimator ──► WindowPartial ──► finalize_interval
//   (packets,       (classify + measure,  (exact flow     (model inputs,
//    streamed)       one pass, tiling      sums + byte     fitted shot, plan;
//                    windows of the        bins)           AnalysisReport)
//                    interval)
//
// Batch and live run the same estimator (live::WindowedEstimator); a batch
// interval is a tiling window, and only the fit and the rendering differ
// (finalize_interval here, live::fit_window_report for a live window). The
// boundary rule is causal: each window sees only its own packets, so a
// one-packet piece of a flow at a window edge is dropped as a single-packet
// flow (see api/pipeline.hpp for the paper's offline rule).
//
// Many links, one process (the documented front door for monitoring
// deployments — fbm::engine, re-exported below):
//
//                     ┌► session "transit"  (batch or live)  ─┐
//   TraceSource ──► Engine demux ─► session "peering"        ─┼─► ReportSink
//                     │  (RoutingTable LPM, 5-tuple           │   (LinkReport:
//                     │   predicates, match-all)              │    link name +
//                     └► session "tap" ───────────────────────┘    report)
//                        sessions share one worker pool;
//                        per-link config layered over a base
//
// Engine output is proven bit-for-bit equal to running each link's
// pre-filtered packets through one estimator (tests/engine/), also when
// EngineConfig::shards cuts each link into flow-key-hashed shards on the
// worker pool (see engine/engine.hpp).
//
// Typical single-link use:
//
//   auto source = fbm::api::open_trace("capture.fbmt");
//   fbm::api::AnalysisConfig config;
//   config.interval_s(1800.0).timeout_s(60.0).epsilon(0.01);
//   for (const auto& report : fbm::api::analyze(*source, config)) {
//     std::puts(fbm::api::to_json(report).c_str());
//   }
//
// Multi-link use: see engine/engine_api.hpp (or README "Multi-link
// analysis").
//
// The lower-level namespaces (flow::, measure::, core::, dimension::) stay
// available for research code that needs the pieces individually.
#pragma once

#include "api/pipeline.hpp"    // IWYU pragma: export
#include "api/report.hpp"      // IWYU pragma: export
#include "api/trace_source.hpp"  // IWYU pragma: export
#include "engine/engine_api.hpp"  // IWYU pragma: export
