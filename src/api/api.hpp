// fbm::api — the library's public entry point.
//
// Single link (one pipeline per stream):
//
//   TraceSource  ──►  AnalysisPipeline  ──►  AnalysisReport
//   (packets,         (classify + measure     (model inputs, fitted shot,
//    streamed)         + fit, one pass,        Gaussian approximation,
//                      window-bounded memory)  capacity plan, JSON)
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
// AnalysisConfig::threads(N) with N > 1 runs the pipeline as N
// flow-key-hashed shards on a core::WorkerPool with a deterministic merge,
// bit-for-bit identical output (see api/pipeline.hpp).
// Engine output is likewise proven bit-for-bit equal to running each link's
// pre-filtered packets through the single-link pipeline (tests/engine/).
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
