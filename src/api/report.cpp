#include "api/report.hpp"

#include <utility>

#include "core/json_writer.hpp"

namespace fbm::api {

namespace {

void write_report(core::JsonWriter& w, const AnalysisReport& r) {
  w.field("interval_index", static_cast<std::uint64_t>(r.interval_index));
  w.field("start_s", r.start_s);
  w.field("length_s", r.length_s);

  w.begin_object("inputs");
  w.field("flows", static_cast<std::uint64_t>(r.inputs.flows));
  w.field("lambda_per_s", r.inputs.lambda);
  w.field("mean_size_bits", r.inputs.mean_size_bits);
  w.field("mean_s2_over_d_bits2_per_s", r.inputs.mean_s2_over_d);
  w.end_object();

  w.begin_object("measured");
  w.field("samples", static_cast<std::uint64_t>(r.measured.samples));
  w.field("mean_bps", r.measured.mean_bps);
  w.field("variance_bps2", r.measured.variance_bps2);
  w.field("cov", r.measured.cov);
  w.end_object();

  w.begin_object("model");
  if (r.shot_b) {
    w.field("shot_b_fitted", *r.shot_b);
  } else {
    w.null_field("shot_b_fitted");
  }
  w.field("shot_b_used", r.shot_b_used);
  w.field("mean_bps", r.plan.mean_bps);
  w.field("stddev_bps", r.plan.stddev_bps);
  w.field("cov", r.model_cov);
  w.end_object();

  w.begin_object("provisioning");
  w.field("eps", r.plan.eps);
  w.field("capacity_bps", r.plan.capacity_bps);
  w.field("headroom", r.plan.headroom);
  w.end_object();
}

}  // namespace

std::string to_json(const AnalysisReport& report, int indent) {
  core::JsonWriter w(core::JsonWriter::Style::pretty, indent);
  w.begin_object();
  write_report(w, report);
  w.end_object();
  return std::move(w).str();
}

std::string to_json(const trace::TraceSummary& summary,
                    std::span<const AnalysisReport> reports) {
  core::JsonWriter w(core::JsonWriter::Style::pretty, 0);
  w.begin_object();
  w.begin_object("trace");
  w.field("packets", summary.packets);
  w.field("total_bytes", summary.total_bytes);
  w.field("duration_s", summary.duration_s());
  w.field("mean_rate_bps", summary.mean_rate_bps());
  w.end_object();
  w.begin_array("intervals");
  for (const auto& report : reports) {
    w.raw_element(to_json(report, 4));
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace fbm::api
