#include "obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <string_view>

#include "core/json_writer.hpp"

namespace fbm::obs {

namespace {

/// Prometheus label-value / HELP escaping: backslash, quote, newline.
std::string prom_escape(std::string_view s, bool quote_too) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '"' && quote_too) {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prom_labels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const char* extra_key = nullptr, const std::string& extra_val = {}) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += prom_escape(v, /*quote_too=*/true);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += prom_escape(extra_val, /*quote_too=*/true);
    out += '"';
  }
  out += '}';
  return out;
}

/// Prometheus sample value for a double (exposition format accepts the
/// shortest round-trip decimal; non-finite values render as Go-style
/// tokens, not JSON null).
std::string prom_number(double v) {
  if (v != v) return "NaN";
  if (v == std::numeric_limits<double>::infinity()) return "+Inf";
  if (v == -std::numeric_limits<double>::infinity()) return "-Inf";
  return core::json_number(v);
}

void jsonl_metric(core::JsonWriter& w, const MetricValue& m) {
  w.begin_object();
  w.field("name", std::string_view(m.meta.name));
  w.field("type", std::string_view(type_name(m.type)));
  w.field("unit", std::string_view(m.meta.unit));
  w.field("stage", std::string_view(m.meta.stage));
  w.begin_object("labels");
  for (const auto& [k, v] : m.meta.labels) {
    w.field(std::string_view(k), std::string_view(v));
  }
  w.end_object();
  switch (m.type) {
    case MetricType::counter:
      w.field("value", m.counter);
      break;
    case MetricType::gauge:
      w.field("value", m.gauge);
      break;
    case MetricType::histogram: {
      w.begin_array("bounds");
      for (double b : m.hist.bounds) w.raw_element(core::json_number(b));
      w.end_array();
      w.begin_array("counts");
      for (std::uint64_t c : m.hist.counts) {
        w.raw_element(std::to_string(c));
      }
      w.end_array();
      w.field("count", m.hist.count);
      w.field("sum", m.hist.sum);
      break;
    }
  }
  w.end_object();
}

}  // namespace

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::counter:
      return "counter";
    case MetricType::gauge:
      return "gauge";
    case MetricType::histogram:
      return "histogram";
  }
  return "counter";
}

std::string to_jsonl(const Snapshot& snap, std::uint64_t seq,
                     double uptime_s) {
  core::JsonWriter w(core::JsonWriter::Style::compact);
  w.begin_object();
  w.field("schema", std::string_view(kMetricsSchema));
  w.field("seq", seq);
  w.field("uptime_s", uptime_s);
  w.raw_field("metrics", to_json_metrics(snap));
  w.end_object();
  return std::move(w).str();
}

std::string to_json_metrics(const Snapshot& snap) {
  core::JsonWriter w(core::JsonWriter::Style::compact);
  w.begin_array();
  for (const auto& m : snap.metrics) jsonl_metric(w, m);
  w.end_array();
  return std::move(w).str();
}

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  std::string last_name;  // HELP/TYPE once per family, series stay adjacent
  for (const auto& m : snap.metrics) {
    if (m.meta.name != last_name) {
      last_name = m.meta.name;
      out += "# HELP " + m.meta.name + ' ' +
             prom_escape(m.meta.help, /*quote_too=*/false) + '\n';
      out += "# TYPE " + m.meta.name + ' ' + type_name(m.type) + '\n';
    }
    const std::string labels = prom_labels(m.meta.labels);
    switch (m.type) {
      case MetricType::counter:
        out += m.meta.name + labels + ' ' + std::to_string(m.counter) + '\n';
        break;
      case MetricType::gauge:
        out += m.meta.name + labels + ' ' + prom_number(m.gauge) + '\n';
        break;
      case MetricType::histogram: {
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m.hist.counts.size(); ++i) {
          cum += m.hist.counts[i];
          const std::string le = i < m.hist.bounds.size()
                                     ? prom_number(m.hist.bounds[i])
                                     : std::string("+Inf");
          out += m.meta.name + "_bucket" +
                 prom_labels(m.meta.labels, "le", le) + ' ' +
                 std::to_string(cum) + '\n';
        }
        out += m.meta.name + "_sum" + labels + ' ' + prom_number(m.hist.sum) +
               '\n';
        out += m.meta.name + "_count" + labels + ' ' +
               std::to_string(m.hist.count) + '\n';
        break;
      }
    }
  }
  return out;
}

bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* err) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (err != nullptr) *err = "cannot open " + tmp;
      return false;
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      if (err != nullptr) *err = "write failed: " + tmp;
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (err != nullptr) *err = "rename failed: " + tmp + " -> " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace fbm::obs
