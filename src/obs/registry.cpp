#include "obs/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace fbm::obs {

std::string MetricMeta::key() const {
  std::string out = name;
  if (!labels.empty()) {
    out += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out += ',';
      first = false;
      out += k;
      out += "=\"";
      out += v;
      out += '"';
    }
    out += '}';
  }
  return out;
}

const MetricValue* Snapshot::find(const std::string& key) const {
  for (const auto& m : metrics) {
    if (m.meta.key() == key) return &m;
  }
  return nullptr;
}

Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot out = after;
  for (auto& m : out.metrics) {
    const MetricValue* prev = before.find(m.meta.key());
    if (prev == nullptr || prev->type != m.type) continue;
    switch (m.type) {
      case MetricType::counter:
        m.counter -= std::min(m.counter, prev->counter);
        break;
      case MetricType::gauge:
        break;  // gauges are point-in-time; keep `after`
      case MetricType::histogram: {
        if (prev->hist.bounds == m.hist.bounds &&
            prev->hist.counts.size() == m.hist.counts.size()) {
          for (std::size_t i = 0; i < m.hist.counts.size(); ++i) {
            m.hist.counts[i] -= std::min(m.hist.counts[i],
                                         prev->hist.counts[i]);
          }
          m.hist.count -= std::min(m.hist.count, prev->hist.count);
          m.hist.sum -= prev->hist.sum;
        }
        break;
      }
    }
  }
  return out;
}

Registry::Entry& Registry::resolve(MetricMeta&& meta, MetricType type) {
  const std::string key = meta.key();
  std::lock_guard lock(mu_);
  for (auto& e : entries_) {
    if (e->meta.key() == key) {
      if (e->type != type) {
        throw std::logic_error("obs::Registry: metric '" + key +
                               "' re-registered with a different type");
      }
      return *e;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->meta = std::move(meta);
  entry->type = type;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(MetricMeta meta) {
  Entry& e = resolve(std::move(meta), MetricType::counter);
  std::lock_guard lock(mu_);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(MetricMeta meta) {
  Entry& e = resolve(std::move(meta), MetricType::gauge);
  std::lock_guard lock(mu_);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(MetricMeta meta, std::vector<double> bounds) {
  Entry& e = resolve(std::move(meta), MetricType::histogram);
  std::lock_guard lock(mu_);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  {
    std::lock_guard lock(mu_);
    out.metrics.reserve(entries_.size());
    for (const auto& e : entries_) {
      MetricValue v;
      v.meta = e->meta;
      v.type = e->type;
      switch (e->type) {
        case MetricType::counter:
          v.counter = e->counter ? e->counter->value() : 0;
          break;
        case MetricType::gauge:
          v.gauge = e->gauge ? e->gauge->value() : 0.0;
          break;
        case MetricType::histogram:
          if (e->histogram) {
            v.hist.bounds = e->histogram->bounds();
            v.hist.counts = e->histogram->counts();
            v.hist.count = e->histogram->count();
            v.hist.sum = e->histogram->sum();
          }
          break;
      }
      out.metrics.push_back(std::move(v));
    }
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.meta.key() < b.meta.key();
            });
  return out;
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed: sites cache
  return *instance;                            // references past static dtors
}

}  // namespace fbm::obs
