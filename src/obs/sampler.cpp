#include "obs/sampler.h"

#include "obs/json_writer.h"
#include "util/check.h"

namespace armada::obs {

void Sampler::schedule(sim::Simulator& sim, sim::Time start,
                       sim::Time horizon, sim::Time interval) {
  ARMADA_CHECK(interval > 0.0);
  // Multiply instead of accumulating so tick instants are exact for
  // power-of-two intervals and drift-free otherwise.
  for (std::uint64_t k = 0;; ++k) {
    const sim::Time t = start + static_cast<double>(k) * interval;
    if (t > horizon) {
      break;
    }
    sim.schedule_at(t, [this, t] { tick(t); });
  }
}

void Sampler::tick(sim::Time now) {
  if (collect_) {
    collect_(registry_);
  }
  Sample s;
  s.t = now;
  registry_.visit([&s](const std::string& name, double value) {
    s.values.emplace_back(name, value);
  });
  samples_.push_back(std::move(s));
}

std::string Sampler::jsonl(std::string_view series) const {
  std::string out;
  for (const Sample& s : samples_) {
    JsonWriter values;
    for (const auto& [name, v] : s.values) {
      values.field(name, v);
    }
    JsonWriter w;
    w.field("schema", kJsonSchemaVersion);
    w.field("kind", "sample");
    w.field("series", series);
    w.field("t", s.t);
    w.field_raw("values", values.str());
    out += w.str();
    out += '\n';
  }
  return out;
}

}  // namespace armada::obs
