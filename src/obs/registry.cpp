#include "obs/registry.h"

namespace armada::obs {

Registry::Instrument& Registry::touch(std::string_view name, Kind kind) {
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    it = instruments_.emplace(std::string(name), Instrument{}).first;
    it->second.kind = kind;
  }
  ARMADA_CHECK_MSG(it->second.kind == kind,
                   "instrument kind mismatch: " << it->first);
  return it->second;
}

void Registry::count(std::string_view name, double total) {
  Instrument& ins = touch(name, Kind::kCounter);
  ARMADA_CHECK_MSG(total >= ins.value, "counter moved backwards: " << name);
  ins.value = total;
}

void Registry::set(std::string_view name, double value) {
  touch(name, Kind::kGauge).value = value;
}

double Registry::value(std::string_view name) const {
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? 0.0 : it->second.value;
}

}  // namespace armada::obs
