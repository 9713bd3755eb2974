#include "core/hotness.hpp"

#include <stdexcept>

namespace tmprof::core {

HotnessMode parse_hotness_mode(const std::string& name) {
  if (name == "exact") return HotnessMode::Exact;
  if (name == "sketch") return HotnessMode::Sketch;
  throw std::invalid_argument("unknown hotness mode: " + name);
}

}  // namespace tmprof::core
