#include "core/stream.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tmprof::core {

StreamTransport::StreamTransport(const StreamConfig& config,
                                 std::uint32_t cores)
    : config_(config) {
  TMPROF_EXPECTS(cores >= 1);
  rings_.reserve(cores);
  for (std::uint32_t lane = 0; lane < cores; ++lane) {
    rings_.push_back(std::make_unique<Ring>(config_.ring_capacity));
  }
}

std::uint64_t StreamTransport::drops_total() const noexcept {
  std::uint64_t total = carried_drops_;
  for (const auto& ring : rings_) total += ring->drops();
  return total;
}

std::uint64_t StreamTransport::high_water() const noexcept {
  std::uint64_t deepest = 0;
  for (const auto& ring : rings_) {
    deepest = std::max(deepest, ring->high_water());
  }
  return deepest;
}

void StreamTransport::reset_high_water() noexcept {
  for (auto& ring : rings_) ring->reset_high_water();
}

}  // namespace tmprof::core
