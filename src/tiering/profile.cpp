#include "tiering/profile.hpp"

#include <unordered_set>
#include <utility>

#include "util/assert.hpp"

namespace tmprof::tiering {

DetectedPages reduce_detections(std::span<const EpochFrames> epochs,
                                std::size_t rates) {
  DetectedPages out;
  out.trace.resize(rates);
  std::vector<std::unordered_set<mem::Pfn>> both(rates);
  std::unordered_set<mem::Pfn> abit_now;
  for (const EpochFrames& epoch : epochs) {
    TMPROF_EXPECTS(epoch.trace.size() == rates);
    abit_now.clear();
    for (const mem::Pfn pfn : epoch.abit) {
      ++out.abit[pfn];
      abit_now.insert(pfn);
    }
    for (std::size_t r = 0; r < rates; ++r) {
      for (const mem::Pfn pfn : epoch.trace[r]) {
        ++out.trace[r][pfn];
        if (abit_now.contains(pfn)) both[r].insert(pfn);
      }
    }
  }
  for (const auto& frames : both) out.both.push_back(frames.size());
  return out;
}

DetectedPages detect_pages(sim::System& system,
                           std::span<const monitors::IbsConfig> rates,
                           std::uint64_t seed, std::uint32_t epochs,
                           std::uint64_t ops_per_epoch) {
  std::vector<EpochFrames> frames(epochs);
  for (EpochFrames& epoch : frames) epoch.trace.resize(rates.size());
  profile_pass(
      system, rates, seed, epochs, ops_per_epoch,
      [&](std::size_t r, std::uint32_t e, const monitors::TraceSample& s) {
        frames[e].trace[r].push_back(mem::pfn_of(s.paddr));
      },
      [&](std::uint32_t e, const monitors::AbitSample& s) {
        frames[e].abit.push_back(s.pfn);
      });
  return reduce_detections(frames, rates.size());
}

AccessHeatmap trace_heatmap(sim::System& system,
                            const monitors::IbsConfig& rate,
                            std::uint64_t seed, std::uint64_t ops,
                            std::size_t time_bins, std::size_t addr_bins) {
  std::vector<std::pair<util::SimNs, mem::PhysAddr>> samples;
  profile_pass(
      system, std::span(&rate, 1), seed, 1, ops,
      [&](std::size_t, std::uint32_t, const monitors::TraceSample& s) {
        samples.emplace_back(s.time, s.paddr);
      },
      [](std::uint32_t, const monitors::AbitSample&) {});
  AccessHeatmap out{
      util::Heatmap(system.now() + 1, time_bins,
                    system.phys().total_frames() << mem::kPageShift,
                    addr_bins),
      samples.size()};
  for (const auto& [time, paddr] : samples) out.grid.add(time, paddr);
  return out;
}

AccessHeatmap abit_heatmap(sim::System& system, std::uint32_t epochs,
                           std::uint64_t ops_per_epoch,
                           std::size_t addr_bins) {
  AccessHeatmap out{
      util::Heatmap(epochs, epochs,
                    system.phys().total_frames() << mem::kPageShift,
                    addr_bins),
      0};
  profile_pass(
      system, {}, 0, epochs, ops_per_epoch,
      [](std::size_t, std::uint32_t, const monitors::TraceSample&) {},
      [&](std::uint32_t e, const monitors::AbitSample& s) {
        out.grid.add(e, s.pfn << mem::kPageShift, mem::pages_in(s.size));
        ++out.observations;
      });
  return out;
}

}  // namespace tmprof::tiering
