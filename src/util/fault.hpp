#pragma once
/// \file fault.hpp
/// Deterministic, seeded fault injection for the robustness layer.
///
/// Real tiered-memory stacks fail constantly in small ways: `move_pages()`
/// returns -EBUSY or -ENOMEM, IBS/PEBS ring buffers overflow and drop
/// samples, A-bit walks abort when the mm is contended, and HWPC counters
/// saturate or wrap between daemon reads. The simulator reproduces those
/// failures on demand so the retry/degradation machinery can be tested —
/// without giving up bit-reproducibility.
///
/// Every decision is a *pure function* of (seed, site, key): no shared RNG
/// stream is advanced, so the fault schedule cannot depend on call order,
/// thread count, or which engine (serial or sharded) consulted the site.
/// Callers pass a key built from deterministic simulation state (epoch
/// ordinal, page identity, attempt number) via fault_key().

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::util {

/// Where a fault may be injected. Sites model specific kernel failure
/// modes; docs/ROBUSTNESS.md describes how each layer reacts.
enum class FaultSite : std::uint8_t {
  MigrationBusy = 0,  ///< move_pages() -EBUSY: transient, worth retrying
  MigrationNoMem,     ///< move_pages() -ENOMEM: destination exhausted
  TraceOverflow,      ///< IBS/PEBS ring overflow: the sample is lost
  AbitAbort,          ///< A-bit scan aborted mid-walk
  HwpcWrap,           ///< HWPC counter saturation/wrap between reads
};

inline constexpr std::size_t kFaultSiteCount = 5;

[[nodiscard]] constexpr std::string_view to_string(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::MigrationBusy: return "migration-busy";
    case FaultSite::MigrationNoMem: return "migration-nomem";
    case FaultSite::TraceOverflow: return "trace-overflow";
    case FaultSite::AbitAbort: return "abit-abort";
    case FaultSite::HwpcWrap: return "hwpc-wrap";
  }
  return "?";
}

/// Parse one site name ("migration-busy", ...). Throws std::invalid_argument
/// listing the valid names for anything else.
[[nodiscard]] FaultSite fault_site_from(std::string_view name);

/// Parse a comma-separated site list. Group aliases: "migration" expands to
/// both migration sites, "all" to every site. Throws std::invalid_argument
/// (with the offending token and the valid names) on unknown entries or an
/// empty list.
[[nodiscard]] std::vector<FaultSite> parse_fault_sites(std::string_view list);

[[nodiscard]] constexpr std::array<double, kFaultSiteCount> uniform_site_rates(
    double value) noexcept {
  std::array<double, kFaultSiteCount> rates{};
  for (double& r : rates) r = value;
  return rates;
}

/// Per-site fault probabilities. Aggregate so configs stay brace-friendly.
struct FaultConfig {
  /// Default per-consultation fault probability for every site.
  double rate = 0.0;
  /// Schedule seed — independent of the workload seed so the same run can
  /// be replayed under a different fault schedule (and vice versa).
  std::uint64_t seed = 0xfa17;
  /// Per-site override; negative = inherit `rate`.
  std::array<double, kFaultSiteCount> site_rate = uniform_site_rates(-1.0);

  [[nodiscard]] double rate_of(FaultSite site) const noexcept {
    const double r = site_rate[static_cast<std::size_t>(site)];
    return r < 0.0 ? rate : r;
  }
  [[nodiscard]] bool enabled() const noexcept {
    for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
      if (rate_of(static_cast<FaultSite>(s)) > 0.0) return true;
    }
    return false;
  }
  /// Keep only `sites` active (they inherit `rate`); all others go to 0.
  void restrict_to(const std::vector<FaultSite>& sites) noexcept {
    site_rate = uniform_site_rates(0.0);
    for (const FaultSite site : sites) {
      site_rate[static_cast<std::size_t>(site)] = -1.0;
    }
  }
};

/// Per-site consultation/injection tallies.
struct FaultStats {
  std::array<std::uint64_t, kFaultSiteCount> consulted{};
  std::array<std::uint64_t, kFaultSiteCount> injected{};

  [[nodiscard]] std::uint64_t injected_at(FaultSite site) const noexcept {
    return injected[static_cast<std::size_t>(site)];
  }
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t n : injected) total += n;
    return total;
  }
};

/// Mix up to three deterministic identifiers into one fault key.
[[nodiscard]] constexpr std::uint64_t fault_key(std::uint64_t a,
                                                std::uint64_t b = 0,
                                                std::uint64_t c = 0) noexcept {
  std::uint64_t s = a;
  std::uint64_t h = splitmix64(s);
  s ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= splitmix64(s);
  s ^= c + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= splitmix64(s);
  return h;
}

/// The injector. fire() mutates only the stats tallies; every site in the
/// stack is consulted at the epoch barrier on the driving thread, so plain
/// counters suffice. The decision itself is stateless — see file comment.
class FaultInjector {
 public:
  /// Default-constructed injector is disabled and never fires.
  constexpr FaultInjector() noexcept = default;
  explicit FaultInjector(const FaultConfig& config);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] bool enabled(FaultSite site) const noexcept {
    return enabled_ && config_.rate_of(site) > 0.0;
  }

  /// Consult the site: should this operation fail? Pure in (seed, site,
  /// key); identical across runs, call orders, and thread counts.
  bool fire(FaultSite site, std::uint64_t key) noexcept;

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  /// Checkpoint hooks: only the tallies travel — the decision function is
  /// stateless and the config comes from reconstruction.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  FaultConfig config_{};
  FaultStats stats_{};
  bool enabled_ = false;
};

}  // namespace tmprof::util
