#pragma once
/// \file thermostat.hpp
/// Thermostat-style hot/cold classifier (Agarwal & Wenisch, ASPLOS'17 —
/// discussed in the paper's Related Work). Thermostat estimates per-page
/// access rates by BadgerTrap-poisoning a small random *sample* of pages
/// and counting their TLB-miss faults over an interval; sampled rates are
/// extrapolated to classify all pages against a hot threshold.
///
/// The paper notes the approach "assumes that the number of TLB misses and
/// the number of cache misses to a page are similar, which may not hold
/// for hot pages" — this classifier exists so that assumption can be
/// tested against TMP's dual-source profile (see bench/profiler_compare).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/ranking.hpp"
#include "monitors/badgertrap.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"

namespace tmprof::core {

/// Faults per interval at which a *sampled* page counts as hot.
inline constexpr std::uint32_t kThermostatHotThresholdFaults = 2;
/// Fault handler cost (pure accounting; no slow-memory emulation).
inline constexpr util::SimNs kThermostatFaultCostNs = 1 * util::kMicrosecond;

struct ThermostatConfig {
  /// Fraction of each process's pages poisoned per interval.
  double sample_fraction = 0.05;
};

/// Interval-based sampling classifier.
class ThermostatClassifier {
 public:
  ThermostatClassifier(sim::System& system, const ThermostatConfig& config,
                       std::uint64_t seed = 0x7e4);
  ThermostatClassifier(const ThermostatClassifier&) = delete;
  ThermostatClassifier& operator=(const ThermostatClassifier&) = delete;
  ~ThermostatClassifier();

  /// Pick and poison a fresh random sample of pages (one per interval).
  /// Returns the number of pages sampled.
  std::uint64_t begin_interval();

  /// Re-arm fault delivery for the current sample (flushes cached
  /// translations). Thermostat polls this several times per interval:
  /// without it a hot page faults once, becomes TLB-resident, and then
  /// looks exactly as cold as a one-touch page — the TLB-miss ≈
  /// access-count assumption the paper warns about.
  void refresh();

  /// Close the interval: un-poison the sample and return the observations.
  /// Sampled pages report their fault counts; `hot_pages` receives the
  /// pages whose count met the threshold.
  [[nodiscard]] EpochObservation end_interval();

  [[nodiscard]] const std::vector<PageKey>& hot_pages() const noexcept {
    return hot_pages_;
  }
  [[nodiscard]] std::uint64_t faults_taken() const noexcept {
    return trap_.total_faults();
  }

 private:
  sim::System& system_;
  ThermostatConfig config_;
  monitors::BadgerTrap trap_;
  util::Rng rng_;
  std::vector<PageKey> sampled_;
  std::vector<PageKey> hot_pages_;
  std::uint32_t epoch_ = 0;
};

}  // namespace tmprof::core
