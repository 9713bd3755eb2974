#include "core/thermostat.hpp"

#include "util/assert.hpp"

namespace tmprof::core {

ThermostatClassifier::ThermostatClassifier(sim::System& system,
                                           const ThermostatConfig& config,
                                           std::uint64_t seed)
    : system_(system), config_(config),
      trap_([] {
        monitors::BadgerTrapConfig trap_config;
        trap_config.fault_latency_ns = kThermostatFaultCostNs;
        trap_config.hot_extra_latency_ns = 0;
        trap_config.handler_cost_ns = 0;
        return trap_config;
      }()),
      rng_(seed) {
  TMPROF_EXPECTS(config.sample_fraction > 0.0 &&
                 config.sample_fraction <= 1.0);
  system_.set_badgertrap(&trap_);
}

ThermostatClassifier::~ThermostatClassifier() {
  // Disarm any open interval's sample before detaching the fault handler.
  for (const PageKey& key : sampled_) {
    if (trap_.is_poisoned(key.pid, key.page_va)) {
      sim::Process& proc = system_.process(key.pid);
      trap_.unpoison(key.pid, proc.page_table(), key.page_va);
    }
  }
  system_.set_badgertrap(nullptr);
}

std::uint64_t ThermostatClassifier::begin_interval() {
  TMPROF_EXPECTS(sampled_.empty());  // close the previous interval first
  for (sim::Process* proc : system_.processes()) {
    const mem::Pid pid = proc->pid();
    const std::uint32_t core = pid % system_.config().cores;
    proc->page_table().walk(
        [&](mem::VirtAddr page_va, mem::PageSize, mem::Pte&) {
          if (!rng_.chance(config_.sample_fraction)) return;
          trap_.poison(pid, proc->page_table(), system_.tlb(core), page_va);
          sampled_.push_back(PageKey{pid, page_va});
        });
  }
  return sampled_.size();
}

void ThermostatClassifier::refresh() {
  for (const PageKey& key : sampled_) {
    sim::Process& proc = system_.process(key.pid);
    const std::uint32_t core = key.pid % system_.config().cores;
    // Re-poisoning re-arms the page and flushes its cached translation;
    // fault counts accumulate across refreshes within the interval.
    trap_.poison(key.pid, proc.page_table(), system_.tlb(core), key.page_va);
  }
}

EpochObservation ThermostatClassifier::end_interval() {
  EpochObservation obs;
  obs.epoch = epoch_++;
  hot_pages_.clear();
  for (const PageKey& key : sampled_) {
    const auto count = static_cast<std::uint32_t>(
        trap_.fault_count(key.pid, key.page_va));
    if (count > 0) {
      // Fault-count evidence is translation-path data, like A-bit samples.
      obs.abit[key] = count;
    }
    if (count >= kThermostatHotThresholdFaults) {
      hot_pages_.push_back(key);
    }
    sim::Process& proc = system_.process(key.pid);
    if (trap_.is_poisoned(key.pid, key.page_va)) {
      trap_.unpoison(key.pid, proc.page_table(), key.page_va);
    }
  }
  sampled_.clear();
  return obs;
}

}  // namespace tmprof::core
