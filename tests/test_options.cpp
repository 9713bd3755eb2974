#include "tiering/options.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tiering/epoch.hpp"
#include "tiering/runner.hpp"
#include "workloads/registry.hpp"

namespace tmprof::tiering {
namespace {

namespace fs = std::filesystem;

/// Expects `check` to throw a ConfigError for `field` whose message holds
/// `detail`.
template <typename Check>
void expect_rejected(Check check, std::string_view field,
                     const std::string& detail) {
  try {
    check();
    FAIL() << "expected ConfigError for " << field;
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), field);
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(std::string(field) + " (", 0), 0U) << msg;
    EXPECT_NE(msg.find(detail), std::string::npos) << msg;
  }
}

void expect_sim_rejected(const sim::SimConfig& sim, const std::string& detail) {
  expect_rejected([&] { check_options(sim, core::DaemonConfig{}); },
                  "sim.tiers", detail);
}

void expect_daemon_rejected(const core::DaemonConfig& daemon,
                            std::string_view field,
                            const std::string& detail) {
  sim::SimConfig sharded;
  sharded.sharded_engine = true;
  expect_rejected([&] { check_options(sharded, daemon); }, field, detail);
}

sim::SimConfig chain(std::vector<mem::TierSpec> tiers) {
  sim::SimConfig cfg;
  cfg.tiers = std::move(tiers);
  return cfg;
}

TEST(CheckOptions, DefaultsAreValid) {
  EXPECT_NO_THROW(check_options(sim::SimConfig{}, core::DaemonConfig{}));
  EXPECT_NO_THROW(check_options(sim::SimConfig{}, RunnerOptions{}, 0));
  EXPECT_NO_THROW(check_options(
      chain({{"dram", 8, 80, 80, 0}, {"cxl", 8, 150, 200, 0},
             {"nvm", 8, 150, 600, 0}}),
      core::DaemonConfig{}));
}

TEST(CheckOptions, ChainHasTwoToMaxTiers) {
  expect_sim_rejected(chain({{"solo", 8, 80, 80, 0}}), "got 1 tiers");
  std::vector<mem::TierSpec> nine(mem::kMaxTiers + 1,
                                  mem::TierSpec{"t", 8, 80, 80, 0});
  expect_sim_rejected(chain(nine), "got 9 tiers");
}

TEST(CheckOptions, EveryTierIsNamed) {
  expect_sim_rejected(chain({{"dram", 8, 80, 80, 0}, {"", 8, 300, 600, 0}}),
                      "tier 1 has no name");
}

TEST(CheckOptions, EveryTierHoldsAFrame) {
  expect_sim_rejected(chain({{"dram", 8, 80, 80, 0}, {"cxl", 0, 150, 200, 0}}),
                      "tier 'cxl' has zero frames");
  // The two-tier shorthand names its tiers itself.
  sim::SimConfig shorthand;
  shorthand.tier2_frames = 0;
  expect_sim_rejected(shorthand, "tier 'tier2-nvm' has zero frames");
}

TEST(CheckOptions, ChainIsOrderedFastestFirst) {
  expect_sim_rejected(
      chain({{"nvm", 8, 300, 600, 0}, {"dram", 8, 80, 80, 0}}),
      "'dram' (read 80 ns) is faster than 'nvm' (read 300 ns)");
}

TEST(CheckOptions, StreamRingIsAPowerOfTwo) {
  for (const std::uint32_t bad : {0U, 1U, 3U, 1000U}) {
    core::DaemonConfig daemon;
    daemon.driver.stream.ring_capacity = bad;
    expect_daemon_rejected(daemon, "daemon.driver.stream.ring_capacity",
                           "got " + std::to_string(bad));
  }
}

TEST(CheckOptions, StreamingNeedsTheShardedEngine) {
  core::DaemonConfig daemon;
  daemon.driver.stream.enabled = true;
  expect_rejected([&] { check_options(sim::SimConfig{}, daemon); },
                  "daemon.driver.stream.enabled", "sharded engine");
  // The runner's form reads the engine from n_threads.
  RunnerOptions options;
  options.daemon = daemon;
  expect_rejected([&] { check_options(sim::SimConfig{}, options, 1); },
                  "daemon.driver.stream.enabled", "sharded engine");
  options.n_threads = 1;
  EXPECT_NO_THROW(check_options(sim::SimConfig{}, options, 1));
}

TEST(CheckOptions, DevMonHasASlot) {
  core::DaemonConfig daemon;
  daemon.driver.devmon.slots = 0;
  expect_daemon_rejected(daemon, "daemon.driver.devmon.slots", "got 0");
}

TEST(CheckOptions, DevMonReportFitsTheSlots) {
  core::DaemonConfig daemon;
  daemon.driver.devmon.slots = 64;
  daemon.driver.devmon.top_k = 65;
  expect_daemon_rejected(daemon, "daemon.driver.devmon.top_k",
                         "got 65 of 64 slots");
  daemon.driver.devmon.top_k = 0;
  expect_daemon_rejected(daemon, "daemon.driver.devmon.top_k",
                         "got 0 of 64 slots");
}

TEST(CheckOptions, CooldownWindowIsAtLeastOneEpoch) {
  RunnerOptions options;
  options.mover.admission.cooldown_epochs = 0;
  expect_rejected([&] { check_options(sim::SimConfig{}, options, 1); },
                  "mover.admission.cooldown_epochs", "got 0, the cap is 64");
}

TEST(CheckOptions, CooldownWindowIsAtMostTheCap) {
  RunnerOptions options;
  options.mover.admission.cooldown_epochs = kMaxCooldownEpochs;
  EXPECT_NO_THROW(check_options(sim::SimConfig{}, options, 1));
  options.mover.admission.cooldown_epochs = kMaxCooldownEpochs + 1;
  expect_rejected([&] { check_options(sim::SimConfig{}, options, 1); },
                  "mover.admission.cooldown_epochs",
                  "got 65, the cap is 64");
}

TEST(CheckOptions, MinHistoryLiesInTheWindow) {
  RunnerOptions options;
  for (std::uint32_t ok = 1; ok <= kHistoryEpochs; ++ok) {
    options.mover.admission.min_history = ok;
    EXPECT_NO_THROW(check_options(sim::SimConfig{}, options, 1)) << ok;
  }
  // Checked whether admission is on or off.
  for (const AdmissionMode mode :
       {AdmissionMode::Off, AdmissionMode::Static, AdmissionMode::Adaptive}) {
    options.mover.admission.mode = mode;
    for (const std::uint32_t bad : {0U, kHistoryEpochs + 1, 9U}) {
      options.mover.admission.min_history = bad;
      expect_rejected([&] { check_options(sim::SimConfig{}, options, 1); },
                      "mover.admission.min_history",
                      "got " + std::to_string(bad) + ", the window is 4");
    }
  }
}

TEST(CheckOptions, NoMoreTenantsThanProcesses) {
  RunnerOptions options;
  options.tenants.resize(3);
  expect_rejected([&] { check_options(sim::SimConfig{}, options, 2); },
                  "tenants", "3 tenants, 2 processes");
  EXPECT_NO_THROW(check_options(sim::SimConfig{}, options, 3));
}

TEST(CheckOptions, ThreadCountHasACeiling) {
  CollectOptions collect;
  collect.n_threads = kMaxThreads;
  EXPECT_NO_THROW(check_options(sim::SimConfig{}, collect));
  collect.n_threads = kMaxThreads + 1;
  expect_rejected([&] { check_options(sim::SimConfig{}, collect); },
                  "n_threads", "got 65, tiering::kMaxThreads is 64");
  RunnerOptions options;
  options.n_threads = 4294967295U;
  expect_rejected([&] { check_options(sim::SimConfig{}, options, 1); },
                  "n_threads", "got 4294967295");
  // Both drivers reject it on entry. Only just above the ceiling, so that
  // a broken check would start few threads.
  const auto spec = workloads::find_spec("gups", 0.05);
  expect_rejected(
      [&] { (void)collect_series(spec, sim::SimConfig{}, collect); },
      "n_threads", "got 65");
  options.n_threads = kMaxThreads + 1;
  expect_rejected(
      [&] { (void)EndToEndRunner::run(spec, sim::SimConfig{}, options); },
      "n_threads", "got 65");
}

/// The rows of DESIGN.md's "Run-configuration rules" table.
std::vector<std::vector<std::string>> documented_rules() {
  std::ifstream in(std::string(TMPROF_SOURCE_DIR) + "/DESIGN.md");
  EXPECT_TRUE(in) << "DESIGN.md not found";
  std::vector<std::vector<std::string>> rows;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line.find("Run-configuration rules") != std::string::npos;
      continue;
    }
    if (!in_section || line.rfind("| ", 0) != 0) continue;
    std::vector<std::string> cells;
    for (std::size_t at = 1; at < line.size();) {
      const std::size_t bar = line.find('|', at);
      std::string cell = line.substr(at, bar - at);
      cell = cell.substr(1, cell.size() - 2);  // the padding spaces
      if (cell.size() >= 2 && cell.front() == '`' && cell.back() == '`') {
        cell = cell.substr(1, cell.size() - 2);
      }
      cells.push_back(cell);
      at = bar + 1;
    }
    if (cells.front() != "Rule") rows.push_back(cells);
  }
  return rows;
}

TEST(CheckOptions, RuleTableMatchesDesignDoc) {
  std::vector<std::vector<std::string>> enforced;
  for (const OptionRule& rule : option_rules()) {
    enforced.push_back({std::string(rule.rule), std::string(rule.field),
                        std::string(rule.flag)});
  }
  EXPECT_EQ(documented_rules(), enforced);
}

/// A scratch checkpoint directory that does not exist yet.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tmprof-" + name);
  fs::remove_all(dir);
  return dir;
}

TEST(CheckOptions, RunnerRejectsBeforeBuildingTheSystem) {
  // An invalid config with resume on must not be mistaken for a rejected
  // resume: no System, no checkpoint directory, no cold-start warning.
  const fs::path dir = fresh_dir("rejected-runner");
  RunnerOptions options;
  options.checkpoint.every = 1;
  options.checkpoint.dir = dir.string();
  options.checkpoint.resume_latest = true;
  const auto spec = workloads::find_spec("gups", 0.05);
  for (const std::string_view field :
       {"mover.admission.cooldown_epochs", "mover.admission.min_history",
        "tenants"}) {
    RunnerOptions bad = options;
    if (field == "tenants") {
      bad.tenants.resize(spec.processes + 1);
    } else if (field == "mover.admission.min_history") {
      bad.mover.admission.min_history = kHistoryEpochs + 1;
    } else {
      bad.mover.admission.cooldown_epochs = 0;
    }
    ::testing::internal::CaptureStderr();
    expect_rejected(
        [&] { (void)EndToEndRunner::run(spec, sim::SimConfig{}, bad); }, field,
        "");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_FALSE(fs::exists(dir)) << field;
  }
}

TEST(CheckOptions, CollectRejectsBeforeBuildingAnything) {
  const fs::path dir = fresh_dir("rejected-collect");
  CollectOptions options;
  options.checkpoint.every = 1;
  options.checkpoint.dir = dir.string();
  options.checkpoint.resume_latest = true;
  options.daemon.driver.stream.enabled = true;  // on the serial engine
  int built = 0;
  const WorkloadFactory factory = [&built](std::uint64_t) {
    ++built;
    return std::vector<workloads::WorkloadPtr>{};
  };
  ::testing::internal::CaptureStderr();
  expect_rejected(
      [&] { (void)collect_series(factory, sim::SimConfig{}, options); },
      "daemon.driver.stream.enabled", "sharded engine");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(built, 0);
  EXPECT_FALSE(fs::exists(dir));
}

TEST(CheckOptions, EnumParsersNameTheFlagAndTheValidNames) {
  EXPECT_EQ(parse_slow_model("native"), SlowMemoryModel::Native);
  EXPECT_EQ(parse_slow_model("badgertrap"),
            SlowMemoryModel::BadgerTrapEmulation);
  EXPECT_EQ(core::parse_trace_backend("ibs"), core::TraceBackend::Ibs);
  EXPECT_EQ(core::parse_trace_backend("pebs"), core::TraceBackend::Pebs);
  const auto expect_names = [](auto parse, const std::string& bad,
                               const std::string& flag,
                               const std::vector<std::string>& names) {
    try {
      (void)parse(bad);
      FAIL() << "expected std::invalid_argument for " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind(flag + ":", 0), 0U) << msg;
      EXPECT_NE(msg.find("'" + bad + "'"), std::string::npos) << msg;
      for (const std::string& name : names) {
        EXPECT_NE(msg.find('"' + name + '"'), std::string::npos) << msg;
      }
    }
  };
  expect_names(parse_slow_model, "badgertap", "--model",
               {"native", "badgertrap"});
  expect_names(core::parse_trace_backend, "pbes", "--backend",
               {"ibs", "pebs"});
}

}  // namespace
}  // namespace tmprof::tiering
