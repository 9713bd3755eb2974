#pragma once
/// \file common.hpp
/// Shared configuration for the paper-reproduction benches.
///
/// The simulator reproduces the paper's testbed at ~1/64 scale: workload
/// footprints, the LLC, TLB reach and the IBS sampling period all shrink by
/// the same factor, so every capacity *ratio* that drives the paper's
/// results is preserved. See DESIGN.md §2 for the substitution table.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stream.hpp"
#include "monitors/devmon.hpp"
#include "monitors/ibs.hpp"
#include "sim/config.hpp"
#include "telemetry/telemetry.hpp"
#include "tiering/admission.hpp"
#include "tiering/policies.hpp"
#include "tiering/tenant.hpp"
#include "util/ckpt.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"
#include "workloads/registry.hpp"

namespace tmprof::bench {

/// The scaled Ryzen-3600X-like testbed.
inline sim::SimConfig testbed_config(std::uint64_t footprint_bytes) {
  sim::SimConfig cfg;
  cfg.cores = 6;
  // 32 MiB LLC / 64 scale = 512 KiB; keep 1 MiB for headroom.
  cfg.llc_bytes = 1ULL << 20;
  cfg.llc_ways = 16;
  cfg.l2_bytes = 256ULL << 10;
  // Scale the STLB so TLB reach / footprint matches the real machine:
  // L2 holds 256 4K entries (1 MiB reach) and 16 2M entries per core.
  cfg.l2_tlb = mem::TlbLevelConfig{64, 4, 4, 4};
  cfg.instruction_fetch = true;
  // Single profiling tier by default: big enough for the whole footprint.
  cfg.tier1_frames = (footprint_bytes >> mem::kPageShift) * 5 / 4 + 2048;
  cfg.tier2_frames = 2048;
  return cfg;
}

/// The paper's IBS sampling periods, scaled to the simulator. The paper's
/// default (1 tag / 262,144 uops) over a 1-second epoch on a ~4 GHz core
/// yields tens of thousands of samples per epoch — the same order as the
/// per-epoch A-bit page counts (the premise of Fig. 2). Our epochs retire
/// ~4M uops, so the period shrinks to keep that sample-to-page balance:
/// 512 uops default, /4 and /8 for the 4x and 8x rates.
inline constexpr std::uint64_t kScaledDefaultPeriod = 512;

inline monitors::IbsConfig scaled_ibs(std::uint64_t rate_multiplier) {
  return monitors::IbsConfig::with_period(kScaledDefaultPeriod /
                                          rate_multiplier);
}

/// Table IV's and Fig. 5's three rates, in order: default, 4x, 8x.
inline std::array<monitors::IbsConfig, 3> paper_rates() {
  return {scaled_ibs(1), scaled_ibs(4), scaled_ibs(8)};
}

/// --scale (default `fallback`) for a run of the `names` workloads. A scale
/// too small to build one of them is a usage error that names --scale and
/// the smallest value all of them accept, thrown before any is built.
inline double scale_from_args(const util::ArgParser& args, double fallback,
                              const std::vector<std::string>& names) {
  const double scale = args.get_double("scale", fallback);
  double needed = 0.0;
  for (const std::string& name : names) {
    needed = std::max(needed, workloads::min_scale(name));
  }
  if (!(scale > 0.0 && scale >= needed)) {
    std::ostringstream msg;
    msg << "--scale=" << args.get("scale", "");
    if (needed > 0.0) {
      // Rounded up, so the value printed is itself accepted.
      msg << " is too small to build "
          << (names.size() == 1 ? names.front() : "every workload")
          << "; the smallest accepted value is "
          << std::ceil(needed * 1e4) / 1e4;
    } else {
      msg << " must be positive";
    }
    throw std::invalid_argument(msg.str());
  }
  return scale;
}

/// Workload selection: --workload=<name> restricts to one, default all.
inline std::vector<workloads::WorkloadSpec> selected_specs(
    const util::ArgParser& args) {
  if (args.has("workload")) {
    const std::string name = args.get("workload", "");
    return {workloads::find_spec(name, scale_from_args(args, 1.0, {name}))};
  }
  return workloads::table3_specs(
      scale_from_args(args, 1.0, workloads::table3_names()));
}

/// Engine selection shared by the benches: --threads=0 (default) keeps the
/// legacy serial engine; --threads=N >= 1 switches to the deterministic
/// sharded engine with N workers (results are identical for every N >= 1).
inline std::uint32_t selected_threads(const util::ArgParser& args) {
  return args.get_u32("threads", 0);
}

/// A count flag that must be at least 1, such as a heatmap's bin or epoch
/// count: 0 is a usage error naming the flag.
inline std::uint32_t count_from_args(const util::ArgParser& args,
                                     const std::string& key,
                                     std::uint32_t fallback) {
  const std::uint32_t count = args.get_u32(key, fallback);
  if (count == 0) {
    throw std::invalid_argument("--" + key + ": the count must be at least 1");
  }
  return count;
}

/// A comma-separated list flag, --key=a,b,... (default `fallback`). Each
/// entry is read by `parse(entry, key)` from `entry`, a parser that holds
/// only --key=<that entry>, so an entry obeys the rules of the getter that
/// `parse` calls and a bad one fails with its message naming --key. Empty
/// entries are skipped; a list without one is rejected. Like every getter
/// it runs before reject_unread(), so a bad entry is rejected before the
/// bench starts a run or opens a CSV.
template <class Parse>
auto list_from_args(const util::ArgParser& args, const std::string& key,
                    const std::string& fallback, Parse parse) {
  std::vector<decltype(parse(args, key))> entries;
  std::stringstream list(args.get(key, fallback));
  std::string entry;
  while (std::getline(list, entry, ',')) {
    if (entry.empty()) continue;
    const std::string flag = "--" + key + "=" + entry;
    const char* const argv[] = {"", flag.c_str()};
    entries.push_back(parse(util::ArgParser(2, argv), key));
  }
  if (entries.empty()) {
    throw std::invalid_argument("--" + key + ": the list has no entry");
  }
  return entries;
}

/// list_from_args entry rules: a u32 (get_u32), a probability (get_rate)
/// and a policy name that tiering::make_policy resolves (one of
/// tiering::policy_names(); its error lists them).
inline std::uint32_t u32_entry(const util::ArgParser& entry,
                               const std::string& key) {
  return entry.get_u32(key, 0);
}
inline double rate_entry(const util::ArgParser& entry, const std::string& key) {
  return entry.get_rate(key, 0.0);
}
inline std::string policy_entry(const util::ArgParser& entry,
                                const std::string& key) {
  std::string name = entry.get(key, "");
  try {
    (void)tiering::make_policy(name);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("--" + key + ": " + e.what());
  }
  return name;
}

/// Streaming-transport selection shared by the benches (docs/STREAMING.md):
///   --stream=0|1        lock-free streaming sample transport (default off)
///   --stream-ring=N     per-lane ring capacity (power of two >= 2)
inline core::StreamConfig stream_from_args(const util::ArgParser& args) {
  core::StreamConfig stream;
  stream.enabled = args.get_bool("stream", false);
  stream.ring_capacity = args.get_u32("stream-ring", stream.ring_capacity);
  return stream;
}

/// Fault-schedule selection, for a bench that sweeps the rate itself:
///   --fault-seed=N      schedule seed, independent of the workload seed
///   --fault-sites=a,b   restrict to named sites (e.g. "migration,
///                       trace-overflow"); default all sites
/// Rejects unknown site names. The rate is left at 0.
inline util::FaultConfig fault_schedule_from_args(const util::ArgParser& args) {
  util::FaultConfig fault;
  fault.seed = args.get_u64("fault-seed", fault.seed);
  if (args.has("fault-sites")) {
    fault.restrict_to(util::parse_fault_sites(args.get("fault-sites", "")));
  }
  return fault;
}

/// Fault-injection selection shared by the benches (docs/ROBUSTNESS.md):
/// the schedule flags above plus
///   --fault-rate=F      probability per fault site in [0, 1] (default 0)
/// Rejects out-of-range rates.
inline util::FaultConfig fault_from_args(const util::ArgParser& args) {
  util::FaultConfig fault = fault_schedule_from_args(args);
  fault.rate = args.get_rate("fault-rate", 0.0);
  return fault;
}

/// Checkpoint/resume selection shared by the benches (docs/RECOVERY.md):
///   --checkpoint-every=N  write a checkpoint every N epochs (0 = off)
///   --checkpoint-dir=D    checkpoint directory (required to enable)
///   --resume-from=F       resume from an explicit checkpoint file
///   --resume-latest=0|1   resume from the newest checkpoint in the dir
///   --keep-last=K         retention: newest K checkpoints kept (default 3)
/// Benches override `basename` per run so concurrent configurations in one
/// directory never clobber each other.
inline util::ckpt::Options checkpoint_from_args(const util::ArgParser& args) {
  util::ckpt::Options ck;
  ck.every = args.get_u32("checkpoint-every", 0);
  ck.dir = args.get("checkpoint-dir", "");
  ck.resume_from = args.get("resume-from", "");
  ck.resume_latest = args.get_bool("resume-latest", false);
  ck.keep_last = args.get_u32("keep-last", 3);
  return ck;
}

/// Telemetry selection shared by the benches (docs/OBSERVABILITY.md):
///   --metrics-out=F       Prometheus text exposition output path
///   --trace-out=F         Chrome trace-event JSON output path
///   --telemetry-every=N   re-export every N completed epochs (0 = run end)
/// Returns null (telemetry fully disabled, zero hot-path cost) unless at
/// least one output path is given. One sink serves every run a bench makes,
/// so metrics aggregate across runs and each run gets its own trace track.
inline std::unique_ptr<telemetry::Telemetry> telemetry_from_args(
    const util::ArgParser& args) {
  telemetry::TelemetryConfig cfg;
  cfg.metrics_out = args.get("metrics-out", "");
  cfg.trace_out = args.get("trace-out", "");
  cfg.export_every = args.get_u32("telemetry-every", 0);
  if (cfg.metrics_out.empty() && cfg.trace_out.empty()) return nullptr;
  return std::make_unique<telemetry::Telemetry>(cfg);
}

/// Admission-control selection shared by the benches (docs/ADMISSION.md):
///   --admission=M         off|static|adaptive (default off)
///   --mig-bandwidth=F     migration bandwidth in MB of simulated transfer
///                         per simulated second (0 = unlimited)
///   --mig-burst=F         token-bucket depth in MB (largest single burst)
///   --cooldown-epochs=N   ping-pong window K (>= 1)
///   --min-benefit=N       benefit floor (static) / floor to decay to
///   --min-history=N       epochs of ranking evidence required to admit
///   --max-moves=N         storm brake: admitted promotions per epoch
/// Rejects unknown modes (tiering::parse_admission_mode enumerates the
/// valid names) and negative bandwidths/bursts.
inline tiering::AdmissionConfig admission_from_args(
    const util::ArgParser& args) {
  tiering::AdmissionConfig adm;
  adm.mode = tiering::parse_admission_mode(args.get("admission", "off"));
  const double bandwidth_mb =
      args.get_checked_double("mig-bandwidth", 0.0, 0.0, 1e9);
  adm.bandwidth_bytes_per_sec =
      static_cast<std::uint64_t>(bandwidth_mb * 1e6);
  const double burst_mb = args.get_checked_double(
      "mig-burst", static_cast<double>(adm.burst_bytes) / 1e6, 1e-6, 1e9);
  adm.burst_bytes = static_cast<std::uint64_t>(burst_mb * 1e6);
  adm.cooldown_epochs = args.get_u32("cooldown-epochs", adm.cooldown_epochs);
  adm.min_benefit = args.get_u64("min-benefit", adm.min_benefit);
  adm.min_history = args.get_u32("min-history", adm.min_history);
  adm.max_moves_per_epoch = args.get_u64("max-moves", adm.max_moves_per_epoch);
  return adm;
}

/// Fleet-consolidation selection (docs/CONSOLIDATION.md), used by
/// bench/consolidation --fleet:
///   --tenants=N          concurrent tenants (>= 2; tenant 0 is the service)
///   --qos=C              QoS class of the service tenant (latency|batch)
///   --quota-floor=N      service tenant's guaranteed fast-tier frames (> 0)
///   --churn-rate=F       fraction of each batch tenant's cycle spent idle,
///                        exclusive (0, 1): 0 would mean no churn at all and
///                        1 a tenant that never runs
///   --isolation-check=1  exit non-zero unless the latency tenant stays
///                        within 5 pp of its solo hitrate (requires
///                        --qos=latency; the guarantee protects latency
///                        tenants only)
/// Unknown QoS class names enumerate the valid ones; zero/negative tenant
/// counts, floors and churn rates are rejected with clear errors.
struct FleetArgs {
  std::uint32_t n_tenants = 12;
  tiering::QosClass service_qos = tiering::QosClass::Latency;
  std::uint64_t quota_floor_frames = 0;  ///< 0 = bench picks its default
  double churn_rate = 0.5;
  bool isolation_check = false;
};

inline FleetArgs fleet_from_args(const util::ArgParser& args) {
  FleetArgs fleet;
  fleet.n_tenants = args.get_u32("tenants", fleet.n_tenants);
  if (fleet.n_tenants < 2) {
    throw std::invalid_argument(
        "--tenants: a fleet needs at least 2 tenants (one service, one "
        "neighbor)");
  }
  if (args.has("qos")) {
    fleet.service_qos = tiering::parse_qos_class(args.get("qos", ""));
  }
  if (args.has("quota-floor")) {
    const double floor = args.get_double("quota-floor", 0.0);
    if (floor <= 0.0) {
      throw std::invalid_argument(
          "--quota-floor: the guaranteed floor must be a positive number of "
          "frames");
    }
    fleet.quota_floor_frames = static_cast<std::uint64_t>(floor);
  }
  fleet.churn_rate = args.get_double("churn-rate", fleet.churn_rate);
  if (fleet.churn_rate <= 0.0 || fleet.churn_rate >= 1.0) {
    throw std::invalid_argument(
        "--churn-rate: the idle fraction must lie strictly between 0 and 1");
  }
  fleet.isolation_check = args.get_bool("isolation-check", false);
  if (fleet.isolation_check &&
      (!args.has("qos") ||
       fleet.service_qos != tiering::QosClass::Latency)) {
    throw std::invalid_argument(
        "--isolation-check: requires --qos=latency (the isolation guarantee "
        "protects latency tenants)");
  }
  return fleet;
}

/// Tier-chain selection shared by the benches (docs/TOPOLOGY.md):
///   --tiers=name:frames:read_ns:write_ns[:bw_gbps],...   fastest first
/// e.g. --tiers=dram:8192:80:80,cxl:16384:150:200:32,nvm:262144:300:600:8
/// The optional bandwidth term (GB/s) adds a per-cache-line transfer cost
/// of ~64/bw ns to every fill the tier serves. Returns an empty vector
/// when --tiers is absent (the tier1_frames/tier2_frames shorthand stays
/// in charge).
/// Rejects malformed specs and non-positive bandwidths.
inline std::vector<mem::TierSpec> tiers_from_args(const util::ArgParser& args) {
  std::vector<mem::TierSpec> tiers;
  if (!args.has("tiers")) return tiers;
  const std::string value = args.get("tiers", "");
  const auto parse_u64 = [](const std::string& field,
                            const char* what) -> std::uint64_t {
    try {
      std::size_t pos = 0;
      const std::uint64_t v = std::stoull(field, &pos);
      if (pos != field.size()) throw std::invalid_argument(field);
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument(std::string("--tiers: bad ") + what +
                                  " '" + field + "' (expected an integer)");
    }
  };
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string spec_str =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    start = comma == std::string::npos ? value.size() + 1 : comma + 1;
    std::vector<std::string> fields;
    std::size_t f = 0;
    while (f <= spec_str.size()) {
      const std::size_t colon = spec_str.find(':', f);
      fields.push_back(spec_str.substr(
          f, colon == std::string::npos ? std::string::npos : colon - f));
      f = colon == std::string::npos ? spec_str.size() + 1 : colon + 1;
    }
    if (fields.size() < 4 || fields.size() > 5) {
      throw std::invalid_argument(
          "--tiers: each tier is name:frames:read_ns:write_ns[:bw_gbps], "
          "got '" + spec_str + "'");
    }
    mem::TierSpec spec;
    spec.name = fields[0];
    spec.frames = parse_u64(fields[1], "frame count");
    spec.read_latency_ns = parse_u64(fields[2], "read latency");
    spec.write_latency_ns = parse_u64(fields[3], "write latency");
    if (fields.size() == 5) {
      double bw = 0.0;
      try {
        std::size_t pos = 0;
        bw = std::stod(fields[4], &pos);
        if (pos != fields[4].size()) throw std::invalid_argument(fields[4]);
      } catch (const std::exception&) {
        throw std::invalid_argument("--tiers: bad bandwidth '" + fields[4] +
                                    "' (expected GB/s as a number)");
      }
      if (bw <= 0.0) {
        throw std::invalid_argument(
            "--tiers: bandwidth must be positive (GB/s)");
      }
      spec.line_transfer_ns =
          static_cast<util::SimNs>(64.0 / bw + 0.5);  // one 64 B line
    }
    tiers.push_back(std::move(spec));
  }
  return tiers;
}

/// Device-monitor selection shared by the benches (docs/TOPOLOGY.md):
///   --devmon=0|1       enable per-device hot-page counters (default off)
///   --devmon-slots=N   counter slots per device (>= 1)
///   --devmon-topk=N    entries reported per device per epoch (1..slots)
inline monitors::DevMonConfig devmon_from_args(const util::ArgParser& args) {
  monitors::DevMonConfig dm;
  dm.enabled = args.get_bool("devmon", false);
  dm.slots = args.get_u32("devmon-slots", dm.slots);
  dm.top_k = args.get_u32("devmon-topk", dm.top_k);
  return dm;
}

/// The topology bench's CSV schema (bench/topology), pinned by the
/// golden-schema test. One row per (workload, chain, devmon setting).
inline const std::vector<std::string>& topology_csv_header() {
  static const std::vector<std::string> header{
      "workload", "chain",      "tiers",    "devmon",
      "runtime_ms", "dram_hitrate", "migrations", "promoted",
      "demoted",  "devmon_reported"};
  return header;
}

/// The fleet bench's CSV schema (bench/consolidation --fleet), pinned by
/// the golden-schema test. One row per (mode, tenant).
inline const std::vector<std::string>& fleet_csv_header() {
  static const std::vector<std::string> header{
      "mode",           "tenant",          "qos",
      "hitrate",        "floor_frames",    "grant_frames",
      "occupancy_frames", "quota_shed",    "reclaimed_frames",
      "bandwidth_rejected"};
  return header;
}

/// The robustness bench's CSV schema, shared with the golden-schema test
/// (tests/test_cli.cpp) so drift breaks the build's test tier, not a
/// downstream plotting script.
inline const std::vector<std::string>& robustness_csv_header() {
  static const std::vector<std::string> header{
      "workload",      "fault_rate",    "policy",       "runtime_ms",
      "speedup",       "hitrate",       "migrations",   "retried",
      "deferred",      "aborted",       "no_room",      "trace_dropped",
      "scans_aborted", "hwpc_wraps",    "pinned_epochs", "fallback_epochs"};
  return header;
}

/// The storm bench's CSV schema (bench/robustness --storm), also pinned by
/// the golden-schema test. One row per (scenario, admission mode).
inline const std::vector<std::string>& storm_csv_header() {
  static const std::vector<std::string> header{
      "scenario",         "admission",       "runtime_ms",
      "hitrate",          "migrations",      "moved_mb",
      "rejected",         "cooled",          "shed",
      "throttled_epochs", "bytes_saved_pct", "hitrate_delta"};
  return header;
}

/// Runs a bench's body and turns a bad flag into a usage error: the
/// std::invalid_argument that util::ArgParser and the *_from_args helpers
/// throw on a parse error, ArgParser::reject_unread throws on a flag the
/// bench does not read, and tiering::check_options throws (as a
/// tiering::ConfigError) on an invalid run configuration is printed to
/// stderr and the bench exits with 2, instead of escaping main and
/// aborting. Every bench's main is
/// `return tmprof::bench::run_main(argc, argv, bench_main);`.
inline int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << '\n';
    return 2;
  }
}

}  // namespace tmprof::bench
