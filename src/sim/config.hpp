#pragma once
/// \file config.hpp
/// System configuration. Defaults model the paper's testbed: an AMD Ryzen
/// 3600X (6 cores @ 3.8 GHz, 32 MiB LLC) with a two-tier main memory whose
/// slow tier has NVM-class latency.

#include <cstdint>
#include <vector>

#include "mem/tiers.hpp"
#include "mem/tlb.hpp"
#include "util/time.hpp"

namespace tmprof::sim {

// Per-core cache ways, L1 size and L1 TLB of the modeled Zen-2 core.
inline constexpr std::uint64_t kL1Bytes = 32ULL << 10;
inline constexpr std::uint32_t kL1Ways = 8;
inline constexpr std::uint32_t kL2Ways = 8;
inline constexpr mem::TlbLevelConfig kL1Tlb{16, 4, 8, 4};

// Access-latency model for cache hits.
inline constexpr util::SimNs kL1HitNs = 1;
inline constexpr util::SimNs kL2HitNs = 3;
inline constexpr util::SimNs kLlcHitNs = 10;
/// Per-level cost of a hardware page walk (each level is a walker access).
inline constexpr util::SimNs kWalkLevelNs = 15;
/// Kernel cost of a first-touch (not-present) page fault.
inline constexpr util::SimNs kPageFaultNs = 1500;
/// Fixed pipeline cost per retired op.
inline constexpr util::SimNs kBaseOpNs = 1;
/// Micro-ops retired per simulated memory op (the surrounding non-memory
/// instructions); affects IBS tag-to-sample conversion.
inline constexpr std::uint64_t kUopsPerOp = 4;

/// Size of each process's code region under SimConfig::instruction_fetch.
inline constexpr std::uint64_t kCodeBytesPerProcess = 64ULL << 10;

struct SimConfig {
  std::uint32_t cores = 6;

  // Cache geometry (per core L2, shared LLC; the L1 is kL1Bytes/kL1Ways).
  std::uint64_t l2_bytes = 512ULL << 10;
  std::uint64_t llc_bytes = 32ULL << 20;
  std::uint32_t llc_ways = 16;

  // L2 TLB geometry (the L1 TLB is kL1Tlb; see Tlb::make_default for the
  // Zen-2-like shape).
  mem::TlbLevelConfig l2_tlb{256, 8, 32, 4};

  // Tiered memory, two-tier shorthand. Frame counts are set per experiment
  // (the paper's 4 GiB + 60 GiB emulation config scales to 64 MiB + 960 MiB
  // at the simulator's 1/64 footprint scale). The shorthand's latencies are
  // fixed at the paper testbed's DRAM (80/80 ns read/write) and
  // Optane-class NVM (300/600 ns); see sim::tier_specs(). Any other machine
  // is described with `tiers` below.
  std::uint64_t tier1_frames = (64ULL << 20) >> 12;    // 64 MiB fast
  std::uint64_t tier2_frames = (960ULL << 20) >> 12;   // 960 MiB slow

  /// Explicit tier chain, fastest first (DRAM + CXL + NVM + ...). When
  /// non-empty it replaces the tier1_frames/tier2_frames shorthand and may
  /// describe up to mem::kMaxTiers tiers with per-tier latency/bandwidth.
  /// See sim::tier_specs() and docs/TOPOLOGY.md.
  std::vector<mem::TierSpec> tiers;

  /// Model the instruction-fetch translation path: each op fetches from a
  /// per-process code region (kCodeBytesPerProcess) through the (shared)
  /// TLB, so code pages set A bits and ITLB walks are counted — the
  /// "instruction TLB events" side of the paper's Fig. 2. Off by default
  /// (profiling-of-data studies).
  bool instruction_fetch = false;

  /// Build the deterministic *sharded* access engine: per-core LLC slices,
  /// per-core physical-memory arenas, and System::step_parallel() support.
  /// Results are bitwise-reproducible for a given seed regardless of how
  /// many OS threads execute the shards, but differ from the legacy shared-
  /// LLC serial engine (false), which existing experiments keep by default.
  bool sharded_engine = false;
};

}  // namespace tmprof::sim
