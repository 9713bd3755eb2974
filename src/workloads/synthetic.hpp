#pragma once
/// \file synthetic.hpp
/// Generic access-pattern generators used by tests and as building blocks:
/// uniform-random, sequential, strided, Zipfian and hot/cold mixtures.

#include <cstdint>

#include "util/zipf.hpp"
#include "workloads/workload.hpp"

namespace tmprof::workloads {

/// Uniformly random loads (optionally a store fraction) over the footprint.
class UniformWorkload final : public Workload {
 public:
  UniformWorkload(std::uint64_t footprint_bytes, double store_fraction,
                  std::uint64_t seed);

  MemRef next() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return footprint_;
  }
  [[nodiscard]] std::string_view name() const override { return "uniform"; }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  std::uint64_t footprint_;
  double store_fraction_;
  util::Rng rng_;
};

/// Pure sequential sweep with a configurable stride, wrapping at the end.
class SequentialWorkload final : public Workload {
 public:
  SequentialWorkload(std::uint64_t footprint_bytes, std::uint64_t stride,
                     double store_fraction, std::uint64_t seed);

  MemRef next() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return footprint_;
  }
  [[nodiscard]] std::string_view name() const override { return "sequential"; }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  std::uint64_t footprint_;
  std::uint64_t stride_;
  double store_fraction_;
  std::uint64_t cursor_ = 0;
  util::Rng rng_;
};

/// Zipf-distributed accesses over fixed-size records.
class ZipfWorkload final : public Workload {
 public:
  ZipfWorkload(std::uint64_t footprint_bytes, std::uint64_t record_bytes,
               double theta, double store_fraction, std::uint64_t seed);

  MemRef next() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return footprint_;
  }
  [[nodiscard]] std::string_view name() const override { return "zipf"; }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  std::uint64_t footprint_;
  std::uint64_t record_bytes_;
  double store_fraction_;
  util::ZipfDistribution zipf_;
  util::Rng rng_;
};

/// Hot/cold mixture over fixed-size records.
class HotColdWorkload final : public Workload {
 public:
  HotColdWorkload(std::uint64_t footprint_bytes, std::uint64_t record_bytes,
                  double hot_fraction_of_items, double hot_weight,
                  double store_fraction, std::uint64_t seed);

  MemRef next() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return footprint_;
  }
  [[nodiscard]] std::string_view name() const override { return "hotcold"; }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  std::uint64_t footprint_;
  std::uint64_t record_bytes_;
  double store_fraction_;
  util::HotColdDistribution dist_;
  util::Rng rng_;
};

/// Init-then-serve: a one-shot sequential initialization pass over a cold
/// region (dataset load), then steady-state Zipfian service traffic over a
/// separate hot region. The canonical case where first-come-first-allocate
/// placement fails: tier 1 fills with initialization pages that are never
/// touched again.
class InitThenServeWorkload final : public Workload {
 public:
  InitThenServeWorkload(std::uint64_t cold_bytes, std::uint64_t hot_bytes,
                        double theta, std::uint64_t seed);

  MemRef next() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return cold_bytes_ + hot_bytes_;
  }
  [[nodiscard]] std::string_view name() const override {
    return "init-then-serve";
  }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  std::uint64_t cold_bytes_;
  std::uint64_t hot_bytes_;
  util::ZipfDistribution record_;
  util::Rng rng_;
  std::uint64_t cursor_ = 0;  ///< init progress; saturates at cold_bytes_
};

/// Phase-shift storm generator (docs/ADMISSION.md): a stable region that is
/// hot in every phase, plus `n_slots` churn slots of which exactly one is
/// hot at a time; the hot slot rotates every `phase_ops` references. With
/// n_slots = 2 the rotation is A/B/A/B — each slot's pages are demoted when
/// their phase ends and re-requested when it returns, the canonical
/// ping-pong an admission gate must dampen. The stable region is what a
/// storm must not sacrifice: its hitrate separates "moved fewer bytes" from
/// "stopped tiering".
class PhaseShiftWorkload final : public Workload {
 public:
  PhaseShiftWorkload(std::uint64_t stable_bytes, std::uint64_t slot_bytes,
                     std::uint32_t n_slots, std::uint64_t phase_ops,
                     double stable_fraction, std::uint64_t seed);

  MemRef next() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return stable_bytes_ + static_cast<std::uint64_t>(n_slots_) * slot_bytes_;
  }
  [[nodiscard]] std::string_view name() const override {
    return "phase-shift";
  }

  /// Slot hot at reference index `op` (phase = op / phase_ops).
  [[nodiscard]] std::uint32_t slot_at(std::uint64_t op) const noexcept {
    return static_cast<std::uint32_t>((op / phase_ops_) % n_slots_);
  }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  std::uint64_t stable_bytes_;
  std::uint64_t slot_bytes_;
  std::uint32_t n_slots_;
  std::uint64_t phase_ops_;
  double stable_fraction_;
  util::Rng rng_;
  std::uint64_t ops_ = 0;  ///< references emitted (drives the phase clock)
};

/// Zipf-churn storm generator: Zipfian skew whose rank-to-record mapping
/// rotates by `churn_records` every `phase_ops` references, so the hot head
/// slides across the footprint in bursts. Unlike phase-shift's clean flip,
/// the head *overlaps* across phases — yesterday's warm pages decay instead
/// of dying, stressing the benefit predictor's history window rather than
/// the ping-pong detector.
class ZipfChurnWorkload final : public Workload {
 public:
  ZipfChurnWorkload(std::uint64_t footprint_bytes, std::uint64_t record_bytes,
                    double theta, std::uint64_t phase_ops,
                    std::uint64_t churn_records, std::uint64_t seed);

  MemRef next() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return footprint_;
  }
  [[nodiscard]] std::string_view name() const override { return "zipf-churn"; }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  std::uint64_t footprint_;
  std::uint64_t record_bytes_;
  std::uint64_t n_records_;
  std::uint64_t phase_ops_;
  std::uint64_t churn_records_;
  util::ZipfDistribution zipf_;
  util::Rng rng_;
  std::uint64_t ops_ = 0;  ///< references emitted (drives the churn shift)
};

/// Tenant-churn session generator (docs/CONSOLIDATION.md): alternating
/// active sessions and idle gaps, modeling a batch tenant that arrives,
/// runs a job, and departs. Each session serves Zipfian traffic whose
/// rank-to-record mapping is rotated by the session's generation number, so
/// a "new arrival" brings a fresh hot set instead of rewarming the old one;
/// during the idle gap the process stays resident but emits only a cold
/// heartbeat reference, so its fast-tier heat decays the way a departed
/// tenant's would. `phase_offset_ops` staggers tenants so the fleet's
/// arrivals and departures interleave rather than synchronize.
class ChurnSessionWorkload final : public Workload {
 public:
  ChurnSessionWorkload(std::uint64_t footprint_bytes,
                       std::uint64_t record_bytes, double theta,
                       std::uint64_t session_ops, std::uint64_t idle_ops,
                       std::uint32_t n_generations,
                       std::uint64_t phase_offset_ops, std::uint64_t seed);

  MemRef next() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return footprint_;
  }
  [[nodiscard]] std::string_view name() const override {
    return "churn-session";
  }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  std::uint64_t footprint_;
  std::uint64_t record_bytes_;
  std::uint64_t n_records_;
  std::uint64_t session_ops_;
  std::uint64_t idle_ops_;
  std::uint32_t n_generations_;
  std::uint64_t phase_offset_ops_;
  util::ZipfDistribution zipf_;
  util::Rng rng_;
  std::uint64_t ops_ = 0;  ///< references emitted (drives the session clock)
};

}  // namespace tmprof::workloads
