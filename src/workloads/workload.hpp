#pragma once
/// \file workload.hpp
/// The workload-generator interface. A workload is a deterministic stream
/// of memory references (offsets within its private footprint); the access
/// engine maps offsets into a process's address space. Determinism under a
/// fixed seed is required so the Oracle policy can replay the exact stream.

#include <cstdint>
#include <memory>
#include <string_view>

#include "mem/addr.hpp"
#include "util/cache_line.hpp"
#include "util/rng.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::workloads {

/// One memory reference emitted by a generator.
struct MemRef {
  std::uint64_t offset = 0;   ///< byte offset within the workload footprint
  bool is_store = false;
  std::uint32_t ip = 0;       ///< synthetic code location (phase marker)
};

/// Base class for all generators. Cache-line aligned, and so is every
/// generator: next() advances the RNG state on every simulated access, and
/// the sharded engine runs different cores' generators on different
/// workers.
class alignas(util::kCacheLine) Workload {
 public:
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Produce the next reference. Must be cheap — it runs once per
  /// simulated memory op.
  virtual MemRef next() = 0;

  /// Total bytes this instance touches (offset upper bound).
  [[nodiscard]] virtual std::uint64_t footprint_bytes() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Page size the kernel would back this heap with. Linux THP promotes
  /// large anonymous HPC heaps to 2 MiB pages; interpreted/service
  /// workloads stay on 4 KiB pages. This difference drives the paper's
  /// Table IV asymmetry between A-bit and IBS page counts.
  [[nodiscard]] virtual mem::PageSize page_size() const {
    return mem::PageSize::k4K;
  }

  /// Checkpoint hooks (util/ckpt.hpp): a resumed run must continue the
  /// exact reference stream, so every generator serializes its RNG and
  /// cursors. Pure virtual — forgetting to implement these in a new
  /// generator breaks the build, not a restored run.
  virtual void save_state(util::ckpt::Writer& w) const = 0;
  virtual void load_state(util::ckpt::Reader& r) = 0;

 protected:
  Workload() = default;
};

using WorkloadPtr = std::unique_ptr<Workload>;

}  // namespace tmprof::workloads
