#pragma once
/// \file span.hpp
/// Begin/end span recording on *simulated* time (util::SimNs) into a
/// bounded ring buffer. Spans are recorded complete (begin + end in one
/// call) by the orchestration layers — epoch loop, daemon tick, A-bit
/// walks, mover batches, per-shard engine steps — so the buffer never
/// holds a dangling "begin" and every export is balanced by construction.
///
/// The ring overwrites the *oldest* span on overflow (recent behavior is
/// what an operator debugs); every overwrite is counted and the facade
/// mirrors the count into the metrics registry, so trace truncation is
/// itself observable (the ISSUE's "overflow drops are themselves counted").

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::telemetry {

/// One completed span. `pid` groups spans into Chrome-trace processes
/// (one per bench run), `tid` into tracks within a run (epoch loop,
/// daemon, mover, one per engine shard).
struct Span {
  std::string name;
  util::SimNs begin_ns = 0;
  util::SimNs end_ns = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

class SpanTracer {
 public:
  explicit SpanTracer(std::size_t capacity);

  /// Record a completed span. Returns true when an older span was
  /// overwritten to make room.
  bool record(std::string_view name, util::SimNs begin_ns, util::SimNs end_ns,
              std::uint32_t pid, std::uint32_t tid);

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return overwritten_;
  }

  /// Spans in recording order (oldest surviving first).
  [[nodiscard]] std::vector<Span> spans_in_order() const;

  /// Checkpoint hooks (util/ckpt.hpp).
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< oldest element once the ring is full
  std::uint64_t overwritten_ = 0;
  std::vector<Span> ring_;
};

}  // namespace tmprof::telemetry
