#pragma once
/// \file trace_io.hpp
/// Raw memory-op trace capture and replay. The paper's footnote 2 notes
/// that full traces (Pin/gem5-style) suit *postmortem* analysis but not
/// online scheduling; this module provides exactly that postmortem path:
/// a TraceWriter observer records every memory op to a compact binary
/// file, and a TraceReplayer later feeds the stream back into any set of
/// monitor models without re-running the workload or the machine.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "monitors/event.hpp"

namespace tmprof::sim {

/// One packed trace record (fixed 40-byte layout, little-endian host).
struct TraceRecord {
  std::uint64_t time;
  std::uint64_t vaddr;
  std::uint64_t paddr;
  std::uint32_t pid;
  std::uint32_t ip;
  std::uint8_t core;
  std::uint8_t is_store;
  std::uint8_t source;     ///< mem::DataSource
  std::uint8_t tlb;        ///< mem::TlbHit
  std::uint8_t page_size;  ///< mem::PageSize
  std::uint8_t pad[3];
};
static_assert(sizeof(TraceRecord) == 40);

/// Observer that appends every memory op to a binary trace file.
class TraceWriter final : public monitors::AccessObserver {
 public:
  explicit TraceWriter(const std::string& path);
  ~TraceWriter() override;

  void on_mem_op(const monitors::MemOpEvent& event) override;

  /// Flush buffered records to disk.
  void flush();

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_;
  }

 private:
  std::ofstream out_;
  std::vector<TraceRecord> buffer_;
  std::uint64_t records_ = 0;
};

/// Streams a recorded trace back through observers.
class TraceReplayer {
 public:
  explicit TraceReplayer(const std::string& path);

  void add_observer(monitors::AccessObserver* observer);

  /// Replay up to `max_records` ops (0 = all). Returns ops replayed.
  /// on_retire is synthesized with kUopsPerOp per op so IBS-style monitors
  /// tag as they do live.
  std::uint64_t replay(std::uint64_t max_records = 0);

 private:
  std::ifstream in_;
  std::vector<monitors::AccessObserver*> observers_;
};

}  // namespace tmprof::sim
