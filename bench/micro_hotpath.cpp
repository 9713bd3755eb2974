/// Hot-path microbenchmark — the tracked performance baseline for the
/// allocation-free epoch loop (docs/PERFORMANCE.md).
///
/// Three sections, each reported as ops/sec at several page footprints,
/// all on the open-addressing util::FlatHashMap the hot path uses (engine
/// "flat"):
///  * collector_merge — insert-or-increment a page-counter map with a
///    skewed key stream and close the epoch (the TruthCollector /
///    EpochObservation accumulation pattern),
///  * ranking_full — build the epoch's full ranking (flat merge + fuse +
///    sort), what the daemon runs at every barrier,
///  * step_serial — end-to-end serial `System::step` with a TruthCollector
///    attached.
///
/// Results go to stdout (human table) and BENCH_hotpath.json (tracked
/// schema: {section, pages, engine, ops, seconds, ops_per_sec} rows).
///
/// A fourth section (`ring_transport`, docs/STREAMING.md) compares the
/// barrier-critical-path merge time of the two sample handoffs, sweeping
/// lanes x pages: `barrier` replays the swap-and-clear protocol (all lane
/// buffers merge + top-K build inside the barrier), `stream` pushes the
/// same records through per-lane SpscRings with an interleaved pump (the
/// work that overlaps shard execution in the real engine, so it is
/// untimed) and times only the residual pump plus the same top-K build.
/// Both engines produce the identical top-K (checksummed); rows land in
/// the JSON as a `ring_transport` array with `ring_speedups` ratios. The
/// acceptance bar is >= 1.5x at 8 lanes.
///
/// A fifth section (`ckpt_crc`, always on) measures the checkpoint write
/// stage in MB/s on a ~2 MiB image, the size of one fleet checkpoint:
/// `crc32` alone (slicing-by-8, util/ckpt.cpp), and `Writer` serialization
/// plus `finish`, which includes a CRC per section. Rows land in the JSON
/// as a `ckpt_crc` array; the ledger stage they stand in for is
/// `util.ckpt.save_ms_per_epoch` (docs/PERFORMANCE.md).
///
/// A sixth section (`access_path`, always on) times serial `System::step`
/// on web_serving at the `bench/e2e` testbed geometry (1 MiB 16-way LLC,
/// 256 KiB L2, instruction fetch on) with no observers attached: the
/// cache, TLB and PMU work every simulated access pays. Its row lands in
/// `rows` (engine "serial"); with `step_serial` it stands in for the
/// ledger metric `sim.step_ns_per_op` (docs/PERFORMANCE.md).
///
/// A seventh section (`shard_scaling`, always on) times the sharded
/// engine's `System::step_parallel` on data_caching at the same testbed
/// geometry, with no observers: once with the shards inline on the calling
/// thread (engine "inline") and once on 2 pool workers (engine "pool2").
/// Its rows land in `rows`; the pair is the pool-vs-inline comparison for
/// `sim.step_ns_per_op` on `caching_sharded_stream` (docs/PERFORMANCE.md
/// §4, §13).
///
/// Usage: micro_hotpath [--epochs=N] [--touches-per-page=N]
///        [--step-ops=N] [--ring-sweep=0|1] [--out=BENCH_hotpath.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ranking.hpp"
#include "monitors/event.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "util/ckpt.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace tmprof;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string section;
  std::uint64_t pages = 0;
  std::string engine;
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Skewed key stream over `pages` distinct pages: a hot head is touched
/// every round, the tail with stride mixing — roughly the shape an epoch
/// of trace + A-bit evidence produces.
std::vector<core::PageKey> make_key_stream(std::uint64_t pages,
                                           std::uint64_t touches_per_page) {
  util::Rng rng(pages * 2654435761ULL + 13);
  std::vector<core::PageKey> keys;
  keys.reserve(pages * touches_per_page);
  const std::uint64_t hot = std::max<std::uint64_t>(1, pages / 8);
  for (std::uint64_t t = 0; t < touches_per_page; ++t) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      // Half the touches go to the hot head, half sweep the full range.
      const std::uint64_t page =
          (p % 2 == 0) ? rng.below(hot) : rng.below(pages);
      keys.push_back(core::PageKey{1 + static_cast<mem::Pid>(page % 4),
                                   page * mem::kPageSize});
    }
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Section 1: collector merge (insert-or-increment + epoch close).

Row run_collector_merge(std::uint64_t pages, std::uint64_t epochs,
                        const std::vector<core::PageKey>& keys) {
  core::PageCountMap current;
  core::PageCountMap closed;
  // Untimed warmup epoch: measure steady state, not first-touch growth.
  for (const core::PageKey& key : keys) current[key] += 1;
  closed.swap(current);
  current.clear();
  const auto start = Clock::now();
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (const core::PageKey& key : keys) current[key] += 1;
    // Epoch close: swap-and-clear, same protocol as TmpDriver/TruthCollector.
    closed.swap(current);
    current.clear();
  }
  Row row{"collector_merge", pages, "flat", epochs * keys.size(), 0.0, 0.0};
  row.seconds = seconds_since(start);
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  if (closed.size() == 0) std::cerr << "collector_merge: empty epoch?\n";
  return row;
}

// ---------------------------------------------------------------------------
// Section 2: ranking build (merge + fuse + sort each epoch).

void fill_observation(core::EpochObservation& obs,
                      const std::vector<core::PageKey>& keys) {
  obs.clear();
  std::uint64_t i = 0;
  for (const core::PageKey& key : keys) {
    if (i % 3 != 0) obs.trace[key] += 1;  // trace-heavy, like IBS epochs
    if (i % 3 == 0) obs.abit[key] += 1;
    ++i;
  }
}

/// `ranking_full` is core::build_ranking_into, the ranking every policy,
/// mover and watchdog reads; ops is ranked entries produced.
Row run_ranking_full(std::uint64_t pages, std::uint64_t epochs,
                     const std::vector<core::PageKey>& keys) {
  core::EpochObservation obs;
  fill_observation(obs, keys);
  std::vector<core::PageRank> out;
  std::uint64_t checksum = 0;
  core::RankingScratch scratch;
  auto build = [&] {
    core::build_ranking_into(obs, core::FusionMode::Sum, 1.0, scratch, out);
  };
  build();  // untimed warmup: size every reused buffer first
  const auto start = Clock::now();
  for (std::uint64_t e = 0; e < epochs; ++e) {
    build();
    checksum += out.empty() ? 0 : out.front().rank;
  }
  Row row{"ranking_full", pages, "flat", epochs * out.size(), 0.0, 0.0};
  row.seconds = seconds_since(start);
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  if (checksum == 0) std::cerr << "ranking_full: zero checksum?\n";
  return row;
}

// ---------------------------------------------------------------------------
// Section 3: end-to-end serial simulator steps with a live collector.

Row run_step_serial(std::uint64_t footprint_pages, std::uint64_t step_ops) {
  const std::uint64_t footprint = footprint_pages * mem::kPageSize;
  sim::System system(bench::testbed_config(footprint));
  system.add_process(
      std::make_unique<workloads::ZipfWorkload>(footprint, 4096, 0.99, 0.1, 7));
  tiering::TruthCollector collector(system);
  system.add_observer(&collector);
  core::TruthMap truth;
  std::vector<core::PageKey> new_pages;
  // Warm the caches, page tables and collector buffers.
  system.step(step_ops / 4);
  collector.end_epoch(truth, new_pages);
  const auto start = Clock::now();
  for (int e = 0; e < 4; ++e) {
    system.step(step_ops / 4);
    collector.end_epoch(truth, new_pages);
  }
  Row row{"step_serial", footprint_pages, "flat", step_ops, 0.0, 0.0};
  row.seconds = seconds_since(start);
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  system.remove_observer(&collector);
  return row;
}

// ---------------------------------------------------------------------------
// Section 6: the serial access path, no observers.

Row run_access_path(std::uint64_t step_ops) {
  const workloads::WorkloadSpec spec = workloads::find_spec("web_serving");
  sim::System system(bench::testbed_config(spec.total_bytes));
  for (std::uint32_t i = 0; i < spec.processes; ++i) {
    system.add_process(workloads::make_workload(spec, i, 42));
  }
  // Warm the caches, TLBs and page tables (first touches fault).
  system.step(step_ops / 2);
  const auto start = Clock::now();
  system.step(step_ops);
  Row row{"access_path", spec.total_bytes >> mem::kPageShift, "serial",
          step_ops, 0.0, 0.0};
  row.seconds = seconds_since(start);
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  return row;
}

// ---------------------------------------------------------------------------
// Section 7: the sharded engine, inline shards vs pool workers.

Row run_shard_scaling(std::uint32_t workers, std::uint64_t step_ops) {
  const workloads::WorkloadSpec spec = workloads::find_spec("data_caching");
  sim::SimConfig cfg = bench::testbed_config(spec.total_bytes);
  cfg.sharded_engine = true;
  sim::System system(cfg);
  for (std::uint32_t i = 0; i < spec.processes; ++i) {
    system.add_process(workloads::make_workload(spec, i, 42));
  }
  std::unique_ptr<util::ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<util::ThreadPool>(workers);
  // Epoch-sized steps, so the barrier is paid as often as in a run.
  constexpr std::uint64_t kSteps = 8;
  const std::uint64_t step = step_ops / kSteps;
  system.step_parallel(step_ops / 2, pool.get());  // first touches fault
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    system.step_parallel(step, pool.get());
  }
  Row row{"shard_scaling", spec.total_bytes >> mem::kPageShift,
          workers == 0 ? "inline" : "pool" + std::to_string(workers),
          kSteps * step, 0.0, 0.0};
  row.seconds = seconds_since(start);
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  return row;
}

// ---------------------------------------------------------------------------
// Section 4: ring transport — barrier-critical-path merge time
// (docs/STREAMING.md).

struct RingRow {
  std::string engine;  ///< "barrier" | "stream"
  std::uint64_t lanes = 0;
  std::uint64_t pages = 0;
  std::uint64_t records = 0;       ///< per epoch, all lanes
  double barrier_seconds = 0.0;    ///< summed barrier time over epochs
  double ns_per_record = 0.0;      ///< barrier time per produced record
  std::uint64_t checksum = 0;      ///< top-K content; must match per config
};

/// Per-lane record streams, the shape a sharded step leaves behind: each
/// lane's content is a pure function of (lane, pages), like the per-core
/// RNG streams in the monitors.
std::vector<std::vector<core::PageKey>> make_lane_streams(
    std::uint64_t lanes, std::uint64_t pages, std::uint64_t per_lane) {
  std::vector<std::vector<core::PageKey>> streams(lanes);
  for (std::uint64_t l = 0; l < lanes; ++l) {
    util::Rng rng(0x5eedULL * (l + 1) + pages);
    std::vector<core::PageKey>& s = streams[l];
    s.reserve(per_lane);
    const std::uint64_t hot = std::max<std::uint64_t>(1, pages / 8);
    for (std::uint64_t i = 0; i < per_lane; ++i) {
      const std::uint64_t page =
          (i % 2 == 0) ? rng.below(hot) : rng.below(pages);
      s.push_back(core::PageKey{1 + static_cast<mem::Pid>(page % 4),
                                page * mem::kPageSize});
    }
  }
  return streams;
}

/// Top-K of the merged counts under (count desc, key asc) — the ranking
/// both transports build from the sealed maps — folded into a content
/// checksum.
std::uint64_t topk_checksum(
    const core::PageCountMap& counts, std::size_t k,
    std::vector<std::pair<std::uint64_t, core::PageKey>>& scratch) {
  scratch.clear();
  scratch.reserve(counts.size());
  for (const auto& [key, count] : counts) scratch.emplace_back(count, key);
  const auto stronger = [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  if (scratch.size() > k) {
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(k),
                     scratch.end(), stronger);
    scratch.resize(k);
  }
  std::sort(scratch.begin(), scratch.end(), stronger);
  std::uint64_t sum = 0;
  for (const auto& [count, key] : scratch) sum += count * (key.page_va | 1);
  return sum;
}

/// Swap-and-clear baseline: production appends to per-lane buffers (cheap,
/// overlapped with shard execution — untimed); the barrier then does ALL
/// the merge work: drain every lane in ascending order into the count map
/// and build the top-K. The merge half of that serial span is what the
/// streaming transport moves off the barrier.
RingRow run_ring_barrier(std::uint64_t lanes, std::uint64_t pages,
                         std::uint64_t epochs,
                         const std::vector<std::vector<core::PageKey>>& streams,
                         std::size_t k) {
  core::PageCountMap current;
  core::PageCountMap closed;
  std::vector<std::pair<std::uint64_t, core::PageKey>> scratch;
  RingRow row{"barrier", lanes, pages, 0, 0.0, 0.0, 0};
  for (const auto& s : streams) row.records += s.size();
  for (std::uint64_t e = 0; e < epochs + 1; ++e) {
    const auto start = Clock::now();
    for (const std::vector<core::PageKey>& lane : streams) {
      for (const core::PageKey& key : lane) current[key] += 1;
    }
    const std::uint64_t sum = topk_checksum(current, k, scratch);
    closed.swap(current);
    current.clear();
    if (e == 0) continue;  // untimed warmup epoch: buffers sized
    row.barrier_seconds += seconds_since(start);
    row.checksum += sum;
  }
  row.ns_per_record = row.barrier_seconds * 1e9 /
                      static_cast<double>(row.records * epochs);
  return row;
}

/// Streaming transport: the same records flow through per-lane SpscRings
/// with the consumer pumping every half-capacity round — the map merge
/// happens during production, which in the real engine runs on the main
/// thread while worker shards execute (System::set_step_pump), so that
/// span is untimed here. The timed span is the drain-and-seal: residual
/// ring tail, the top-K build from the sealed map, swap-and-clear.
RingRow run_ring_stream(std::uint64_t lanes, std::uint64_t pages,
                        std::uint64_t epochs,
                        const std::vector<std::vector<core::PageKey>>& streams,
                        std::size_t k) {
  constexpr std::uint32_t kRingCapacity = 1024;
  std::vector<std::unique_ptr<util::SpscRing<monitors::StreamRecord>>> rings;
  rings.reserve(lanes);
  for (std::uint64_t l = 0; l < lanes; ++l) {
    rings.push_back(std::make_unique<util::SpscRing<monitors::StreamRecord>>(
        kRingCapacity));
  }
  core::PageCountMap current;
  core::PageCountMap closed;
  std::vector<std::pair<std::uint64_t, core::PageKey>> scratch;

  std::uint64_t per_lane = 0;
  for (const auto& s : streams) per_lane = std::max(per_lane, s.size());

  // The records carry page keys in the paddr/pid slots: the ring cost
  // depends only on the record width, not on what the words mean.
  const auto consume = [&](const monitors::StreamRecord& rec) {
    const core::PageKey key{rec.pid, rec.paddr};
    current[key] += 1;
  };
  const auto pump = [&] {
    for (auto& ring : rings) ring->drain(consume);
  };

  RingRow row{"stream", lanes, pages, 0, 0.0, 0.0, 0};
  for (const auto& s : streams) row.records += s.size();
  for (std::uint64_t e = 0; e < epochs + 1; ++e) {
    // Production + opportunistic pump: untimed (overlaps shard execution).
    std::uint32_t seq = 0;
    for (std::uint64_t i = 0; i < per_lane; ++i) {
      for (std::uint64_t l = 0; l < lanes; ++l) {
        if (i >= streams[l].size()) continue;
        monitors::StreamRecord rec;
        rec.paddr = streams[l][i].page_va;
        rec.pid = streams[l][i].pid;
        rec.seq = seq;
        rec.lane = static_cast<std::uint16_t>(l);
        if (!rings[l]->try_push(rec)) consume(rec);  // spill: fold inline
      }
      ++seq;
      if (seq % (kRingCapacity / 2) == 0) pump();
    }
    // Drain-and-seal plus the top-K build: the only work left on the
    // barrier critical path.
    const auto start = Clock::now();
    pump();
    const std::uint64_t sum = topk_checksum(current, k, scratch);
    closed.swap(current);
    current.clear();
    if (e == 0) continue;
    row.barrier_seconds += seconds_since(start);
    row.checksum += sum;
  }
  row.ns_per_record = row.barrier_seconds * 1e9 /
                      static_cast<double>(row.records * epochs);
  return row;
}

// ---------------------------------------------------------------------------
// Section 5: checkpoint write stage — CRC and serialization throughput.

struct CkptRow {
  std::string stage;  ///< "crc32" | "writer_finish"
  std::uint64_t image_bytes = 0;
  std::uint64_t reps = 0;
  double seconds = 0.0;
  double mb_per_s = 0.0;
};

/// `crc32` over a ~2 MiB buffer, and a ~2 MiB image built through the
/// Writer in u64 fields across 16 sections, the shape of the `save_state`
/// calls. Every rep's result is checked against the untimed first one.
std::vector<CkptRow> run_ckpt_crc(std::uint64_t reps) {
  constexpr std::size_t kImageBytes = 2u << 20;
  constexpr std::size_t kSections = 16;
  std::vector<std::uint8_t> buffer(kImageBytes);
  util::Rng rng(0xc4c);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng());
  std::vector<CkptRow> rows;

  const std::uint32_t first_crc =
      util::ckpt::crc32(buffer.data(), buffer.size());
  auto start = Clock::now();
  for (std::uint64_t r = 0; r < reps; ++r) {
    if (util::ckpt::crc32(buffer.data(), buffer.size()) != first_crc) {
      std::cerr << "ckpt_crc: crc32 not deterministic\n";
      std::exit(1);
    }
  }
  rows.push_back({"crc32", kImageBytes, reps, seconds_since(start), 0.0});

  const auto build = [&] {
    util::ckpt::Writer w;
    const std::size_t words = kImageBytes / sizeof(std::uint64_t) / kSections;
    for (std::size_t sec = 0; sec < kSections; ++sec) {
      w.begin_section("section" + std::to_string(sec));
      for (std::size_t i = 0; i < words; ++i) {
        w.put_u64(buffer[sec * words + i]);
      }
      w.end_section();
    }
    return w.finish();
  };
  const std::vector<std::uint8_t> first_image = build();  // untimed warmup
  start = Clock::now();
  for (std::uint64_t r = 0; r < reps; ++r) {
    // The image's last four bytes are its final section's CRC.
    const std::vector<std::uint8_t> image = build();
    if (!std::equal(image.end() - 4, image.end(), first_image.end() - 4)) {
      std::cerr << "ckpt_crc: Writer image not deterministic\n";
      std::exit(1);
    }
  }
  rows.push_back(
      {"writer_finish", first_image.size(), reps, seconds_since(start), 0.0});

  for (CkptRow& row : rows) {
    row.mb_per_s = static_cast<double>(row.image_bytes * row.reps) / 1e6 /
                   row.seconds;
  }
  return rows;
}

// ---------------------------------------------------------------------------

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<RingRow>& ring_rows,
                const std::vector<CkptRow>& ckpt_rows) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "micro_hotpath: cannot open " << path << "\n";
    std::exit(1);
  }
  os << "{\n  \"bench\": \"micro_hotpath\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"section\": \"" << r.section << "\", \"pages\": " << r.pages
       << ", \"engine\": \"" << r.engine << "\", \"ops\": " << r.ops
       << ", \"seconds\": " << r.seconds
       << ", \"ops_per_sec\": " << r.ops_per_sec << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"ring_transport\": [\n";
  for (std::size_t i = 0; i < ring_rows.size(); ++i) {
    const RingRow& r = ring_rows[i];
    os << "    {\"engine\": \"" << r.engine << "\", \"lanes\": " << r.lanes
       << ", \"pages\": " << r.pages << ", \"records\": " << r.records
       << ", \"barrier_seconds\": " << r.barrier_seconds
       << ", \"ns_per_record\": " << r.ns_per_record << "}"
       << (i + 1 < ring_rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"ring_speedups\": [\n";
  bool ring_first = true;
  for (const RingRow& base : ring_rows) {
    if (base.engine != "barrier") continue;
    for (const RingRow& stream : ring_rows) {
      if (stream.engine != "stream" || stream.lanes != base.lanes ||
          stream.pages != base.pages) {
        continue;
      }
      if (!ring_first) os << ",\n";
      ring_first = false;
      os << "    {\"lanes\": " << base.lanes << ", \"pages\": " << base.pages
         << ", \"barrier_over_stream\": "
         << base.barrier_seconds / stream.barrier_seconds << "}";
    }
  }
  os << "\n  ],\n  \"ckpt_crc\": [\n";
  for (std::size_t i = 0; i < ckpt_rows.size(); ++i) {
    const CkptRow& r = ckpt_rows[i];
    os << "    {\"stage\": \"" << r.stage
       << "\", \"image_bytes\": " << r.image_bytes << ", \"reps\": " << r.reps
       << ", \"seconds\": " << r.seconds << ", \"mb_per_s\": " << r.mb_per_s
       << "}" << (i + 1 < ckpt_rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::uint64_t epochs = args.get_u64("epochs", 8);
  const std::uint64_t touches = args.get_u64("touches-per-page", 4);
  const std::uint64_t step_ops = args.get_u64("step-ops", 2'000'000);
  const bool ring_sweep = args.get_bool("ring-sweep", true);
  const std::string out_path = args.get("out", "BENCH_hotpath.json");
  args.reject_unread();

  const std::uint64_t footprints[] = {4096, 16384, 65536};
  std::vector<Row> rows;

  std::cout << "micro_hotpath: epoch hot-path ops/sec (" << epochs << " epochs, " << touches
            << " touches/page)\n\n";

  for (const std::uint64_t pages : footprints) {
    const std::vector<core::PageKey> keys = make_key_stream(pages, touches);
    rows.push_back(run_collector_merge(pages, epochs, keys));
    rows.push_back(run_ranking_full(pages, epochs, keys));
  }
  // One end-to-end datapoint at the middle footprint.
  rows.push_back(run_step_serial(16384, step_ops));
  rows.push_back(run_access_path(step_ops));
  const Row inline_shards = run_shard_scaling(0, step_ops);
  const Row pooled_shards = run_shard_scaling(2, step_ops);
  rows.push_back(inline_shards);
  rows.push_back(pooled_shards);

  util::TextTable table({"section", "pages", "engine", "ops", "Mops/s"});
  for (const Row& r : rows) {
    table.add_row({r.section, std::to_string(r.pages), r.engine,
                   std::to_string(r.ops),
                   std::to_string(r.ops_per_sec / 1e6)});
  }
  std::cout << table.to_string() << "\n";
  std::cout << "shard_scaling: data_caching step_parallel "
            << 1e9 / inline_shards.ops_per_sec << " ns/op inline, "
            << 1e9 / pooled_shards.ops_per_sec << " ns/op on 2 workers ("
            << pooled_shards.ops_per_sec / inline_shards.ops_per_sec
            << "x)\n\n";

  std::vector<RingRow> ring_rows;
  if (ring_sweep) {
    // Lanes x pages grid; a fixed K-entry ranking prefix and a few
    // ring-fills per lane.
    constexpr std::size_t kTopK = 256;
    constexpr std::uint64_t kPerLane = 16384;
    for (const std::uint64_t lanes : {2ULL, 4ULL, 8ULL}) {
      for (const std::uint64_t pages : {4096ULL, 16384ULL}) {
        const auto streams = make_lane_streams(lanes, pages, kPerLane);
        ring_rows.push_back(
            run_ring_barrier(lanes, pages, epochs, streams, kTopK));
        ring_rows.push_back(
            run_ring_stream(lanes, pages, epochs, streams, kTopK));
        const RingRow& base = ring_rows[ring_rows.size() - 2];
        const RingRow& stream = ring_rows.back();
        if (base.checksum != stream.checksum) {
          std::cerr << "ring_transport: checksum mismatch at " << lanes
                    << " lanes / " << pages << " pages (" << base.checksum
                    << " vs " << stream.checksum << ")\n";
          return 1;
        }
      }
    }
    util::TextTable ring_table(
        {"lanes", "pages", "engine", "records", "barrier ns/rec"});
    for (const RingRow& r : ring_rows) {
      ring_table.add_row({std::to_string(r.lanes), std::to_string(r.pages),
                          r.engine, std::to_string(r.records),
                          std::to_string(r.ns_per_record)});
    }
    std::cout << "ring_transport: barrier-critical-path merge time "
              << "(swap-and-clear vs streaming drain-and-seal):\n"
              << ring_table.to_string() << "\n";
    double headline = 0.0;
    for (const RingRow& base : ring_rows) {
      if (base.engine != "barrier") continue;
      for (const RingRow& stream : ring_rows) {
        if (stream.engine != "stream" || stream.lanes != base.lanes ||
            stream.pages != base.pages) {
          continue;
        }
        const double speedup = base.barrier_seconds / stream.barrier_seconds;
        std::cout << "  " << base.lanes << " lanes @" << base.pages
                  << " pages: " << speedup << "x\n";
        if (base.lanes == 8) headline = std::max(headline, speedup);
      }
    }
    std::cout << "headline: " << headline
              << "x barrier-time reduction at 8 lanes (accept: >= 1.5)\n";
  }

  // Checkpoint write stage: one fleet-sized image per rep.
  const std::vector<CkptRow> ckpt_rows = run_ckpt_crc(4 * epochs);
  util::TextTable ckpt_table({"stage", "image bytes", "reps", "MB/s"});
  for (const CkptRow& r : ckpt_rows) {
    ckpt_table.add_row({r.stage, std::to_string(r.image_bytes),
                        std::to_string(r.reps), std::to_string(r.mb_per_s)});
  }
  std::cout << "ckpt_crc: checkpoint write stage throughput:\n"
            << ckpt_table.to_string() << "\n";

  write_json(out_path, rows, ring_rows, ckpt_rows);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
