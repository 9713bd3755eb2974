/// Hot-path microbenchmark — the tracked performance baseline for the
/// allocation-free epoch loop (docs/PERFORMANCE.md).
///
/// Three sections, each reported as ops/sec at several page footprints,
/// all on the open-addressing util::FlatHashMap the hot path uses (engine
/// "flat"):
///  * collector_merge — insert-or-increment a page-counter map with a
///    skewed key stream and close the epoch (the TruthCollector /
///    EpochObservation accumulation pattern),
///  * ranking_build — produce the ranking prefix policies consume each
///    epoch (flat merge + top-K selection). ranking_full pins the full
///    sort instead,
///  * step_parallel — end-to-end simulator steps with a TruthCollector
///    attached.
///
/// Results go to stdout (human table) and BENCH_hotpath.json (tracked
/// schema: {section, pages, engine, ops, seconds, ops_per_sec} rows).
///
/// A fourth section sweeps the sketch-mode hotness store (docs/SKETCH.md)
/// over a memory-vs-accuracy grid: width/depth x footprint on a Zipf
/// stream, reporting top-64 overlap against the exact store, Spearman rank
/// correlation over the exact top-256, and bytes per tracked page. Rows go
/// into the JSON as a separate `sketch_accuracy` array; the headline
/// acceptance point is >= 95% top-64 overlap at <= 1/8 of the exact
/// store's bytes.
///
/// A fifth section (`ring_transport`, docs/STREAMING.md) compares the
/// barrier-critical-path merge time of the two sample handoffs, sweeping
/// lanes x pages: `barrier` replays the swap-and-clear protocol (all lane
/// buffers merge + top-K build inside the barrier), `stream` pushes the
/// same records through per-lane SpscRings with an interleaved pump (the
/// work that overlaps shard execution in the real engine, so it is
/// untimed) and times only the drain-and-seal residue. Both engines
/// produce the identical top-K (checksummed); rows land in the JSON as a
/// `ring_transport` array with `ring_speedups` ratios. The acceptance bar
/// is >= 1.5x at 8 lanes.
///
/// A sixth section (`ckpt_crc`, always on) measures the checkpoint write
/// stage in MB/s on a ~2 MiB image, the size of one fleet checkpoint:
/// `crc32` alone (slicing-by-8, util/ckpt.cpp), and `Writer` serialization
/// plus `finish`, which includes a CRC per section. Rows land in the JSON
/// as a `ckpt_crc` array; the ledger stage they stand in for is
/// `util.ckpt.save_ms_per_epoch` (docs/PERFORMANCE.md).
///
/// A seventh section (`access_path`, always on) times serial `System::step`
/// on web_serving at the `bench/e2e` testbed geometry (1 MiB 16-way LLC,
/// 256 KiB L2, instruction fetch on) with no observers attached: the
/// cache, TLB and PMU work every simulated access pays. Its row lands in
/// `rows` (engine "serial"); with `step_parallel` it stands in for the
/// ledger metric `sim.step_ns_per_op` (docs/PERFORMANCE.md).
///
/// Usage: micro_hotpath [--epochs=N] [--touches-per-page=N]
///        [--step-ops=N] [--sketch-sweep=0|1]
///        [--ring-sweep=0|1] [--out=BENCH_hotpath.json]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "core/hotness.hpp"
#include "core/ranking.hpp"
#include "core/stream.hpp"
#include "monitors/event.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "util/ckpt.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/zipf.hpp"
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
    if (i % 16 == 0) obs.writes[key] += 1;
    ++i;
  }
}

/// `ranking_build` is flat merge + top-K selection at a capacity-sized k
/// (core::build_ranking_topk), so ops is consumable entries produced — the
/// prefix a placement policy actually consumes. `ranking_full` (k == 0)
/// runs the full sort instead.
Row run_ranking_build(std::uint64_t pages, std::uint64_t epochs,
                      const std::vector<core::PageKey>& keys, std::size_t k) {
  const bool full = k == 0;
  core::EpochObservation obs;
  fill_observation(obs, keys);
  std::vector<core::PageRank> out;
  std::uint64_t checksum = 0;
  core::RankingScratch scratch;
  auto build = [&] {
    if (full) {
      core::build_ranking_into(obs, core::FusionMode::Sum, 1.0, scratch, out);
    } else {
      core::build_ranking_topk_into(obs, core::FusionMode::Sum, 1.0, k,
                                    scratch, out);
    }
  };
  build();  // untimed warmup: size every reused buffer first
  const auto start = Clock::now();
  for (std::uint64_t e = 0; e < epochs; ++e) {
    build();
    checksum += out.empty() ? 0 : out.front().rank;
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t consumable =
      full ? out.size() : std::min<std::uint64_t>(k, out.size());
  Row row{full ? "ranking_full" : "ranking_build", pages, "flat",
          epochs * consumable, 0.0, 0.0};
  row.seconds = elapsed;
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  if (checksum == 0) std::cerr << "ranking_build: zero checksum?\n";
  return row;
}

// ---------------------------------------------------------------------------
// Section 3: end-to-end simulator steps with a live collector.

Row run_step_parallel(std::uint64_t footprint_pages, std::uint64_t step_ops) {
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
  Row row{"step_parallel", footprint_pages, "flat", step_ops, 0.0, 0.0};
  row.seconds = seconds_since(start);
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  system.remove_observer(&collector);
  return row;
}

// ---------------------------------------------------------------------------
// Section 7: the serial access path, no observers.

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
// Section 4: sketch-mode memory-vs-accuracy sweep.

struct AccuracyRow {
  std::uint64_t pages = 0;
  std::uint32_t width = 0;
  std::uint32_t depth = 0;
  std::uint32_t candidates = 0;
  std::uint64_t ops = 0;
  double top64_overlap = 0.0;
  double rank_corr_top256 = 0.0;
  std::uint64_t exact_bytes = 0;
  std::uint64_t sketch_bytes = 0;
  double bytes_ratio = 0.0;      ///< sketch / exact
  double bytes_per_page = 0.0;   ///< sketch bytes / distinct pages tracked
};

/// Average ranks (ties share their mean rank) — the Spearman prerequisite.
std::vector<double> average_ranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double mean_rank = (static_cast<double>(i + j) / 2.0) + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = mean_rank;
    i = j + 1;
  }
  return ranks;
}

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::vector<double> ra = average_ranks(a);
  const std::vector<double> rb = average_ranks(b);
  const double n = static_cast<double>(ra.size());
  double sa = 0, sb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    sa += ra[i];
    sb += rb[i];
  }
  const double ma = sa / n, mb = sb / n;
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  if (va == 0.0 || vb == 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

AccuracyRow run_sketch_accuracy(std::uint64_t pages, std::uint32_t width,
                                std::uint32_t depth,
                                std::uint32_t candidates) {
  core::HotnessConfig config;
  config.mode = core::HotnessMode::Sketch;
  config.sketch.width = width;
  config.sketch.depth = depth;
  config.candidates = candidates;

  core::HotnessCounts exact_store;
  core::HotnessCounts sketch_store(config);
  util::Rng rng(pages * 0x9e3779b9ULL + width + depth);
  util::ZipfDistribution zipf(pages, 0.99);
  const std::uint64_t ops = pages * 4;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t page = zipf(rng);
    const core::PageKey key{1 + static_cast<mem::Pid>(page % 4),
                            page * mem::kPageSize};
    exact_store.add(key);
    sketch_store.add(key);
  }

  AccuracyRow row;
  row.pages = pages;
  row.width = width;
  row.depth = depth;
  row.candidates = candidates;
  row.ops = ops;
  row.exact_bytes = exact_store.memory_bytes();
  row.sketch_bytes = sketch_store.memory_bytes();
  row.bytes_ratio = static_cast<double>(row.sketch_bytes) /
                    static_cast<double>(row.exact_bytes);

  core::PageCountMap exact_counts;
  core::PageCountMap sketch_counts;
  (void)exact_store.end_epoch_into(exact_counts);
  (void)sketch_store.end_epoch_into(sketch_counts);
  row.bytes_per_page = static_cast<double>(row.sketch_bytes) /
                       static_cast<double>(exact_counts.size());

  // Exact ranking, (count desc, key asc) — the profiler's total order.
  std::vector<std::pair<std::uint32_t, core::PageKey>> exact_order;
  exact_order.reserve(exact_counts.size());
  for (const auto& [key, count] : exact_counts) {
    exact_order.emplace_back(count, key);
  }
  std::sort(exact_order.begin(), exact_order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return b.second < a.second;
            });
  std::vector<std::pair<std::uint32_t, core::PageKey>> sketch_order;
  sketch_order.reserve(sketch_counts.size());
  for (const auto& [key, count] : sketch_counts) {
    sketch_order.emplace_back(count, key);
  }
  std::sort(sketch_order.begin(), sketch_order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return b.second < a.second;
            });

  const std::size_t k = std::min<std::size_t>(64, exact_order.size());
  std::unordered_set<std::uint64_t> sketch_top;
  for (std::size_t i = 0; i < k && i < sketch_order.size(); ++i) {
    sketch_top.insert(sketch_order[i].second.page_va);
  }
  std::size_t overlap = 0;
  for (std::size_t i = 0; i < k; ++i) {
    overlap += sketch_top.count(exact_order[i].second.page_va);
  }
  row.top64_overlap =
      k == 0 ? 0.0 : static_cast<double>(overlap) / static_cast<double>(k);

  // Spearman over the exact top-256: exact count vs sketch estimate
  // (absent candidates score 0, punishing dropped hot pages).
  const std::size_t top = std::min<std::size_t>(256, exact_order.size());
  std::vector<double> exact_vals;
  std::vector<double> sketch_vals;
  exact_vals.reserve(top);
  sketch_vals.reserve(top);
  for (std::size_t i = 0; i < top; ++i) {
    exact_vals.push_back(static_cast<double>(exact_order[i].first));
    const auto it = sketch_counts.find(exact_order[i].second);
    sketch_vals.push_back(
        it == sketch_counts.end() ? 0.0 : static_cast<double>(it->second));
  }
  row.rank_corr_top256 = spearman(exact_vals, sketch_vals);
  return row;
}

// ---------------------------------------------------------------------------
// Section 5: ring transport — barrier-critical-path merge time
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

/// Top-K of the merged counts under (count desc, key asc) — the barrier
/// model of build_ranking_topk_into — folded into a content checksum.
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
/// and build the top-K. That serial span is what the streaming transport
/// removes.
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
/// with the consumer pumping every half-capacity round — map merge and
/// incremental top-K maintenance happen during production, which in the
/// real engine runs on the main thread while worker shards execute
/// (System::set_step_pump), so that span is untimed here. The timed span
/// is the drain-and-seal: residual ring tail, ranking read, decay + heap
/// rebuild, swap-and-clear.
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
  // decay_shift 64: per-epoch top-K only, matching the barrier model.
  core::StreamRanker ranker(static_cast<std::uint32_t>(k), 64);
  core::PageCountMap current;
  core::PageCountMap closed;
  std::vector<core::PageRank> rank_out;

  std::uint64_t per_lane = 0;
  for (const auto& s : streams) per_lane = std::max(per_lane, s.size());

  const auto consume = [&](const monitors::StreamRecord& rec) {
    const core::PageKey key{static_cast<mem::Pid>(rec.c), rec.a};
    current[key] += 1;
    ranker.add(key, 1);
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
        rec.a = streams[l][i].page_va;
        rec.c = streams[l][i].pid;
        rec.seq = seq;
        rec.lane = static_cast<std::uint16_t>(l);
        if (!rings[l]->try_push(rec)) consume(rec);  // spill: fold inline
      }
      ++seq;
      if (seq % (kRingCapacity / 2) == 0) pump();
    }
    // Drain-and-seal: the only work left on the barrier critical path.
    const auto start = Clock::now();
    pump();
    ranker.ranking_into(rank_out);
    std::uint64_t sum = 0;
    for (const core::PageRank& r : rank_out) sum += r.rank * (r.key.page_va | 1);
    ranker.seal();
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
// Section 6: checkpoint write stage — CRC and serialization throughput.

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
                const std::vector<AccuracyRow>& accuracy,
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
  os << "  ],\n  \"sketch_accuracy\": [\n";
  for (std::size_t i = 0; i < accuracy.size(); ++i) {
    const AccuracyRow& a = accuracy[i];
    os << "    {\"pages\": " << a.pages << ", \"width\": " << a.width
       << ", \"depth\": " << a.depth << ", \"candidates\": " << a.candidates
       << ", \"ops\": " << a.ops << ", \"top64_overlap\": " << a.top64_overlap
       << ", \"rank_corr_top256\": " << a.rank_corr_top256
       << ", \"exact_bytes\": " << a.exact_bytes
       << ", \"sketch_bytes\": " << a.sketch_bytes
       << ", \"bytes_ratio\": " << a.bytes_ratio
       << ", \"bytes_per_page\": " << a.bytes_per_page << "}"
       << (i + 1 < accuracy.size() ? "," : "") << "\n";
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

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::uint64_t epochs = args.get_u64("epochs", 8);
  const std::uint64_t touches = args.get_u64("touches-per-page", 4);
  const std::uint64_t step_ops = args.get_u64("step-ops", 2'000'000);
  const bool sketch_sweep = args.get_bool("sketch-sweep", true);
  const bool ring_sweep = args.get_bool("ring-sweep", true);
  const std::string out_path = args.get("out", "BENCH_hotpath.json");

  const std::uint64_t footprints[] = {4096, 16384, 65536};
  std::vector<Row> rows;

  std::cout << "micro_hotpath: epoch hot-path ops/sec (" << epochs << " epochs, " << touches
            << " touches/page)\n\n";

  for (const std::uint64_t pages : footprints) {
    const std::vector<core::PageKey> keys = make_key_stream(pages, touches);
    // Capacity-sized k: policies consume at most the tier-1 frame count,
    // typically a quarter-ish of the footprint in the paper's configs.
    const std::size_t k = pages / 4;
    rows.push_back(run_collector_merge(pages, epochs, keys));
    rows.push_back(run_ranking_build(pages, epochs, keys, k));
    rows.push_back(run_ranking_build(pages, epochs, keys, 0));
  }
  // One end-to-end datapoint at the middle footprint.
  rows.push_back(run_step_parallel(16384, step_ops));
  rows.push_back(run_access_path(step_ops));

  util::TextTable table({"section", "pages", "engine", "ops", "Mops/s"});
  for (const Row& r : rows) {
    table.add_row({r.section, std::to_string(r.pages), r.engine,
                   std::to_string(r.ops),
                   std::to_string(r.ops_per_sec / 1e6)});
  }
  std::cout << table.to_string() << "\n";

  std::vector<AccuracyRow> accuracy;
  if (sketch_sweep) {
    // Width/depth x footprint grid; candidate cap fixed at the driver's
    // default. The last row is the headline acceptance point: >= 0.95
    // top-64 overlap at <= 1/8 of the exact store's bytes.
    const std::pair<std::uint32_t, std::uint32_t> grid[] = {
        {1u << 12, 2}, {1u << 12, 4}, {1u << 14, 4}};
    for (const std::uint64_t pages : {65536ULL, 262144ULL}) {
      for (const auto& [width, depth] : grid) {
        accuracy.push_back(
            run_sketch_accuracy(pages, width, depth, 1u << 13));
      }
    }
    util::TextTable acc_table({"pages", "width", "depth", "top64_overlap",
                               "rank_corr", "bytes_ratio", "B/page"});
    for (const AccuracyRow& a : accuracy) {
      acc_table.add_row({std::to_string(a.pages), std::to_string(a.width),
                         std::to_string(a.depth),
                         std::to_string(a.top64_overlap),
                         std::to_string(a.rank_corr_top256),
                         std::to_string(a.bytes_ratio),
                         std::to_string(a.bytes_per_page)});
    }
    std::cout << "sketch accuracy sweep (zipf 0.99, candidates="
              << (1u << 13) << "):\n"
              << acc_table.to_string() << "\n";
    const AccuracyRow& headline = accuracy.back();
    std::cout << "headline: top-64 overlap " << headline.top64_overlap
              << " at " << headline.bytes_ratio
              << "x exact bytes (accept: >= 0.95 at <= 0.125)\n";
  }

  std::vector<RingRow> ring_rows;
  if (ring_sweep) {
    // Lanes x pages grid; K and the per-lane record count follow the
    // streaming defaults (StreamConfig::top_k, a few ring-fills per lane).
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

  write_json(out_path, rows, accuracy, ring_rows, ckpt_rows);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
