#pragma once
/// \file hotness.hpp
/// The HotnessStore abstraction: per-page counting that runs in `exact`
/// mode (the PR-5 FlatHashMap front-end, bit-identical to the historical
/// behavior) or `sketch` mode (count-min sketch + bounded candidate set,
/// docs/SKETCH.md) behind one interface. TruthCollector shards, the
/// driver's epoch observations and the freq-decay policy all count
/// through this type, selected per run via
/// DriverConfig::hotness (i.e. DaemonConfig-selected).
///
/// Sketch mode keeps two invariants the rest of the system relies on:
///  * no undercount — estimates are >= the true count (count-min with
///    conservative update, merged by cell-wise saturating add), so the
///    materialized epoch maps over-approximate but never hide hotness;
///  * determinism — candidate admission, compaction and the epoch-barrier
///    shard merge (ascending shard order) are pure functions of the
///    simulated stream, so sketch mode stays bitwise thread-count
///    invariant and checkpoint/resume-consistent.
///
/// The epoch close keeps the swap-and-clear protocol allocation-free in
/// both modes: exact mode swaps the accumulator map out, sketch mode
/// materializes candidates through a capacity-retaining scratch vector.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/page_key.hpp"
#include "mem/addr.hpp"
#include "util/ckpt.hpp"
#include "util/flat_map.hpp"
#include "util/sketch.hpp"

namespace tmprof::core {

enum class HotnessMode : std::uint8_t {
  Exact = 0,   ///< FlatHashMap per-page counters (PR-5 behavior)
  Sketch = 1,  ///< count-min sketch + bounded candidate set
};

[[nodiscard]] std::string_view to_string(HotnessMode mode) noexcept;
/// Parses "exact" / "sketch"; throws std::invalid_argument otherwise.
[[nodiscard]] HotnessMode parse_hotness_mode(const std::string& name);

struct HotnessConfig {
  HotnessMode mode = HotnessMode::Exact;
  util::SketchParams sketch{};
  /// Sketch mode: cap on exactly-tracked candidate keys (the keys the
  /// epoch close can materialize). Hot keys are admitted when their
  /// estimate clears an adaptive floor; overflow compacts to the top
  /// 3/4 and raises the floor.
  std::uint32_t candidates = 1u << 13;

  friend bool operator==(const HotnessConfig&, const HotnessConfig&) = default;
};

/// Key adapters: 64-bit fingerprint for the sketch substrates plus
/// checkpoint serialization. Fingerprint collisions only ever merge two
/// keys' counts (an overcount), so the no-undercount invariant survives.
struct PageKeyCodec {
  [[nodiscard]] static std::uint64_t fingerprint(const PageKey& key) noexcept {
    return key.page_va ^ (static_cast<std::uint64_t>(key.pid) << 48);
  }
  static void save(util::ckpt::Writer& w, const PageKey& key) {
    w.put_u64(key.pid);
    w.put_u64(key.page_va);
  }
  [[nodiscard]] static PageKey load(util::ckpt::Reader& r) {
    PageKey key;
    key.pid = static_cast<mem::Pid>(r.get_u64());
    key.page_va = r.get_u64();
    return key;
  }
};

template <typename Key, typename Count, typename Hash, typename Codec>
class BasicHotnessStore {
 public:
  using MapType = util::FlatHashMap<Key, Count, Hash>;

  BasicHotnessStore() = default;
  explicit BasicHotnessStore(const HotnessConfig& config) { configure(config); }

  /// (Re)configure; drops all state. Exact mode allocates nothing.
  void configure(const HotnessConfig& config) {
    cfg_ = config;
    exact_ = MapType{};
    candidates_ = util::FlatHashSet<Key, Hash>{};
    scratch_.clear();
    scratch_.shrink_to_fit();
    floor_ = 0;
    total_ = 0;
    if (cfg_.mode == HotnessMode::Sketch) {
      cms_ = util::CountMinSketch(cfg_.sketch.width, cfg_.sketch.depth,
                                  cfg_.sketch.seed);
      candidates_.reserve(cfg_.candidates);
      scratch_.reserve(cfg_.candidates);
    } else {
      cms_ = util::CountMinSketch{};
    }
  }

  /// Exact running total of everything added since the last epoch close —
  /// a plain u64 accumulator in both modes, never a sum of estimates.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Keys the epoch close can materialize (exact size or candidate count).
  [[nodiscard]] std::size_t tracked() const noexcept {
    return cfg_.mode == HotnessMode::Exact ? exact_.size()
                                           : candidates_.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return exact_.memory_bytes() + cms_.memory_bytes() +
           candidates_.memory_bytes() +
           scratch_.capacity() * sizeof(scratch_[0]);
  }

  void add(const Key& key, Count n = 1) {
    total_ += n;
    if (cfg_.mode == HotnessMode::Exact) {
      exact_[key] += n;
      return;
    }
    cms_.add(Codec::fingerprint(key), static_cast<std::uint32_t>(n));
    const std::uint64_t est = cms_.estimate(Codec::fingerprint(key));
    if (est > floor_) {
      candidates_.insert(key);
      if (candidates_.size() > cfg_.candidates) compact();
    }
  }

  /// Exact count, or the sketch's one-sided (>= true) estimate.
  [[nodiscard]] std::uint64_t estimate(const Key& key) const {
    if (cfg_.mode == HotnessMode::Exact) {
      const auto it = exact_.find(key);
      return it == exact_.end() ? 0 : it->second;
    }
    return cms_.estimate(Codec::fingerprint(key));
  }

  /// Close the epoch into `out` and reset. Exact mode swaps the
  /// accumulator out (out's previous buffer becomes next epoch's
  /// accumulator — the zero-allocation protocol); sketch mode fills `out`
  /// with the candidates' clamped estimates in ascending key order.
  /// Returns the exact total added this epoch.
  std::uint64_t end_epoch_into(MapType& out) {
    const std::uint64_t total = total_;
    total_ = 0;
    if (cfg_.mode == HotnessMode::Exact) {
      out.swap(exact_);
      exact_.clear();
      return total;
    }
    gather_candidates();
    out.clear();
    out.reserve(scratch_.size());
    constexpr std::uint64_t kCeil = std::numeric_limits<Count>::max();
    for (const auto& [est, key] : scratch_) {
      out[key] = static_cast<Count>(std::min(kCeil, est));
    }
    cms_.clear();
    candidates_.clear();
    floor_ = 0;
    return total;
  }

  /// Reset epoch state without materializing.
  void clear() {
    exact_.clear();
    if (cfg_.mode == HotnessMode::Sketch) cms_.clear();
    candidates_.clear();
    floor_ = 0;
    total_ = 0;
  }

  /// Epoch-barrier fold of a shard's accumulation into this store; clears
  /// the shard. Callers fold shards in ascending shard order so contents
  /// and iteration order stay a pure function of the simulation. Exact
  /// mode folds counts in the shard's slot order (the historical merge);
  /// sketch mode merges cell-wise saturating and re-admits the shard's
  /// candidates in ascending key order.
  void merge_from(BasicHotnessStore& shard) {
    if (cfg_.mode != shard.cfg_.mode) {
      throw std::logic_error("HotnessStore::merge_from: mode mismatch");
    }
    total_ += shard.total_;
    if (cfg_.mode == HotnessMode::Exact) {
      for (const auto& [key, count] : shard.exact_) {
        exact_[key] += count;
      }
      shard.exact_.clear();
      shard.total_ = 0;
      return;
    }
    cms_.merge_add(shard.cms_);
    shard.gather_candidates();
    for (const auto& [est, key] : shard.scratch_) {
      // Re-check against the merged sketch (estimates only grow).
      if (cms_.estimate(Codec::fingerprint(key)) > floor_) {
        candidates_.insert(key);
        if (candidates_.size() > cfg_.candidates) compact();
      }
    }
    shard.cms_.clear();
    shard.candidates_.clear();
    shard.floor_ = 0;
    shard.total_ = 0;
  }

  /// Exact-mode accessor for consumers that assume true counts
  /// (fold_sorted checkpoint serialization, Fig. 5 CDF inputs). Throws
  /// std::logic_error in sketch mode.
  [[nodiscard]] const MapType& exact_counts() const {
    if (cfg_.mode != HotnessMode::Exact) {
      throw std::logic_error(
          "HotnessStore: exact_counts() called in sketch mode");
    }
    return exact_;
  }

  /// Sketch-mode accessor (accuracy diagnostics). Throws in exact mode.
  [[nodiscard]] const util::CountMinSketch& sketch() const {
    if (cfg_.mode != HotnessMode::Sketch) {
      throw std::logic_error("HotnessStore: sketch() called in exact mode");
    }
    return cms_;
  }

  friend bool operator==(const BasicHotnessStore& a,
                         const BasicHotnessStore& b) {
    return a.cfg_ == b.cfg_ && a.total_ == b.total_ && a.floor_ == b.floor_ &&
           a.exact_ == b.exact_ && a.cms_ == b.cms_ &&
           a.candidates_ == b.candidates_;
  }

  /// Checkpoint round trip. The mode byte, candidate cap and sketch shape
  /// must match this store's configuration on load; a mismatch throws
  /// CkptError(section) so the caller falls back to a cold start.
  void save_state(util::ckpt::Writer& w, const char* section) const {
    (void)section;
    w.put_u8(static_cast<std::uint8_t>(cfg_.mode));
    w.put_u64(total_);
    if (cfg_.mode == HotnessMode::Exact) {
      w.put_u64(exact_.size());
      exact_.fold_sorted([&w](const Key& key, Count count) {
        Codec::save(w, key);
        if constexpr (sizeof(Count) == 4) {
          w.put_u32(count);
        } else {
          w.put_u64(count);
        }
      });
      return;
    }
    w.put_u32(cfg_.candidates);
    w.put_u64(floor_);
    cms_.save_state(w);
    w.put_u64(candidates_.size());
    candidates_.fold_sorted([&w](const Key& key) { Codec::save(w, key); });
  }

  void load_state(util::ckpt::Reader& r, const char* section) {
    const auto mode = static_cast<HotnessMode>(r.get_u8());
    if (mode != cfg_.mode) {
      throw util::ckpt::CkptError(section, "hotness mode mismatch");
    }
    total_ = r.get_u64();
    if (cfg_.mode == HotnessMode::Exact) {
      exact_.clear();
      const std::uint64_t count = r.get_u64();
      exact_.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        const Key key = Codec::load(r);
        if constexpr (sizeof(Count) == 4) {
          exact_[key] = r.get_u32();
        } else {
          exact_[key] = r.get_u64();
        }
      }
      return;
    }
    if (r.get_u32() != cfg_.candidates) {
      throw util::ckpt::CkptError(section, "hotness candidate cap mismatch");
    }
    floor_ = r.get_u64();
    cms_.load_state(r, section);
    candidates_.clear();
    const std::uint64_t count = r.get_u64();
    candidates_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      candidates_.insert(Codec::load(r));
    }
  }

 private:
  /// Fill scratch_ with (estimate, key) for every candidate, ascending
  /// key order. In-place sort of a capacity-retaining vector: no steady-
  /// state allocation.
  void gather_candidates() {
    scratch_.clear();
    for (const Key& key : candidates_) {
      scratch_.emplace_back(cms_.estimate(Codec::fingerprint(key)), key);
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
  }

  /// Keep the hottest 3/4 of the cap, raise the admission floor to the
  /// coldest survivor. Deterministic: full order is (estimate desc, key
  /// asc), a strict total order over candidates.
  void compact() {
    gather_candidates();
    std::sort(scratch_.begin(), scratch_.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const std::size_t keep =
        std::max<std::size_t>(1, (cfg_.candidates / 4) * 3);
    if (scratch_.size() > keep) scratch_.resize(keep);
    floor_ = std::max(floor_, scratch_.back().first);
    candidates_.clear();
    for (const auto& [est, key] : scratch_) candidates_.insert(key);
  }

  HotnessConfig cfg_{};
  MapType exact_;
  util::CountMinSketch cms_;
  util::FlatHashSet<Key, Hash> candidates_;
  std::vector<std::pair<std::uint64_t, Key>> scratch_;
  std::uint64_t floor_ = 0;  ///< sketch-mode admission floor
  std::uint64_t total_ = 0;  ///< exact sum of adds since last epoch close
};

/// Seen-key set that runs exact (FlatHashSet) or sketched (Bloom filter).
/// In sketch mode insert() can return a false "already seen" (a Bloom
/// false positive) but never a false "new" for a seen key — downstream
/// first-touch consumers may miss a page with tiny probability but never
/// double-report one.
template <typename Key, typename Hash, typename Codec>
class BasicHotnessSet {
 public:
  BasicHotnessSet() = default;
  explicit BasicHotnessSet(const HotnessConfig& config) { configure(config); }

  void configure(const HotnessConfig& config) {
    cfg_ = config;
    exact_ = util::FlatHashSet<Key, Hash>{};
    approx_size_ = 0;
    if (cfg_.mode == HotnessMode::Sketch) {
      bloom_ = util::BloomFilter(cfg_.sketch.bloom_bits,
                                 cfg_.sketch.bloom_hashes, cfg_.sketch.seed);
    } else {
      bloom_ = util::BloomFilter{};
    }
  }

  /// True when the key was definitely not seen before.
  bool insert(const Key& key) {
    if (cfg_.mode == HotnessMode::Exact) return exact_.insert(key);
    const bool definitely_new = bloom_.insert(Codec::fingerprint(key));
    if (definitely_new) ++approx_size_;
    return definitely_new;
  }

  [[nodiscard]] bool maybe_contains(const Key& key) const {
    return cfg_.mode == HotnessMode::Exact
               ? exact_.contains(key)
               : bloom_.maybe_contains(Codec::fingerprint(key));
  }

  /// Exact size, or the count of definitely-new inserts (a lower bound on
  /// distinct keys in sketch mode).
  [[nodiscard]] std::uint64_t size() const noexcept {
    return cfg_.mode == HotnessMode::Exact ? exact_.size() : approx_size_;
  }
  friend bool operator==(const BasicHotnessSet& a, const BasicHotnessSet& b) {
    return a.cfg_ == b.cfg_ && a.approx_size_ == b.approx_size_ &&
           a.exact_ == b.exact_ && a.bloom_ == b.bloom_;
  }

  void save_state(util::ckpt::Writer& w, const char* section) const {
    (void)section;
    w.put_u8(static_cast<std::uint8_t>(cfg_.mode));
    if (cfg_.mode == HotnessMode::Exact) {
      w.put_u64(exact_.size());
      exact_.fold_sorted([&w](const Key& key) { Codec::save(w, key); });
      return;
    }
    w.put_u64(approx_size_);
    bloom_.save_state(w);
  }

  void load_state(util::ckpt::Reader& r, const char* section) {
    const auto mode = static_cast<HotnessMode>(r.get_u8());
    if (mode != cfg_.mode) {
      throw util::ckpt::CkptError(section, "hotness mode mismatch");
    }
    if (cfg_.mode == HotnessMode::Exact) {
      exact_.clear();
      const std::uint64_t count = r.get_u64();
      exact_.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        exact_.insert(Codec::load(r));
      }
      return;
    }
    approx_size_ = r.get_u64();
    bloom_.load_state(r, section);
  }

 private:
  HotnessConfig cfg_{};
  util::FlatHashSet<Key, Hash> exact_;
  util::BloomFilter bloom_;
  std::uint64_t approx_size_ = 0;
};

/// The concrete stores the profiler wires up (core/ranking.hpp aliases'
/// sketchable counterparts).
using HotnessCounts =
    BasicHotnessStore<PageKey, std::uint32_t, PageKeyHash, PageKeyCodec>;
using HotnessTruth =
    BasicHotnessStore<PageKey, std::uint64_t, PageKeyHash, PageKeyCodec>;
using PageHotnessSet = BasicHotnessSet<PageKey, PageKeyHash, PageKeyCodec>;

}  // namespace tmprof::core
