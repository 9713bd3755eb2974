#pragma once
/// \file sketch.hpp
/// Probabilistic hotness substrates: a count-min sketch (conservative
/// update) and a Bloom filter, the building blocks of the sketch-mode
/// hotness store (docs/SKETCH.md).
///
/// Both structures are deterministic: their hash families are derived from
/// an explicit seed through the splitmix64 stream (util/rng.hpp), so two
/// instances built with the same parameters and fed the same stream are
/// bitwise identical — the property the sharded engine's barrier merge and
/// the checkpoint/resume tests rely on.
///
/// The count-min sketch uses *conservative update*: an add of n raises only
/// the cells that would otherwise fall below min+n. This keeps the
/// one-sided error guarantee (estimate >= true count, never under) while
/// shrinking the overcount substantially on skewed streams. Conservative
/// update also composes with the barrier merge: every cell a key hashes to
/// stays >= that key's true count, so a cell-wise saturating add of shard
/// sketches preserves the no-undercount invariant for the merged stream.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ckpt.hpp"
#include "util/rng.hpp"

namespace tmprof::util {

/// Shared sizing knobs for the sketch-mode hotness store. Widths and bit
/// counts are rounded up to powers of two by the constructors.
struct SketchParams {
  /// Count-min cells per row. Error bound: estimate <= true + (e/width)*N
  /// with probability >= 1 - e^-depth, N = total stream count.
  std::uint32_t width = 1u << 14;
  std::uint32_t depth = 4;
  /// Hash-family seed. Both sketch and Bloom derive their per-row seeds
  /// from it via the splitmix64 stream.
  std::uint64_t seed = 0x5eedb10c4a7c15ULL;
  /// Bloom filter size in bits (new-page detection).
  std::uint64_t bloom_bits = 1ull << 20;
  std::uint32_t bloom_hashes = 4;

  friend bool operator==(const SketchParams&, const SketchParams&) = default;
};

/// Count-min sketch over 64-bit key fingerprints with u32 saturating cells.
class CountMinSketch {
 public:
  /// Unconfigured (zero rows); add/estimate require configuration.
  CountMinSketch() = default;
  CountMinSketch(std::uint32_t width, std::uint32_t depth, std::uint64_t seed);

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] bool configured() const noexcept { return !cells_.empty(); }
  /// Total stream count N added so far (exact; merge-accumulated).
  [[nodiscard]] std::uint64_t added() const noexcept { return added_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cells_.size() * sizeof(std::uint32_t) +
           row_seeds_.size() * sizeof(std::uint64_t);
  }
  /// epsilon of the (epsilon, delta) bound: e / width.
  [[nodiscard]] double epsilon() const noexcept;
  /// delta of the (epsilon, delta) bound: e^-depth.
  [[nodiscard]] double delta() const noexcept;

  /// Conservative update: raise the key's cells to min(cells) + n,
  /// saturating at the u32 ceiling.
  void add(std::uint64_t fingerprint, std::uint32_t n = 1);
  /// One-sided estimate: min over the key's cells; >= the true count.
  [[nodiscard]] std::uint64_t estimate(std::uint64_t fingerprint) const;

  /// Zero all cells, keep the allocation (epoch swap-and-clear protocol).
  void clear() noexcept;

  /// Cell-wise saturating add (the epoch-barrier shard merge). Requires
  /// identical (width, depth, seed); throws std::logic_error otherwise.
  void merge_add(const CountMinSketch& other);

  friend bool operator==(const CountMinSketch&,
                         const CountMinSketch&) = default;

  /// Checkpoint round trip. load_state validates the stored shape against
  /// this instance and throws CkptError(section) on mismatch, so a resume
  /// with different sketch parameters falls back to a cold start.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r, const char* section);

 private:
  [[nodiscard]] std::size_t cell_index(std::uint32_t row,
                                       std::uint64_t fingerprint) const {
    // Per-row seeded full-avalanche mix (splitmix64 finalizer). Rows use
    // independent seeds from the splitmix stream, giving the pairwise-
    // independent-enough family the epsilon-delta analysis assumes.
    std::uint64_t x = fingerprint ^ row_seeds_[row];
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(row) * width_ +
           static_cast<std::size_t>(x & mask_);
  }

  std::uint32_t width_ = 0;  ///< cells per row (power of two)
  std::uint32_t depth_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t added_ = 0;
  std::vector<std::uint64_t> row_seeds_;
  std::vector<std::uint32_t> cells_;  ///< depth_ rows of width_ cells
};

/// Bloom filter over 64-bit key fingerprints. No false negatives: once a
/// fingerprint is inserted, maybe_contains() is true forever.
class BloomFilter {
 public:
  BloomFilter() = default;
  BloomFilter(std::uint64_t bits, std::uint32_t hashes, std::uint64_t seed);

  [[nodiscard]] bool configured() const noexcept { return !words_.empty(); }

  /// Insert; returns true when the fingerprint was *definitely new* (at
  /// least one of its bits was clear). A false return may be a false
  /// positive of the filter, never the reverse.
  bool insert(std::uint64_t fingerprint);
  [[nodiscard]] bool maybe_contains(std::uint64_t fingerprint) const;

  friend bool operator==(const BloomFilter&, const BloomFilter&) = default;

  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r, const char* section);

 private:
  [[nodiscard]] std::uint64_t bit_index(std::uint32_t hash,
                                        std::uint64_t fingerprint) const {
    std::uint64_t x = fingerprint ^ hash_seeds_[hash];
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x & mask_;
  }

  std::uint64_t bits_ = 0;  ///< power of two
  std::uint64_t mask_ = 0;
  std::uint32_t hashes_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::uint64_t> hash_seeds_;
  std::vector<std::uint64_t> words_;
};

}  // namespace tmprof::util
