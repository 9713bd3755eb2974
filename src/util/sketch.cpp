#include "util/sketch.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/assert.hpp"

namespace tmprof::util {

namespace {

std::uint64_t next_pow2(std::uint64_t n) noexcept {
  std::uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

CountMinSketch::CountMinSketch(std::uint32_t width, std::uint32_t depth,
                               std::uint64_t seed)
    : depth_(depth), seed_(seed) {
  TMPROF_EXPECTS(width >= 1 && depth >= 1);
  width_ = static_cast<std::uint32_t>(
      next_pow2(std::max<std::uint64_t>(2, width)));
  mask_ = width_ - 1;
  std::uint64_t sm = seed;
  row_seeds_.reserve(depth_);
  for (std::uint32_t row = 0; row < depth_; ++row) {
    row_seeds_.push_back(splitmix64(sm));
  }
  cells_.resize(static_cast<std::size_t>(width_) * depth_, 0);
}

double CountMinSketch::epsilon() const noexcept {
  return width_ == 0 ? 0.0 : std::exp(1.0) / static_cast<double>(width_);
}

double CountMinSketch::delta() const noexcept {
  return std::exp(-static_cast<double>(depth_));
}

void CountMinSketch::add(std::uint64_t fingerprint, std::uint32_t n) {
  TMPROF_ASSERT(configured());
  if (n == 0) return;
  added_ += n;
  std::uint64_t est = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t row = 0; row < depth_; ++row) {
    est = std::min<std::uint64_t>(est, cells_[cell_index(row, fingerprint)]);
  }
  // Conservative update: only lift cells up to min + n. Saturate instead
  // of wrapping so a hammered cell degrades to "very hot", not to zero.
  constexpr std::uint64_t kCeil = std::numeric_limits<std::uint32_t>::max();
  const std::uint32_t target =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(kCeil, est + n));
  for (std::uint32_t row = 0; row < depth_; ++row) {
    std::uint32_t& cell = cells_[cell_index(row, fingerprint)];
    if (cell < target) cell = target;
  }
}

std::uint64_t CountMinSketch::estimate(std::uint64_t fingerprint) const {
  TMPROF_ASSERT(configured());
  std::uint64_t est = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t row = 0; row < depth_; ++row) {
    est = std::min<std::uint64_t>(est, cells_[cell_index(row, fingerprint)]);
  }
  return est;
}

void CountMinSketch::clear() noexcept {
  for (std::uint32_t& cell : cells_) cell = 0;
  added_ = 0;
}

void CountMinSketch::merge_add(const CountMinSketch& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_) {
    throw std::logic_error("CountMinSketch::merge_add: shape mismatch");
  }
  constexpr std::uint64_t kCeil = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::uint64_t sum =
        static_cast<std::uint64_t>(cells_[i]) + other.cells_[i];
    cells_[i] = static_cast<std::uint32_t>(std::min(kCeil, sum));
  }
  added_ += other.added_;
}

void CountMinSketch::save_state(ckpt::Writer& w) const {
  w.put_u32(width_);
  w.put_u32(depth_);
  w.put_u64(seed_);
  w.put_u64(added_);
  for (const std::uint32_t cell : cells_) w.put_u32(cell);
}

void CountMinSketch::load_state(ckpt::Reader& r, const char* section) {
  const std::uint32_t width = r.get_u32();
  const std::uint32_t depth = r.get_u32();
  const std::uint64_t seed = r.get_u64();
  if (width != width_ || depth != depth_ || seed != seed_) {
    throw ckpt::CkptError(section, "count-min sketch shape mismatch");
  }
  added_ = r.get_u64();
  for (std::uint32_t& cell : cells_) cell = r.get_u32();
}

BloomFilter::BloomFilter(std::uint64_t bits, std::uint32_t hashes,
                         std::uint64_t seed)
    : hashes_(hashes), seed_(seed) {
  TMPROF_EXPECTS(bits >= 1 && hashes >= 1);
  bits_ = next_pow2(std::max<std::uint64_t>(64, bits));
  mask_ = bits_ - 1;
  // Offset the stream so a Bloom and a sketch sharing one SketchParams
  // seed still draw distinct hash families.
  std::uint64_t sm = seed ^ 0xb100f117e2a5c3d1ULL;
  hash_seeds_.reserve(hashes_);
  for (std::uint32_t h = 0; h < hashes_; ++h) {
    hash_seeds_.push_back(splitmix64(sm));
  }
  words_.resize(bits_ / 64, 0);
}

bool BloomFilter::insert(std::uint64_t fingerprint) {
  TMPROF_ASSERT(configured());
  bool definitely_new = false;
  for (std::uint32_t h = 0; h < hashes_; ++h) {
    const std::uint64_t bit = bit_index(h, fingerprint);
    std::uint64_t& word = words_[bit >> 6];
    const std::uint64_t mask = 1ull << (bit & 63);
    if ((word & mask) == 0) {
      definitely_new = true;
      word |= mask;
    }
  }
  return definitely_new;
}

bool BloomFilter::maybe_contains(std::uint64_t fingerprint) const {
  TMPROF_ASSERT(configured());
  for (std::uint32_t h = 0; h < hashes_; ++h) {
    const std::uint64_t bit = bit_index(h, fingerprint);
    if ((words_[bit >> 6] & (1ull << (bit & 63))) == 0) return false;
  }
  return true;
}

void BloomFilter::save_state(ckpt::Writer& w) const {
  w.put_u64(bits_);
  w.put_u32(hashes_);
  w.put_u64(seed_);
  for (const std::uint64_t word : words_) w.put_u64(word);
}

void BloomFilter::load_state(ckpt::Reader& r, const char* section) {
  const std::uint64_t bits = r.get_u64();
  const std::uint32_t hashes = r.get_u32();
  const std::uint64_t seed = r.get_u64();
  if (bits != bits_ || hashes != hashes_ || seed != seed_) {
    throw ckpt::CkptError(section, "bloom filter shape mismatch");
  }
  for (std::uint64_t& word : words_) word = r.get_u64();
}

}  // namespace tmprof::util
