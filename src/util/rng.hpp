#pragma once
/// \file rng.hpp
/// Deterministic, fast pseudo-random number generation.
///
/// The simulator must be bit-reproducible across runs for the Oracle policy
/// (which needs the *same* access stream the profiled epoch saw), so all
/// randomness flows through explicitly seeded Rng instances — never through
/// global state. xoshiro256** is used for speed; splitmix64 expands seeds.

#include <cstdint>

#include "util/assert.hpp"

namespace tmprof::util {

/// splitmix64 step; used to derive well-mixed state from small seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator (Blackman & Vigna). Satisfies
/// std::uniform_random_bit_generator so it composes with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Lemire's unbiased multiply-shift method.
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    TMPROF_ASSERT(bound > 0);
    // 128-bit multiply keeps the distribution unbiased for all bounds that
    // the simulator uses (page counts, footprints), without a modulo.
    using u128 = unsigned __int128;
    std::uint64_t x = (*this)();
    u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<u128>(x) * static_cast<u128>(bound);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  constexpr bool chance(double p) noexcept { return uniform() < p; }

  /// Raw state access for checkpoint/restore (util/ckpt.hpp): a resumed
  /// run must continue the exact stream the interrupted run was drawing.
  static constexpr std::size_t kStateWords = 4;
  [[nodiscard]] constexpr std::uint64_t state_word(std::size_t i) const noexcept {
    TMPROF_ASSERT(i < kStateWords);
    return state_[i];
  }
  constexpr void set_state_word(std::size_t i, std::uint64_t v) noexcept {
    TMPROF_ASSERT(i < kStateWords);
    state_[i] = v;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace tmprof::util
