#ifndef UOLAP_COMMON_RNG_H_
#define UOLAP_COMMON_RNG_H_

#include <array>
#include <cstdint>

#include "common/macros.h"

namespace uolap {

/// Deterministic, fast pseudo-random generator (xoshiro256**).
///
/// Every stochastic component in the repository (the TPC-H generator, the
/// workload shufflers, the property tests) draws from this generator so that
/// a given seed reproduces a bit-identical database and therefore
/// bit-identical experiment results.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from a single 64-bit value
  /// using the splitmix64 expansion recommended by the xoshiro authors.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi], inclusive on both ends.
  int64_t Uniform(int64_t lo, int64_t hi) {
    UOLAP_DCHECK(lo <= hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability `p` of returning true.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Full generator state, for checkpointing. Restoring a saved state
  /// continues the stream exactly where it left off.
  std::array<uint64_t, 4> SaveState() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void LoadState(const std::array<uint64_t, 4>& state) {
    for (int i = 0; i < 4; ++i) state_[i] = state[static_cast<size_t>(i)];
  }

  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Stateless 64-bit mix (splitmix64 finalizer). Used for hash values in the
/// engines' hash tables so that hash quality is deterministic and identical
/// across engines.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;  // avoid the finalizer's fixed point at 0
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace uolap

#endif  // UOLAP_COMMON_RNG_H_
