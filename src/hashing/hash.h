#ifndef SETREC_HASHING_HASH_H_
#define SETREC_HASHING_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "hashing/random.h"

namespace setrec {

/// The Mersenne prime 2^61 - 1 used for pairwise-independent hashing and for
/// the characteristic-polynomial field GF(p).
inline constexpr uint64_t kMersenne61 = (1ull << 61) - 1;

/// Reduces a 128-bit product modulo 2^61 - 1.
inline uint64_t Mod61(__uint128_t x) {
  uint64_t lo = static_cast<uint64_t>(x) & kMersenne61;
  uint64_t hi = static_cast<uint64_t>(x >> 61);
  uint64_t r = lo + hi;
  if (r >= kMersenne61) r -= kMersenne61;
  // One more fold covers the largest possible inputs.
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

/// A pairwise-independent hash h(x) = (a*x + b) mod (2^61 - 1), with a != 0.
/// This is the "O(log s)-bit pairwise independent hash" primitive the paper
/// uses for child-set fingerprints and for the l0-estimator's level hash.
class PairwiseHash {
 public:
  /// Draws (a, b) deterministically from `seed`.
  explicit PairwiseHash(uint64_t seed);

  /// Full 61-bit hash value in [0, 2^61 - 1).
  uint64_t Hash(uint64_t x) const {
    __uint128_t ax = static_cast<__uint128_t>(a_) * (x % kMersenne61);
    uint64_t r = Mod61(ax) + b_;
    if (r >= kMersenne61) r -= kMersenne61;
    return r;
  }

  /// Hash reduced to [0, bound).
  uint64_t HashRange(uint64_t x, uint64_t bound) const {
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(Hash(x)) * bound) >> 61);
  }

  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }

 private:
  uint64_t a_;
  uint64_t b_;
};

/// A seeded family of strong (well-mixed) hash functions over 64-bit words
/// and byte strings. Not pairwise independent in the formal sense, but used
/// where the paper needs "a hash function": IBLT bucket choice, checksums,
/// set fingerprints. Both parties construct identical families from the
/// shared public-coin seed.
class HashFamily {
 public:
  /// `seed` selects the family; `tag` selects the member within a protocol.
  HashFamily(uint64_t seed, uint64_t tag);

  /// Hashes a 64-bit key.
  uint64_t HashU64(uint64_t x) const;

  /// Hashes a 64-bit key with an extra index, e.g. one per IBLT partition.
  uint64_t HashU64Indexed(uint64_t x, uint64_t index) const;

  /// Hashes a byte string (xxhash-style multiply-rotate over 8-byte lanes;
  /// defined once, in HashBytesSeeds below).
  uint64_t HashBytes(const uint8_t* data, size_t n) const;
  uint64_t HashBytes(const std::vector<uint8_t>& data) const {
    return HashBytes(data.data(), data.size());
  }

  /// {a.HashBytes(data, n), b.HashBytes(data, n)} from one pass over the
  /// bytes: each lane is loaded and mixed once, and the two families'
  /// multiply-rotate chains run side by side. This is the IBLT hot path,
  /// where every key is hashed by a bucket and a checksum family; inline,
  /// so a constant `n` (8-byte keys) folds the loop and the tail away.
  static std::array<uint64_t, 2> HashBytesPair(const HashFamily& a,
                                               const HashFamily& b,
                                               const uint8_t* data, size_t n) {
    return HashBytesSeeds<2>({a.seed_, b.seed_}, data, n);
  }

  uint64_t seed() const { return seed_; }

 private:
  /// The one definition of the byte hash, run for K seeds in one pass.
  /// Per 8-byte lane: a seed-independent mix m = Mix64(lane * kPrime2),
  /// then per seed h = rotl(h ^ m, 27) * kPrime1 + kPrime2, starting from
  /// h = seed ^ (n * kPrime1). The remaining n % 8 bytes form a
  /// little-endian tail word t, and each result is Mix64(h ^ Mix64(t +
  /// kPrime2)).
  // LINT(alloc-free) — every IBLT key hash runs through here: pure mixing.
  template <size_t K>
  static std::array<uint64_t, K> HashBytesSeeds(
      const std::array<uint64_t, K>& seeds, const uint8_t* data, size_t n) {
    constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
    constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
    std::array<uint64_t, K> h{};
    for (size_t k = 0; k < K; ++k) h[k] = seeds[k] ^ (n * kPrime1);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t lane = 0;
      std::memcpy(&lane, data + i, 8);
      const uint64_t mixed = Mix64(lane * kPrime2);
      for (size_t k = 0; k < K; ++k) {
        const uint64_t x = h[k] ^ mixed;
        h[k] = ((x << 27) | (x >> 37)) * kPrime1 + kPrime2;
      }
    }
    uint64_t tail = 0;
    for (int shift = 0; i < n; ++i, shift += 8) {
      tail |= static_cast<uint64_t>(data[i]) << shift;
    }
    const uint64_t mixed_tail = Mix64(tail + kPrime2);
    for (size_t k = 0; k < K; ++k) h[k] = Mix64(h[k] ^ mixed_tail);
    return h;
  }
  // LINT(end)

  uint64_t seed_;
};

/// Order-invariant 64-bit fingerprint of a multiset of 64-bit elements:
/// sum of per-element mixes plus a mixed size term. Summation (rather than
/// XOR) makes the fingerprint sensitive to element multiplicity, so the same
/// function serves sets and multisets (Section 3.4). This is the "hash of
/// each of the sets" the paper's protocols use to ward against checksum
/// failures and to identify which child set an encoding belongs to.
uint64_t SetFingerprint(const std::vector<uint64_t>& elements,
                        const HashFamily& family);

}  // namespace setrec

#endif  // SETREC_HASHING_HASH_H_
