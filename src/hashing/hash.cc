#include "hashing/hash.h"

#include "hashing/random.h"

namespace setrec {

PairwiseHash::PairwiseHash(uint64_t seed) {
  uint64_t state = DeriveSeed(seed, /*tag=*/0x70617772ull);  // "pawr"
  do {
    a_ = SplitMix64(&state) & kMersenne61;
  } while (a_ == 0 || a_ >= kMersenne61);
  b_ = SplitMix64(&state) & kMersenne61;
  if (b_ >= kMersenne61) b_ -= kMersenne61;
}

HashFamily::HashFamily(uint64_t seed, uint64_t tag)
    : seed_(DeriveSeed(seed, tag)) {}

uint64_t HashFamily::HashU64(uint64_t x) const { return Mix64(x ^ seed_); }

uint64_t HashFamily::HashU64Indexed(uint64_t x, uint64_t index) const {
  return Mix64(x ^ Mix64(seed_ + 0x9e3779b97f4a7c15ull * (index + 1)));
}

uint64_t HashFamily::HashBytes(const uint8_t* data, size_t n) const {
  return HashBytesSeeds<1>({seed_}, data, n)[0];
}

uint64_t SetFingerprint(const std::vector<uint64_t>& elements,
                        const HashFamily& family) {
  uint64_t sum = 0;
  for (uint64_t e : elements) sum += family.HashU64(e);
  return sum + Mix64(family.seed() ^ (elements.size() * 0x51ed2701eb0aa3ddull));
}

}  // namespace setrec
