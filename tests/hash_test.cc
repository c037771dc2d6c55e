#include "hashing/hash.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "hashing/random.h"

namespace setrec {
namespace {

TEST(Mod61Test, SmallValues) {
  EXPECT_EQ(Mod61(0), 0u);
  EXPECT_EQ(Mod61(1), 1u);
  EXPECT_EQ(Mod61(kMersenne61 - 1), kMersenne61 - 1);
  EXPECT_EQ(Mod61(kMersenne61), 0u);
  EXPECT_EQ(Mod61(kMersenne61 + 5), 5u);
}

TEST(Mod61Test, LargeProducts) {
  // (p-1)^2 mod p == 1.
  __uint128_t sq =
      static_cast<__uint128_t>(kMersenne61 - 1) * (kMersenne61 - 1);
  EXPECT_EQ(Mod61(sq), 1u);
}

TEST(PairwiseHashTest, DeterministicPerSeed) {
  PairwiseHash h1(3), h2(3), h3(4);
  EXPECT_EQ(h1.Hash(100), h2.Hash(100));
  EXPECT_NE(h1.a(), h3.a());
}

TEST(PairwiseHashTest, OutputsInField) {
  PairwiseHash h(9);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h.Hash(x), kMersenne61);
  }
}

TEST(PairwiseHashTest, HashRangeBounded) {
  PairwiseHash h(10);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h.HashRange(x, 17), 17u);
  }
}

TEST(PairwiseHashTest, LinearStructure) {
  // h(x) = (a x + b) mod p exactly.
  PairwiseHash h(11);
  for (uint64_t x : {0ull, 1ull, 123456789ull}) {
    __uint128_t expect = static_cast<__uint128_t>(h.a()) * (x % kMersenne61);
    uint64_t r = Mod61(expect) + h.b();
    if (r >= kMersenne61) r -= kMersenne61;
    EXPECT_EQ(h.Hash(x), r);
  }
}

TEST(HashFamilyTest, SeedAndTagSelectFamily) {
  HashFamily a(1, 2), b(1, 2), c(1, 3), d(2, 2);
  EXPECT_EQ(a.HashU64(42), b.HashU64(42));
  EXPECT_NE(a.HashU64(42), c.HashU64(42));
  EXPECT_NE(a.HashU64(42), d.HashU64(42));
}

TEST(HashFamilyTest, IndexedHashesDiffer) {
  HashFamily f(5, 6);
  EXPECT_NE(f.HashU64Indexed(42, 0), f.HashU64Indexed(42, 1));
  EXPECT_NE(f.HashU64Indexed(42, 1), f.HashU64Indexed(42, 2));
}

TEST(HashFamilyTest, BytesHashMatchesLengths) {
  HashFamily f(7, 8);
  std::vector<uint8_t> a = {1, 2, 3};
  std::vector<uint8_t> b = {1, 2, 3, 0};  // Same prefix, longer.
  EXPECT_NE(f.HashBytes(a), f.HashBytes(b));
  EXPECT_EQ(f.HashBytes(a), f.HashBytes(a));
}

TEST(HashFamilyTest, BytesHashAvalancheOnSample) {
  HashFamily f(9, 10);
  std::set<uint64_t> outputs;
  std::vector<uint8_t> data(16, 0);
  for (size_t i = 0; i < 128; ++i) {
    data[i / 8] = static_cast<uint8_t>(1u << (i % 8));
    outputs.insert(f.HashBytes(data));
    data[i / 8] = 0;
  }
  EXPECT_EQ(outputs.size(), 128u);
}

// HashBytesPair must equal two HashBytes calls bit for bit: it is the IBLT
// key hash, so any drift in its lane loop, tail or length term changes
// every table on the wire. Lengths 0-72 cover every tail size with 0-9
// full lanes; 96/328/488/808 are child-encoding blob widths.
TEST(HashFamilyTest, BytesPairMatchesTwoHashBytes) {
  Rng rng(21);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 72; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {96, 328, 488, 808});
  for (size_t n : lengths) {
    for (int trial = 0; trial < 8; ++trial) {
      HashFamily a(rng.NextU64(), rng.NextU64());
      HashFamily b(rng.NextU64(), rng.NextU64());
      std::vector<uint8_t> data(n);
      for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.NextU64());
      const std::array<uint64_t, 2> pair =
          HashFamily::HashBytesPair(a, b, data.data(), n);
      EXPECT_EQ(pair[0], a.HashBytes(data)) << "n=" << n;
      EXPECT_EQ(pair[1], b.HashBytes(data)) << "n=" << n;
    }
  }
}

// Known answers for HashBytes: the byte hash (lane loop, tail, length term)
// places every wide IBLT key, so a changed value is a changed wire.
TEST(HashFamilyTest, BytesHashKnownAnswers) {
  HashFamily f(0x5eed, 0x6275636b);
  const struct {
    size_t n;
    uint64_t hash;
  } rows[] = {{0, 0x2851fb5204dedb65ull},
              {5, 0x4e33c6a5ee50e86eull},
              {8, 0x1d0080987490c5c5ull},
              {13, 0x4b2786a136ddace7ull},
              {96, 0xb8e9c7dc084479b5ull}};
  for (const auto& row : rows) {
    std::vector<uint8_t> data(row.n);
    for (size_t i = 0; i < row.n; ++i) {
      data[i] = static_cast<uint8_t>(i * 37 + 1);
    }
    EXPECT_EQ(f.HashBytes(data), row.hash) << "n=" << row.n;
  }
}

TEST(SetFingerprintTest, OrderInvariant) {
  HashFamily f(11, 12);
  std::vector<uint64_t> a = {5, 9, 1};
  std::vector<uint64_t> b = {1, 5, 9};
  EXPECT_EQ(SetFingerprint(a, f), SetFingerprint(b, f));
}

TEST(SetFingerprintTest, MultiplicitySensitive) {
  HashFamily f(13, 14);
  std::vector<uint64_t> once = {5, 9};
  std::vector<uint64_t> twice = {5, 5, 9};
  EXPECT_NE(SetFingerprint(once, f), SetFingerprint(twice, f));
}

TEST(SetFingerprintTest, EmptyVsSingleton) {
  HashFamily f(15, 16);
  EXPECT_NE(SetFingerprint({}, f), SetFingerprint({0}, f));
}

TEST(SetFingerprintTest, SensitiveToElementChange) {
  HashFamily f(17, 18);
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {1, 2, 4};
  EXPECT_NE(SetFingerprint(a, f), SetFingerprint(b, f));
}

TEST(SetFingerprintTest, XorCancellationResistance) {
  // Sum-based fingerprints must distinguish {a,b} from {c,d} even when
  // a ^ b == c ^ d (the classic XOR-fingerprint weakness).
  HashFamily f(19, 20);
  std::vector<uint64_t> ab = {0x3, 0x5};  // xor = 6
  std::vector<uint64_t> cd = {0x2, 0x4};  // xor = 6
  EXPECT_NE(SetFingerprint(ab, f), SetFingerprint(cd, f));
}

}  // namespace
}  // namespace setrec
