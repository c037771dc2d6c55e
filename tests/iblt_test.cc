#include "iblt/iblt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "hashing/random.h"

namespace setrec {
namespace {

std::vector<uint64_t> SortedU64(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(IbltConfigTest, PaddedCellsMultipleOfHashes) {
  IbltConfig config;
  config.cells = 13;
  config.num_hashes = 4;
  EXPECT_EQ(config.PaddedCells(), 16u);
  config.cells = 16;
  EXPECT_EQ(config.PaddedCells(), 16u);
}

TEST(IbltConfigTest, ForDifferenceScalesLinearly) {
  IbltConfig small = IbltConfig::ForDifference(10, 1);
  IbltConfig large = IbltConfig::ForDifference(1000, 1);
  EXPECT_GT(large.cells, 50 * small.cells / 10);
  EXPECT_GE(small.cells, 12u);
}

TEST(IbltConfigTest, FixedSerializedSize) {
  IbltConfig config;
  config.cells = 16;
  config.num_hashes = 4;
  config.key_width = 8;
  EXPECT_EQ(config.FixedSerializedSize(), 16u * (4 + 8 + 8));
}

TEST(IbltTest, InsertThenDecodePositive) {
  Iblt table(IbltConfig::ForDifference(8, 42));
  table.InsertU64(100);
  table.InsertU64(200);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SortedU64(decoded.value().positive),
            (std::vector<uint64_t>{100, 200}));
  EXPECT_TRUE(decoded.value().negative.empty());
}

TEST(IbltTest, EraseUnseenKeyDecodesNegative) {
  Iblt table(IbltConfig::ForDifference(8, 42));
  table.EraseU64(77);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().positive.empty());
  EXPECT_EQ(decoded.value().negative, (std::vector<uint64_t>{77}));
}

TEST(IbltTest, InsertEraseCancelsExactly) {
  Iblt table(IbltConfig::ForDifference(8, 42));
  for (uint64_t k = 0; k < 1000; ++k) table.InsertU64(k);
  for (uint64_t k = 0; k < 1000; ++k) table.EraseU64(k);
  EXPECT_TRUE(table.IsZero());
}

TEST(IbltTest, MixedSignsDecodeAsTwoSets) {
  Iblt table(IbltConfig::ForDifference(10, 7));
  table.InsertU64(1);
  table.InsertU64(2);
  table.EraseU64(3);
  table.EraseU64(4);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(SortedU64(decoded.value().positive),
            (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(SortedU64(decoded.value().negative),
            (std::vector<uint64_t>{3, 4}));
}

TEST(IbltTest, SubtractYieldsSymmetricDifference) {
  IbltConfig config = IbltConfig::ForDifference(10, 5);
  Iblt alice(config), bob(config);
  // Shared elements 0..999; Alice extra {5000, 5001}; Bob extra {6000}.
  for (uint64_t k = 0; k < 1000; ++k) {
    alice.InsertU64(k);
    bob.InsertU64(k);
  }
  alice.InsertU64(5000);
  alice.InsertU64(5001);
  bob.InsertU64(6000);
  ASSERT_TRUE(alice.Subtract(bob).ok());
  Result<IbltDecodeResult64> decoded = alice.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(SortedU64(decoded.value().positive),
            (std::vector<uint64_t>{5000, 5001}));
  EXPECT_EQ(SortedU64(decoded.value().negative),
            (std::vector<uint64_t>{6000}));
}

TEST(IbltTest, SubtractMismatchedConfigRejected) {
  Iblt a(IbltConfig::ForDifference(10, 5));
  Iblt b(IbltConfig::ForDifference(10, 6));  // Different seed.
  EXPECT_EQ(a.Subtract(b).code(), StatusCode::kInvalidArgument);
}

TEST(IbltTest, AddThenSubtractRoundTrips) {
  IbltConfig config = IbltConfig::ForDifference(10, 5);
  Iblt a(config), b(config);
  a.InsertU64(1);
  b.InsertU64(2);
  Iblt sum = a;
  ASSERT_TRUE(sum.Add(b).ok());
  ASSERT_TRUE(sum.Subtract(b).ok());
  Result<IbltDecodeResult64> decoded = sum.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().positive, (std::vector<uint64_t>{1}));
}

TEST(IbltTest, OverloadedTableFailsDetectably) {
  // 200 keys in a 12-cell table cannot decode; failure must be detected.
  Iblt table(IbltConfig::ForDifference(1, 3));
  for (uint64_t k = 0; k < 200; ++k) table.InsertU64(k);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDecodeFailure);
}

TEST(IbltTest, DecodePartialReportsIncomplete) {
  Iblt table(IbltConfig::ForDifference(1, 3));
  for (uint64_t k = 0; k < 200; ++k) table.InsertU64(k);
  IbltPartialDecode partial = table.DecodePartial();
  EXPECT_FALSE(partial.complete);
}

TEST(IbltTest, DecodeIsNonDestructive) {
  Iblt table(IbltConfig::ForDifference(8, 9));
  table.InsertU64(5);
  ASSERT_TRUE(table.DecodeU64().ok());
  Result<IbltDecodeResult64> again = table.DecodeU64();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().positive, (std::vector<uint64_t>{5}));
}

TEST(IbltTest, DuplicateKeyInsertionsDoNotDecode) {
  // Two copies of a key never become a pure cell: sets only.
  Iblt table(IbltConfig::ForDifference(8, 9));
  table.InsertU64(5);
  table.InsertU64(5);
  Result<IbltDecodeResult64> decoded = table.DecodeU64();
  EXPECT_FALSE(decoded.ok());
}

TEST(IbltTest, SerializeDeserializeRoundTrip) {
  IbltConfig config = IbltConfig::ForDifference(10, 21);
  Iblt table(config);
  for (uint64_t k = 0; k < 500; ++k) table.InsertU64(k * 3);
  table.EraseU64(999999);
  ByteWriter writer;
  table.Serialize(&writer);
  ByteReader reader(writer.bytes());
  Result<Iblt> restored = Iblt::Deserialize(&reader, config);
  ASSERT_TRUE(restored.ok());
  // Subtracting the restored copy from the original must cancel exactly.
  ASSERT_TRUE(table.Subtract(restored.value()).ok());
  EXPECT_TRUE(table.IsZero());
}

TEST(IbltTest, FixedSerializationHasExactSize) {
  IbltConfig config = IbltConfig::ForDifference(7, 22);
  Iblt table(config);
  table.InsertU64(1);
  ByteWriter writer;
  table.SerializeFixed(&writer);
  EXPECT_EQ(writer.size(), config.FixedSerializedSize());
  ByteReader reader(writer.bytes());
  Result<Iblt> restored = Iblt::DeserializeFixed(&reader, config);
  ASSERT_TRUE(restored.ok());
  Result<IbltDecodeResult64> decoded = restored.value().DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().positive, (std::vector<uint64_t>{1}));
}

TEST(IbltTest, DeserializeTruncatedRejected) {
  IbltConfig config = IbltConfig::ForDifference(7, 23);
  std::vector<uint8_t> junk = {1, 2, 3};
  ByteReader reader(junk);
  Result<Iblt> restored = Iblt::Deserialize(&reader, config);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

// Iblt::WriteFixedU64 must emit exactly what building the table and
// serializing it would, for every shape the set-of-sets protocols encode
// children with: ForDifference(d) child configs (iblt2) and the cascade's
// per-level configs (4 hashes, 6..40 cells), with empty, singleton and
// full (h = 16) children and more keys than cells, under several seeds.
std::vector<uint8_t> FixedBytesViaTable(const IbltConfig& config,
                                        const std::vector<uint64_t>& keys) {
  Iblt table(config);
  table.InsertBatch(keys);
  ByteWriter writer;
  table.SerializeFixed(&writer);
  return writer.Take();
}

void ExpectWriterMatchesTable(const IbltConfig& config, Rng* rng) {
  const size_t h = 16;
  for (size_t n : {size_t{0}, size_t{1}, h, config.PaddedCells() + 5}) {
    std::vector<uint64_t> keys(n);
    for (uint64_t& key : keys) key = rng->NextU64();
    std::vector<uint8_t> written(config.FixedSerializedSize(), 0xa5);
    Iblt::WriteFixedU64(config, keys.data(), keys.size(), written.data());
    EXPECT_EQ(written, FixedBytesViaTable(config, keys))
        << "cells " << config.cells << " seed " << config.seed << " n " << n;
  }
}

TEST(IbltFixedWriterTest, MatchesTableSerializationForDifferenceConfigs) {
  for (uint64_t seed : {1ull, 0x63686c64ull, 0xfeedfacecafebeefull}) {
    Rng rng(seed);
    for (size_t d = 1; d <= 64; ++d) {
      ExpectWriterMatchesTable(IbltConfig::ForDifference(d, seed), &rng);
    }
  }
}

TEST(IbltFixedWriterTest, MatchesTableSerializationForCascadeLevelConfigs) {
  for (uint64_t seed : {2ull, 0x6c63686cull, 0x0123456789abcdefull}) {
    Rng rng(seed);
    for (size_t cells = 6; cells <= 40; ++cells) {
      IbltConfig config;
      config.cells = cells;
      config.num_hashes = 4;
      config.key_width = 8;
      config.seed = DeriveSeed(seed, cells);
      ExpectWriterMatchesTable(config, &rng);
    }
  }
}

TEST(IbltFixedWriterTest, RepeatedKeysMatchTable) {
  // Duplicate keys drive counts to 2 and cancel key/check XORs, the edge
  // the serialized-form cell updates must reproduce too.
  IbltConfig config = IbltConfig::ForDifference(3, 11);
  std::vector<uint64_t> keys = {5, 5, 9, 9, 9, 0};
  std::vector<uint8_t> written(config.FixedSerializedSize());
  Iblt::WriteFixedU64(config, keys.data(), keys.size(), written.data());
  EXPECT_EQ(written, FixedBytesViaTable(config, keys));
}

TEST(BlobIbltTest, WideKeysRoundTrip) {
  IbltConfig config = IbltConfig::ForDifference(6, 31, /*key_width=*/24);
  Iblt table(config);
  std::vector<uint8_t> blob_a(24, 0xaa);
  std::vector<uint8_t> blob_b(24, 0);
  blob_b[23] = 7;
  table.Insert(blob_a);
  table.Erase(blob_b);
  Result<IbltDecodeResult> decoded = table.Decode();
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().positive.size(), 1u);
  ASSERT_EQ(decoded.value().negative.size(), 1u);
  EXPECT_EQ(decoded.value().positive[0], blob_a);
  EXPECT_EQ(decoded.value().negative[0], blob_b);
}

// --- Property sweep: decode success across difference sizes and key
// widths (Theorem 2.1: O(d) cells recover d keys w.h.p.). ---
struct SweepParam {
  size_t diff;
  size_t key_width;
};

class IbltDecodeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(IbltDecodeSweep, DecodesAtSizedCapacity) {
  const SweepParam param = GetParam();
  int successes = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    IbltConfig config =
        IbltConfig::ForDifference(param.diff, static_cast<uint64_t>(1000 + trial),
                                  param.key_width);
    Iblt table(config);
    Rng rng(static_cast<uint64_t>(trial) * 31 + param.diff);
    std::set<std::vector<uint8_t>> keys;
    while (keys.size() < param.diff) {
      std::vector<uint8_t> key(param.key_width);
      for (auto& b : key) b = static_cast<uint8_t>(rng.NextU64());
      keys.insert(key);
    }
    for (const auto& key : keys) table.Insert(key);
    Result<IbltDecodeResult> decoded = table.Decode();
    if (decoded.ok() && decoded.value().positive.size() == param.diff) {
      ++successes;
    }
  }
  // ForDifference targets w.h.p. decode; allow a couple of unlucky trials
  // (protocols amplify with retries on top of this).
  EXPECT_GE(successes, trials - 2)
      << "diff=" << param.diff << " width=" << param.key_width;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, IbltDecodeSweep,
    ::testing::Values(SweepParam{1, 8}, SweepParam{2, 8}, SweepParam{4, 8},
                      SweepParam{8, 8}, SweepParam{16, 8}, SweepParam{32, 8},
                      SweepParam{64, 8}, SweepParam{128, 8},
                      SweepParam{8, 16}, SweepParam{16, 48},
                      SweepParam{32, 100}));

// --- Property sweep: subtraction with a large shared core. ---
class IbltSubtractSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(IbltSubtractSweep, SharedCoreCancels) {
  const size_t diff = GetParam();
  IbltConfig config = IbltConfig::ForDifference(2 * diff, 777 + diff);
  Iblt alice(config), bob(config);
  Rng rng(diff);
  for (uint64_t k = 0; k < 5000; ++k) {
    uint64_t e = rng.NextU64();
    alice.InsertU64(e);
    bob.InsertU64(e);
  }
  std::vector<uint64_t> alice_only, bob_only;
  for (size_t i = 0; i < diff; ++i) {
    alice_only.push_back((1ull << 61) + i);
    bob_only.push_back((1ull << 62) + i);
    alice.InsertU64(alice_only.back());
    bob.InsertU64(bob_only.back());
  }
  ASSERT_TRUE(alice.Subtract(bob).ok());
  Result<IbltDecodeResult64> decoded = alice.DecodeU64();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(SortedU64(decoded.value().positive), alice_only);
  EXPECT_EQ(SortedU64(decoded.value().negative), bob_only);
}

INSTANTIATE_TEST_SUITE_P(Diffs, IbltSubtractSweep,
                         ::testing::Values(1, 2, 5, 10, 25, 60, 150));

}  // namespace
}  // namespace setrec
