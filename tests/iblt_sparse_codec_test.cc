// Fuzz round-trip tests for the sparse wire codec: sparse-encode, decode,
// and compare cell-for-cell against the in-memory table (via the fixed
// serialization, which lists every cell) for randomized tables across the
// shapes the protocols actually send — empty, singleton, lightly loaded,
// saturated, and wide blob keys. Also covers the SerializeWith /
// DeserializeWith codec dispatch.
//
// Runs under the `fast` ctest label, so the asan preset exercises every
// decode path with sanitizers on.

#include <gtest/gtest.h>

#include <vector>

#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {
namespace {

std::vector<uint8_t> RandomKey(size_t width, Rng* rng) {
  std::vector<uint8_t> key(width);
  for (auto& b : key) b = static_cast<uint8_t>(rng->NextU64());
  return key;
}

// Cell-for-cell equality: the fixed serialization lists count, check, and
// every key byte for every cell, so byte equality there is exactly "the
// decoder rebuilt the table the encoder had".
std::vector<uint8_t> FixedBytes(const Iblt& table) {
  ByteWriter writer;
  table.SerializeFixed(&writer);
  return writer.bytes();
}

Iblt SparseRoundTrip(const Iblt& table, const IbltConfig& config) {
  ByteWriter writer;
  table.SerializeSparse(&writer);
  ByteReader reader(writer.bytes());
  Result<Iblt> restored = Iblt::DeserializeSparse(&reader, config);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(reader.empty()) << "frame must consume exactly its bytes";
  return std::move(restored).value();
}

TEST(IbltSparseCodecTest, FuzzRoundTripMatchesDenseCellForCell) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    IbltConfig config;
    config.cells = 8 + rng.NextU64() % 200;
    config.num_hashes = 4;
    config.key_width = 8 + 8 * (rng.NextU64() % 9);  // 8..72: wide blobs too.
    config.seed = rng.NextU64();
    Iblt table(config);
    // Load levels from empty through saturated (inserts far beyond cells).
    const size_t load = rng.NextU64() % (2 * config.cells);
    for (size_t i = 0; i < load; ++i) {
      std::vector<uint8_t> key = RandomKey(config.key_width, &rng);
      switch (rng.NextU64() % 3) {
        case 0:
          table.Insert(key);
          break;
        case 1:
          table.Erase(key);
          break;
        default:  // |count| > 1 cells, exercising the escape list.
          table.Insert(key);
          table.Insert(key);
          break;
      }
    }

    Iblt restored = SparseRoundTrip(table, config);
    ASSERT_EQ(FixedBytes(restored), FixedBytes(table))
        << "trial=" << trial << " cells=" << config.cells
        << " width=" << config.key_width << " load=" << load;

    // The sparse frame never expands: mode-0 fallback bounds it at the
    // dense stream plus the one mode byte.
    ByteWriter dense, sparse;
    table.Serialize(&dense);
    table.SerializeSparse(&sparse);
    EXPECT_LE(sparse.bytes().size(), dense.bytes().size() + 1);
  }
}

TEST(IbltSparseCodecTest, EmptyAndSingletonTables) {
  IbltConfig config = IbltConfig::ForDifference(16, 7, /*key_width=*/24);
  Iblt empty(config);
  EXPECT_EQ(FixedBytes(SparseRoundTrip(empty, config)), FixedBytes(empty));

  Iblt one(config);
  Rng rng(7);
  one.Insert(RandomKey(24, &rng));
  EXPECT_EQ(FixedBytes(SparseRoundTrip(one, config)), FixedBytes(one));
  // A singleton in a mostly-empty table is the codec's best case; it must
  // come in well under the dense stream.
  ByteWriter dense, sparse;
  one.Serialize(&dense);
  one.SerializeSparse(&sparse);
  EXPECT_LT(sparse.bytes().size(), dense.bytes().size() / 2);
}

TEST(IbltSparseCodecTest, SerializeWithDispatchesOnCodec) {
  IbltConfig config = IbltConfig::ForDifference(16, 21, /*key_width=*/8);
  Iblt table(config);
  Rng rng(21);
  for (int i = 0; i < 11; ++i) table.Insert(RandomKey(8, &rng));

  // kDense emits the legacy stream byte for byte.
  ByteWriter legacy, dense;
  table.Serialize(&legacy);
  table.SerializeWith(WireCodec::kDense, &dense);
  EXPECT_EQ(dense.bytes(), legacy.bytes());

  // kSparse emits exactly the sparse frame, which the other half decodes
  // via the same dispatch.
  ByteWriter direct, sparse;
  table.SerializeSparse(&direct);
  table.SerializeWith(WireCodec::kSparse, &sparse);
  EXPECT_EQ(sparse.bytes(), direct.bytes());
  ByteReader reader(sparse.bytes());
  Result<Iblt> restored =
      Iblt::DeserializeWith(WireCodec::kSparse, &reader, config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(reader.empty());
  EXPECT_EQ(FixedBytes(restored.value()), FixedBytes(table));
}

}  // namespace
}  // namespace setrec
