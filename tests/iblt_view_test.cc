// Tests for the arena-backed view decode API: view/Materialize equivalence
// on randomized blob keys, the zero-allocation guarantee of warm scratch
// decodes, the transparent byte-key comparator, and adversarial (truncated)
// IBLT serializations.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <vector>

#include "bench/alloc_counter.h"
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

TEST(IbltViewTest, ViewsMatchMaterializeAndOwningDecode) {
  for (size_t width : {8ul, 20ul, 36ul}) {
    for (size_t d : {1ul, 10ul, 200ul}) {
      IbltConfig config =
          IbltConfig::ForDifference(d, 500 + d + width, width);
      Iblt table(config);
      Rng rng(d * 97 + width);
      for (size_t i = 0; i < d; ++i) table.Insert(RandomKey(width, &rng));
      for (size_t i = 0; i < d / 2; ++i) table.Erase(RandomKey(width, &rng));

      DecodeScratch scratch;
      Result<IbltDecodeView> view = table.Decode(&scratch);
      Result<IbltDecodeResult> owning = table.Decode();
      ASSERT_EQ(view.ok(), owning.ok()) << "width=" << width << " d=" << d;
      if (!view.ok()) continue;  // Rare unlucky seed: both failed alike.

      // The peel order is deterministic, so views, their materialization,
      // and the owning decode must agree element for element.
      IbltDecodeResult materialized = view.value().Materialize();
      EXPECT_EQ(materialized.positive, owning.value().positive);
      EXPECT_EQ(materialized.negative, owning.value().negative);
      ASSERT_EQ(view.value().positive.size(), owning.value().positive.size());
      for (size_t i = 0; i < view.value().positive.size(); ++i) {
        EXPECT_TRUE(view.value().positive[i] == owning.value().positive[i]);
        EXPECT_EQ(view.value().positive[i].size, width);
      }
      ASSERT_EQ(view.value().negative.size(), owning.value().negative.size());
      for (size_t i = 0; i < view.value().negative.size(); ++i) {
        EXPECT_TRUE(view.value().negative[i] == owning.value().negative[i]);
      }
    }
  }
}

TEST(IbltViewTest, PartialDecodeViewsMatchOwning) {
  // Overloaded table: the partial decode must report the same (incomplete)
  // drain through both APIs.
  IbltConfig config = IbltConfig::ForDifference(2, 11, /*key_width=*/20);
  Iblt table(config);
  Rng rng(321);
  for (int i = 0; i < 300; ++i) table.Insert(RandomKey(20, &rng));

  DecodeScratch scratch;
  IbltPartialDecodeView view = table.DecodePartial(&scratch);
  IbltPartialDecode owning = table.DecodePartial();
  EXPECT_EQ(view.complete, owning.complete);
  IbltDecodeResult materialized = view.entries.Materialize();
  EXPECT_EQ(materialized.positive, owning.entries.positive);
  EXPECT_EQ(materialized.negative, owning.entries.negative);
}

TEST(IbltViewTest, WarmBlobDecodeIsAllocationFree) {
  const size_t width = 36;
  IbltConfig config = IbltConfig::ForDifference(128, 77, width);
  Iblt table(config);
  Rng rng(42);
  for (int i = 0; i < 128; ++i) table.Insert(RandomKey(width, &rng));
  for (int i = 0; i < 64; ++i) table.Erase(RandomKey(width, &rng));

  DecodeScratch scratch;
  Result<IbltDecodeView> warmup = table.Decode(&scratch);
  ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
  const size_t expect_pos = warmup.value().positive.size();
  const size_t expect_neg = warmup.value().negative.size();

  size_t allocs;
  {
    AllocationWindow window;
    Result<IbltDecodeView> decoded = table.Decode(&scratch);
    allocs = window.count();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().positive.size(), expect_pos);
    EXPECT_EQ(decoded.value().negative.size(), expect_neg);
  }
  EXPECT_EQ(allocs, 0u) << "warm blob-key decode must not hit the allocator";
}

TEST(IbltViewTest, WarmPartialDecodeIsAllocationFree) {
  // Even a failing (partial) decode stays allocation-free once warm — the
  // cascading protocol's steady state is exactly this.
  IbltConfig config = IbltConfig::ForDifference(4, 13, /*key_width=*/20);
  Iblt table(config);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) table.Insert(RandomKey(20, &rng));

  DecodeScratch scratch;
  (void)table.DecodePartial(&scratch);  // Warm-up.
  size_t allocs;
  {
    AllocationWindow window;
    IbltPartialDecodeView out = table.DecodePartial(&scratch);
    allocs = window.count();
    EXPECT_FALSE(out.complete);
  }
  EXPECT_EQ(allocs, 0u);
}

TEST(IbltViewTest, ScratchReuseAcrossConfigsKeepsViewsConsistent) {
  // Decode table A, hold nothing; decode table B of a different config
  // through the same scratch; B's views must describe B alone.
  IbltConfig config_a = IbltConfig::ForDifference(32, 1, /*key_width=*/16);
  IbltConfig config_b = IbltConfig::ForDifference(4, 2, /*key_width=*/40);
  Iblt a(config_a), b(config_b);
  Rng rng(5);
  for (int i = 0; i < 32; ++i) a.Insert(RandomKey(16, &rng));
  std::vector<uint8_t> b_key = RandomKey(40, &rng);
  b.Insert(b_key);

  DecodeScratch scratch;
  ASSERT_TRUE(a.Decode(&scratch).ok());
  Result<IbltDecodeView> decoded_b = b.Decode(&scratch);
  ASSERT_TRUE(decoded_b.ok());
  ASSERT_EQ(decoded_b.value().positive.size(), 1u);
  EXPECT_TRUE(decoded_b.value().positive[0] == b_key);
}

TEST(IbltViewTest, U64ViewMatchesOwningDecode) {
  for (size_t d : {1ul, 10ul, 300ul}) {
    IbltConfig config = IbltConfig::ForDifference(d, 900 + d);
    Iblt table(config);
    Rng rng(d * 31 + 5);
    for (size_t i = 0; i < d; ++i) table.InsertU64(rng.NextU64());
    for (size_t i = 0; i < d / 3; ++i) table.EraseU64(rng.NextU64());

    DecodeScratch scratch;
    Result<IbltDecodeView64> view = table.DecodeU64View(&scratch);
    Result<IbltDecodeResult64> owning = table.DecodeU64();
    ASSERT_EQ(view.ok(), owning.ok()) << "d=" << d;
    if (!view.ok()) continue;
    // Both run the same deterministic peel; the byte-mode arena stages keys
    // in the identical order, so the sides must agree element for element.
    IbltDecodeResult64 materialized = view.value().Materialize();
    EXPECT_EQ(materialized.positive, owning.value().positive);
    EXPECT_EQ(materialized.negative, owning.value().negative);
  }
}

TEST(IbltViewTest, WarmU64ViewDecodeIsAllocationFree) {
  IbltConfig config = IbltConfig::ForDifference(256, 123);
  Iblt table(config);
  Rng rng(7);
  for (int i = 0; i < 256; ++i) table.InsertU64(rng.NextU64());
  for (int i = 0; i < 128; ++i) table.EraseU64(rng.NextU64());

  DecodeScratch scratch;
  Result<IbltDecodeView64> warmup = table.DecodeU64View(&scratch);
  ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
  const size_t expect_pos = warmup.value().positive.size();
  const size_t expect_neg = warmup.value().negative.size();

  // The owning DecodeU64 pays capacity-growth allocations per call (the
  // ROADMAP item this API closes); the view path must be clean.
  size_t allocs;
  {
    AllocationWindow window;
    Result<IbltDecodeView64> decoded = table.DecodeU64View(&scratch);
    allocs = window.count();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().positive.size(), expect_pos);
    EXPECT_EQ(decoded.value().negative.size(), expect_neg);
  }
  EXPECT_EQ(allocs, 0u) << "warm u64 view decode must not hit the allocator";
}

TEST(IbltKeyViewTest, TransparentMapLookup) {
  std::map<std::vector<uint8_t>, int, KeyBytesLess> m;
  m[{1, 2, 3}] = 1;
  m[{1, 2, 4}] = 2;
  m[{1, 2}] = 3;

  const uint8_t raw[3] = {1, 2, 4};
  auto it = m.find(IbltKeyView{raw, 3});
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->second, 2);
  EXPECT_NE(m.find(IbltKeyView{raw, 2}), m.end());  // Prefix is its own key.
  const uint8_t missing[3] = {9, 9, 9};
  EXPECT_EQ(m.find(IbltKeyView{missing, 3}), m.end());

  // View-keyed maps probed with owned vectors (the naive protocol's shape).
  std::map<IbltKeyView, int, KeyBytesLess> by_view;
  by_view[IbltKeyView{raw, 3}] = 7;
  EXPECT_NE(by_view.find(std::vector<uint8_t>{1, 2, 4}), by_view.end());
  EXPECT_EQ(by_view.find(std::vector<uint8_t>{1, 2, 5}), by_view.end());
}

TEST(IbltAdversarialTest, TruncatedCompactCellsRejected) {
  IbltConfig config = IbltConfig::ForDifference(6, 33, /*key_width=*/12);
  Iblt table(config);
  Rng rng(11);
  for (int i = 0; i < 6; ++i) table.Insert(RandomKey(12, &rng));
  ByteWriter writer;
  table.Serialize(&writer);
  const std::vector<uint8_t>& bytes = writer.bytes();

  // Every proper prefix must fail cleanly with kParseError, whichever cell
  // field (count varint, checksum, key bytes) the cut lands in.
  for (size_t cut : {size_t{0}, size_t{1}, size_t{5}, bytes.size() / 3,
                     bytes.size() / 2, bytes.size() - 1}) {
    ByteReader reader(bytes.data(), cut);
    Result<Iblt> restored = Iblt::Deserialize(&reader, config);
    ASSERT_FALSE(restored.ok()) << "cut=" << cut;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  }
  ByteReader full(bytes);
  EXPECT_TRUE(Iblt::Deserialize(&full, config).ok());
}

TEST(IbltAdversarialTest, TruncatedFixedCellsRejected) {
  IbltConfig config = IbltConfig::ForDifference(5, 44, /*key_width=*/10);
  Iblt table(config);
  Rng rng(17);
  for (int i = 0; i < 5; ++i) table.Insert(RandomKey(10, &rng));
  ByteWriter writer;
  table.SerializeFixed(&writer);
  const std::vector<uint8_t>& bytes = writer.bytes();
  ASSERT_EQ(bytes.size(), config.FixedSerializedSize());

  for (size_t cut : {size_t{0}, size_t{3}, size_t{4}, size_t{11},
                     bytes.size() - 1}) {
    ByteReader reader(bytes.data(), cut);
    Result<Iblt> restored = Iblt::DeserializeFixed(&reader, config);
    ASSERT_FALSE(restored.ok()) << "cut=" << cut;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  }
}

// --- Sparse wire codec (WireCodec::kSparse) adversarial frames. Each test
// corrupts one section of a valid frame; DeserializeSparse must fail closed
// with kParseError on every malformed prefix, never return a wrong table.

// A bitmap-mode sparse frame with its section offsets recovered by walking
// the layout: mode | occupancy bitmap | count crumbs | escape list |
// 8-byte checks | masked keys. (Escape entries appear whenever hashed
// keys collide into a shared cell, so the fixture parses the escape
// section rather than assuming it empty.)
struct SparseFrameFixture {
  IbltConfig config;
  Iblt table;
  std::vector<uint8_t> bytes;
  size_t bitmap_size;
  size_t occupied;
  size_t crumb_bytes;
  size_t checks_begin;  // Offset of the first check byte.
  size_t keys_begin;    // Offset of the first key mask byte.

  explicit SparseFrameFixture(size_t num_keys, uint64_t seed)
      : config{IbltConfig::ForDifference(num_keys + 4, seed,
                                         /*key_width=*/8)},
        table(config) {
    Rng rng(seed);
    for (size_t i = 0; i < num_keys; ++i) table.Insert(RandomKey(8, &rng));
    ByteWriter writer;
    table.SerializeSparse(&writer);
    bytes = writer.bytes();
    EXPECT_EQ(bytes[0], 1) << "fixture must emit a bitmap-mode frame";
    bitmap_size = (config.PaddedCells() + 7) / 8;
    occupied = 0;
    for (size_t i = 0; i < bitmap_size; ++i) {
      occupied += static_cast<size_t>(std::popcount(bytes[1 + i]));
    }
    crumb_bytes = (occupied + 3) / 4;
    size_t off = 1 + bitmap_size + crumb_bytes;
    uint64_t num_escapes = 0;
    off = SkipVarint(off, &num_escapes);
    for (uint64_t e = 0; e < num_escapes; ++e) {
      off = SkipVarint(off, nullptr);  // Occupied ordinal.
      off = SkipVarint(off, nullptr);  // Zigzag count.
    }
    checks_begin = off;
    keys_begin = checks_begin + 8 * occupied;
  }

  // Code of the ord-th occupied cell's 2-bit count crumb.
  uint8_t CountCode(size_t ord) const {
    return (bytes[1 + bitmap_size + ord / 4] >> (2 * (ord % 4))) & 0x3;
  }

  size_t SkipVarint(size_t off, uint64_t* value) const {
    uint64_t v = 0;
    int shift = 0;
    while (bytes[off] & 0x80) {
      v |= static_cast<uint64_t>(bytes[off] & 0x7f) << shift;
      shift += 7;
      ++off;
    }
    v |= static_cast<uint64_t>(bytes[off]) << shift;
    ++off;
    if (value != nullptr) *value = v;
    return off;
  }

  Result<Iblt> Decode(const std::vector<uint8_t>& frame) const {
    ByteReader reader(frame);
    return Iblt::DeserializeSparse(&reader, config);
  }
};

TEST(IbltSparseAdversarialTest, TruncatedOccupancyBitmapRejected) {
  SparseFrameFixture fx(9, 101);
  for (size_t cut = 0; cut <= fx.bitmap_size; ++cut) {
    std::vector<uint8_t> frame(
        fx.bytes.begin(),
        fx.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    Result<Iblt> restored = fx.Decode(frame);
    ASSERT_FALSE(restored.ok()) << "cut=" << cut;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  }
}

TEST(IbltSparseAdversarialTest, EveryProperPrefixRejected) {
  // The blanket guarantee behind the section-specific tests: no proper
  // prefix of a valid frame parses, whichever section the cut lands in.
  SparseFrameFixture fx(11, 202);
  for (size_t cut = 0; cut < fx.bytes.size(); ++cut) {
    std::vector<uint8_t> frame(
        fx.bytes.begin(),
        fx.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    Result<Iblt> restored = fx.Decode(frame);
    ASSERT_FALSE(restored.ok()) << "cut=" << cut;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  }
  EXPECT_TRUE(fx.Decode(fx.bytes).ok());
}

TEST(IbltSparseAdversarialTest, StrayOccupancyBitsRejected) {
  SparseFrameFixture fx(5, 303);
  ASSERT_NE(fx.config.PaddedCells() % 8, 0u)
      << "fixture needs a partial final bitmap byte";
  std::vector<uint8_t> frame = fx.bytes;
  frame[fx.bitmap_size] |= 0x80;  // Bit past the last cell.
  Result<Iblt> restored = fx.Decode(frame);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

TEST(IbltSparseAdversarialTest, CorruptPackedCountCrumbsRejected) {
  SparseFrameFixture fx(9, 404);
  ASSERT_NE(fx.occupied % 4, 0u)
      << "fixture needs unused crumbs in the last count byte";
  // Stray codes past the last occupied cell.
  std::vector<uint8_t> tail = fx.bytes;
  tail[1 + fx.bitmap_size + fx.crumb_bytes - 1] |= 0xc0;
  Result<Iblt> restored = fx.Decode(tail);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);

  // An escape code (3) injected at a non-escape position desynchronizes
  // the escape list: either an entry's ordinal no longer matches, or the
  // extra code is left without an entry. Both must be rejected.
  std::vector<uint8_t> orphan = fx.bytes;
  size_t target = fx.occupied;
  for (size_t ord = 0; ord < fx.occupied; ++ord) {
    if (fx.CountCode(ord) != 0x3) {
      orphan[1 + fx.bitmap_size + ord / 4] |=
          static_cast<uint8_t>(0x3 << (2 * (ord % 4)));
      target = ord;
      break;
    }
  }
  ASSERT_LT(target, fx.occupied) << "fixture has a non-escape cell";
  restored = fx.Decode(orphan);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

TEST(IbltSparseAdversarialTest, EscapeListIndexOutOfRangeRejected) {
  // Build a frame that genuinely has one escape entry (a doubled key makes
  // |count| = 2 in its cells), then point its ordinal past the occupied
  // range and at the wrong position.
  IbltConfig config = IbltConfig::ForDifference(8, 55, /*key_width=*/8);
  Iblt table(config);
  Rng rng(55);
  std::vector<uint8_t> doubled = RandomKey(8, &rng);
  table.Insert(doubled);
  table.Insert(doubled);
  ByteWriter writer;
  table.SerializeSparse(&writer);
  std::vector<uint8_t> bytes = writer.bytes();
  ASSERT_EQ(bytes[0], 1);
  const size_t bitmap_size = (config.PaddedCells() + 7) / 8;
  size_t occupied = 0;
  for (size_t i = 0; i < bitmap_size; ++i) {
    occupied += static_cast<size_t>(std::popcount(bytes[1 + i]));
  }
  ASSERT_LT(occupied, 127u) << "single-byte ordinal varints expected";
  const size_t escape_count_at = 1 + bitmap_size + (occupied + 3) / 4;
  ASSERT_GT(bytes[escape_count_at], 0) << "fixture must have escapes";
  const size_t first_ordinal_at = escape_count_at + 1;

  std::vector<uint8_t> out_of_range = bytes;
  out_of_range[first_ordinal_at] = 0x7f;  // 127 >= occupied: out of range.
  ByteReader oor_reader(out_of_range);
  Result<Iblt> restored = Iblt::DeserializeSparse(&oor_reader, config);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);

  // In range but not the next escape-coded position: index mismatch.
  std::vector<uint8_t> mismatched = bytes;
  mismatched[first_ordinal_at] = static_cast<uint8_t>(occupied - 1);
  ByteReader mismatch_reader(mismatched);
  restored = Iblt::DeserializeSparse(&mismatch_reader, config);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

TEST(IbltSparseAdversarialTest, KeyMaskClaimsMoreThanRemainingRejected) {
  SparseFrameFixture fx(7, 505);
  // First key's mask byte claims all 8 payload bytes, but the frame ends
  // after three of them: payload length > remaining must fail closed.
  std::vector<uint8_t> frame(
      fx.bytes.begin(),
      fx.bytes.begin() + static_cast<std::ptrdiff_t>(fx.keys_begin));
  frame.push_back(0xff);
  frame.insert(frame.end(), {0x01, 0x02, 0x03});
  Result<Iblt> restored = fx.Decode(frame);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

TEST(IbltSparseAdversarialTest, OccupiedCellDecodingToZeroRejected) {
  // A bitmap bit whose cell then decodes to all-zero contradicts the
  // occupancy claim; accepting it would let two encodings of one table
  // differ on the wire.
  IbltConfig config;
  config.cells = 8;
  config.num_hashes = 4;
  config.key_width = 8;
  config.seed = 9;
  ByteWriter writer;
  writer.PutU8(1);     // Mode: bitmap.
  writer.PutU8(0x01);  // Cell 0 claimed occupied.
  writer.PutU8(0x02);  // Count code kCountZero for it.
  writer.PutU8(0x00);  // No escapes.
  writer.PutU64(0);    // Zero check.
  writer.PutU8(0x00);  // Key mask: all-zero key.
  ByteReader reader(writer.bytes());
  Result<Iblt> restored = Iblt::DeserializeSparse(&reader, config);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

TEST(IbltSparseAdversarialTest, UnknownModeByteRejected) {
  // Only modes 0 (raw) and 1 (sparse) exist. Mode 2 was the retired delta
  // frame: a peer still sending it must fail closed like any other mode.
  SparseFrameFixture fx(4, 606);
  for (uint8_t mode : {uint8_t{2}, uint8_t{3}, uint8_t{255}}) {
    std::vector<uint8_t> frame = fx.bytes;
    frame[0] = mode;
    Result<Iblt> restored = fx.Decode(frame);
    ASSERT_FALSE(restored.ok()) << "mode=" << int{mode};
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError)
        << "mode=" << int{mode};
  }
}

TEST(IbltAdversarialTest, CorruptCountVarintRejected) {
  // A cell count varint that overflows 64 bits must be a parse error, not
  // a silently-wrong count.
  IbltConfig config;
  config.cells = 4;
  config.num_hashes = 2;
  config.key_width = 8;
  config.seed = 3;
  std::vector<uint8_t> bad(10, 0x80);
  bad[9] = 0x7f;  // Ten-byte varint with payload past bit 63.
  ByteReader reader(bad);
  Result<Iblt> restored = Iblt::Deserialize(&reader, config);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace setrec
