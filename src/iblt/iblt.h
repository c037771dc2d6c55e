#ifndef SETREC_IBLT_IBLT_H_
#define SETREC_IBLT_IBLT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "hashing/hash.h"
#include "util/serialization.h"
#include "util/status.h"

namespace setrec {

/// Sizing and hashing configuration for an Iblt. Both parties must build
/// tables from identical configs (same cells, hash count, key width, seed)
/// for subtraction to be meaningful; Subtract() enforces this.
struct IbltConfig {
  /// Total number of cells m (rounded up to a multiple of num_hashes so the
  /// table partitions evenly; the paper's "partitioned hash table" variant,
  /// which guarantees the k cells of a key are distinct).
  size_t cells = 16;
  /// Number of hash functions k.
  int num_hashes = 4;
  /// Bytes per key. 8 for 64-bit elements; larger for blob keys such as the
  /// serialized child encodings of Algorithms 1 and 2.
  size_t key_width = 8;
  /// Seed for the bucket and checksum hash families (public coins).
  uint64_t seed = 0;

  /// Config sized to decode a set difference of up to `diff` keys with high
  /// probability (Theorem 2.1's O(d) cells with an explicit constant).
  static IbltConfig ForDifference(size_t diff, uint64_t seed,
                                  size_t key_width = 8, int num_hashes = 4);

  /// cells rounded up to a multiple of num_hashes.
  size_t PaddedCells() const;

  /// Bytes of the fixed-width serialization (count + checksum + key per
  /// cell, plus no header); used to size blob keys that embed a child IBLT.
  size_t FixedSerializedSize() const;

  bool operator==(const IbltConfig&) const = default;
};

/// Which wire encoding a protocol uses for the IBLT tables it sends. A
/// WIRE-layer concern only: in-memory tables are identical under every
/// codec, and both parties must agree on the codec before the first table
/// crosses the wire (the src/net hello frame negotiates it; see
/// src/net/README.md for the byte-level formats).
///
///  * kDense  — the legacy cell stream (Iblt::Serialize): every cell,
///    empty or not. Value 0 on the wire so old transcripts and
///    mixed-version peers keep working.
///  * kSparse — Iblt::SerializeSparse: occupancy bitmap, 2-bit packed
///    counts with an escape list, check/key payloads only for occupied
///    cells, zero bytes of key payloads suppressed behind per-group mask
///    bytes. Falls back to the dense cell stream per table (a mode byte)
///    when the sparse form would be larger, so incompressible tables —
///    8-byte checksums are uniformly random — never expand.
enum class WireCodec : uint8_t { kDense = 0, kSparse = 1 };

/// Result of peeling an IBLT (or a subtracted pair of IBLTs): the keys with
/// positive counts and the keys with negative counts. For Alice's table
/// minus Bob's, positives are S_A \ S_B and negatives are S_B \ S_A.
/// This is the OWNING form (one heap vector per key); the hot decode path
/// returns IbltDecodeView instead and only materializes on request.
struct IbltDecodeResult {
  std::vector<std::vector<uint8_t>> positive;
  std::vector<std::vector<uint8_t>> negative;
};

/// Same, for 64-bit keys.
struct IbltDecodeResult64 {
  std::vector<uint64_t> positive;
  std::vector<uint64_t> negative;
};

/// Non-owning 64-bit decode result: spans into DecodeScratch-owned vectors
/// (the u64 mirror of IbltDecodeView, closing the last capacity-growth
/// allocations of warm u64 decodes). Valid until the scratch's next decode
/// or destruction. The spans are mutable on purpose: the backing storage
/// belongs to the scratch, and callers commonly sort a side in place before
/// consuming it.
struct IbltDecodeView64 {
  std::span<uint64_t> positive;
  std::span<uint64_t> negative;

  /// Deep owning copy, independent of the scratch.
  IbltDecodeResult64 Materialize() const {
    return IbltDecodeResult64{
        std::vector<uint64_t>(positive.begin(), positive.end()),
        std::vector<uint64_t>(negative.begin(), negative.end())};
  }
};

/// A decoded key viewed in place: `size` bytes (the table's key_width) at
/// `data`, pointing into the DecodeScratch output arena that produced it.
///
/// LIFETIME: a view is valid until its scratch is used for another decode
/// (any Decode/DecodePartial/DecodeU64 overload) or destroyed. Callers that
/// must hold keys past that point copy them out with ToVector() or
/// IbltDecodeView::Materialize().
struct IbltKeyView {
  const uint8_t* data = nullptr;
  size_t size = 0;

  std::vector<uint8_t> ToVector() const {
    return std::vector<uint8_t>(data, data + size);
  }
  std::span<const uint8_t> bytes() const { return {data, size}; }
};

inline bool operator==(const IbltKeyView& a, const IbltKeyView& b) {
  return a.size == b.size &&
         (a.size == 0 || std::memcmp(a.data, b.data, a.size) == 0);
}
inline bool operator==(const IbltKeyView& a, const std::vector<uint8_t>& b) {
  return a.size == b.size() &&
         (a.size == 0 || std::memcmp(a.data, b.data(), a.size) == 0);
}

/// Transparent lexicographic comparator over byte-string keys, accepting
/// both owned blobs (std::vector<uint8_t>) and IbltKeyView. Protocol maps
/// keyed by owned encodings can be probed with decode views directly — no
/// per-lookup materialization:
///   std::map<std::vector<uint8_t>, T, KeyBytesLess> m;
///   m.find(view);  // heterogeneous, allocation-free
struct KeyBytesLess {
  using is_transparent = void;

  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return Less(AsSpan(a), AsSpan(b));
  }

 private:
  static std::span<const uint8_t> AsSpan(const IbltKeyView& v) {
    return v.bytes();
  }
  static std::span<const uint8_t> AsSpan(const std::vector<uint8_t>& v) {
    return {v.data(), v.size()};
  }
  static bool Less(std::span<const uint8_t> a, std::span<const uint8_t> b) {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    const int cmp = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
    if (cmp != 0) return cmp < 0;
    return a.size() < b.size();
  }
};

/// Non-owning decode result: spans of key views backed by the DecodeScratch
/// passed to Decode()/DecodePartial(). Subject to the IbltKeyView lifetime
/// rule above — reusing or destroying the scratch invalidates every view
/// (and the spans themselves). With a warm scratch the whole decode is
/// allocation-free; Materialize() is the escape hatch for callers that need
/// owning copies.
struct IbltDecodeView {
  std::span<const IbltKeyView> positive;
  std::span<const IbltKeyView> negative;

  /// Deep owning copy (one vector per key), independent of the scratch.
  IbltDecodeResult Materialize() const;
};

/// Best-effort decode: whatever peeled out, plus whether the table drained
/// completely. The cascading protocol (Algorithm 2) uses partial decodes —
/// children missed at level i are caught at level i+1.
struct IbltPartialDecode {
  IbltDecodeResult entries;
  bool complete = false;
};

/// View-based partial decode; same lifetime rules as IbltDecodeView.
struct IbltPartialDecodeView {
  IbltDecodeView entries;
  bool complete = false;
};

/// One cell's count + checksum, kept adjacent so a random cell touch costs
/// one cache line for the header and one for the key lanes (16-byte record,
/// never straddles a 64-byte line).
struct IbltCellMeta {
  int64_t count = 0;
  uint64_t check = 0;
};

/// Reusable peeling workspace. Decoding copies the table (counts, checksums,
/// key lanes) into this scratch and peels the copy; after the first decode
/// warms the vectors up, subsequent decodes through the same scratch are
/// fully allocation-free (vector::assign and the output arena reuse
/// capacity) — for byte keys as well as u64 keys. One scratch may be shared
/// across tables of *different* configs — each decode resizes it — which is
/// exactly what the cascading protocol's many child-IBLT decodes and the
/// strata estimator's per-stratum decodes need. A scratch carries no table
/// state between decodes; it must not be used by two decodes concurrently.
///
/// The scratch also OWNS the decoded keys of the view-returning overloads:
/// peeled byte keys land lane-aligned in `out_lanes`, and the IbltKeyView
/// entries handed back by Decode(scratch)/DecodePartial(scratch) point into
/// that arena. Starting any new decode on the scratch overwrites the arena
/// and invalidates all views from the previous decode. Holding views from
/// decode A while running decode B therefore requires two scratches (the
/// pattern used by the outer/child decodes of the set-of-sets protocols).
struct DecodeScratch {
  std::vector<IbltCellMeta> meta;
  std::vector<uint64_t> key_lanes;  // Working copy of the table's lanes.
  std::vector<uint32_t> queue;   // Pure-cell FIFO (ring over a vector).
  std::vector<uint8_t> queued;   // Per-cell in-queue flag (dedup).
  std::vector<uint64_t> out_lanes;    // Decoded-key arena (lane-padded).
  std::vector<size_t> pos_offsets;    // Lane offset of each positive key.
  std::vector<size_t> neg_offsets;    // Lane offset of each negative key.
  std::vector<IbltKeyView> pos_views;  // Built over out_lanes post-peel.
  std::vector<IbltKeyView> neg_views;
  std::vector<uint64_t> pos_u64;  // DecodeU64View outputs (gathered from
  std::vector<uint64_t> neg_u64;  // out_lanes post-peel; capacity reused).
};

/// Invertible Bloom Lookup Table (Goodrich & Mitzenmacher; Section 2 of the
/// paper). Supports insertion, deletion (counts may go negative, representing
/// two disjoint sets), cell-wise subtraction of a peer's table, and the
/// peeling decoder with checksum-guarded pure-cell detection.
///
/// Cell layout: cell i owns `meta_[i]` (a 16-byte {signed count, XOR of
/// 64-bit key checksums} record — one cache line per random header touch)
/// and `lanes_per_key_` consecutive uint64 words of `key_lanes_` (XOR of
/// keys).
/// Keys are fixed-width byte strings of config().key_width bytes, stored in
/// the lane arena 8-byte aligned and zero-padded to a whole number of
/// words, so all key XOR (Update / Subtract / Add / zero tests) runs
/// word-wide instead of byte-wide. Key bytes are read back from the arena
/// by address (little-endian layout assumed, as everywhere in the wire
/// format).
///
/// One-hash cell derivation: each key's bytes are read in ONE pass that
/// yields both family hashes, {h, c} = HashFamily::HashBytesPair(
/// bucket_family, check_family, key) — bit-identical to h =
/// bucket_family.HashBytes(key) and c = check_family.HashBytes(key), with
/// each 8-byte lane mixed once for both — and the k cells are derived from
/// the single 64-bit h as
///   cell_i = i * (m/k) + Mix64(h ^ (GOLDEN * (i+1))) % (m/k),
/// i.e. one strong hash plus k cheap mixes, instead of k full key hashes.
/// The derivation is identical to the seed implementation's per-index
/// Bucket(), so tables, wire bytes, and decode results are bit-identical
/// for fixed seeds.
///
/// The *_U64 convenience methods treat 64-bit integers as 8-byte
/// little-endian keys and require key_width == 8.
class Iblt {
 public:
  /// Both per-key hashes, each computed exactly once per key. Public so the
  /// file-local hashing helpers in iblt.cc can return it.
  struct KeyHashes {
    uint64_t bucket;
    uint64_t check;
  };

  explicit Iblt(const IbltConfig& config);

  const IbltConfig& config() const { return config_; }

  /// Adds a key (count +1 in each of its k cells). `key` must point at
  /// key_width bytes.
  void Insert(const uint8_t* key);
  void Insert(const std::vector<uint8_t>& key);
  void InsertU64(uint64_t key);

  /// Deletes a key (count -1); the key need not be present.
  void Erase(const uint8_t* key);
  void Erase(const std::vector<uint8_t>& key);
  void EraseU64(uint64_t key);

  /// Batched insertion/deletion. The whole block of keys is hashed first,
  /// then cell updates are applied grouped by partition (all partition-0
  /// cells, then partition-1, ...), which keeps each pass inside one
  /// contiguous m/k-cell window of the arrays. Blocks of at least
  /// kShardedBatchMinKeys keys on multi-hash tables are applied by
  /// min(k, hardware_concurrency) std::thread workers sharded over
  /// partitions (partitions are disjoint cell ranges, so no synchronization
  /// is needed and the result is deterministic); the workers are joined
  /// before the call returns. Requires key_width == 8 for the u64
  /// overloads; the byte overloads take `n` keys packed contiguously at
  /// key_width bytes each. Result is identical to n single-key
  /// Insert/Erase calls.
  void InsertBatch(const uint64_t* keys, size_t n);
  void InsertBatch(const std::vector<uint64_t>& keys);
  void InsertBatch(const uint8_t* keys, size_t n);
  void EraseBatch(const uint64_t* keys, size_t n);
  void EraseBatch(const std::vector<uint64_t>& keys);
  void EraseBatch(const uint8_t* keys, size_t n);

  /// Cell-wise subtraction: this -= other. After Alice's table is
  /// subtracted by Bob's, only the symmetric difference remains.
  Status Subtract(const Iblt& other);

  /// Cell-wise addition: this += other. Used to merge sketches built from
  /// disjoint element streams (e.g., strata-estimator merge).
  Status Add(const Iblt& other);

  /// Runs the peeling decoder on a copy of the table. Returns the decoded
  /// difference, or kDecodeFailure if a nonempty 2-core (or checksum
  /// corruption) prevents complete extraction. Failure is detectable: the
  /// table does not drain to all-zero cells.
  ///
  /// The scratch overload returns VIEWS into the scratch's output arena
  /// (see IbltKeyView for the lifetime rule: valid until the scratch's next
  /// decode or destruction); with a warm scratch it performs zero heap
  /// allocations. The scratch-free overload allocates a fresh workspace per
  /// call and returns an owning, materialized result.
  Result<IbltDecodeResult> Decode() const;
  Result<IbltDecodeView> Decode(DecodeScratch* scratch) const;
  Result<IbltDecodeResult64> DecodeU64() const;
  Result<IbltDecodeResult64> DecodeU64(DecodeScratch* scratch) const;
  /// View-returning u64 decode: the result spans the scratch's pos_u64 /
  /// neg_u64 vectors (IbltKeyView lifetime rule: valid until the scratch's
  /// next decode or destruction). With a warm scratch the whole decode
  /// performs zero heap allocations — the u64 counterpart of the byte-key
  /// Decode(scratch) path. Requires key_width == 8.
  Result<IbltDecodeView64> DecodeU64View(DecodeScratch* scratch) const;

  /// Peels as far as possible and reports completeness instead of failing.
  /// Same owning-vs-view split as Decode().
  IbltPartialDecode DecodePartial() const;
  IbltPartialDecodeView DecodePartial(DecodeScratch* scratch) const;

  /// True if every cell is zero (empty table or perfectly cancelled).
  bool IsZero() const;

  /// Compact serialization (varint counts) for direct transmission.
  void Serialize(ByteWriter* writer) const;
  [[nodiscard]] static Result<Iblt> Deserialize(ByteReader* reader, const IbltConfig& config);

  /// Sparse WIRE serialization (WireCodec::kSparse). Emits one mode byte,
  /// then either the sparse body (occupancy bitmap over non-zero cells,
  /// counts packed 2 bits each with an escape list for |count| > 1, 8-byte
  /// checksums and group-masked key bytes only for occupied cells) or — when
  /// the sparse body would not be smaller — the exact dense cell stream of
  /// Serialize(). In-memory representation is unchanged; this is purely an
  /// encoding of the same cells. Byte-level layout: src/net/README.md.
  ///
  /// CODEC LIFETIME: the codec choice is per-CONNECTION, not per-table.
  /// Both halves fix a WireCodec before the first table crosses the wire
  /// (SsrParams::wire_codec, negotiated by the src/net hello frame) and
  /// every table of the session uses it; a decoder never sniffs. Within
  /// kSparse, each frame is self-describing via its mode byte (raw-dense
  /// fallback or sparse body), so mode varies per table while the codec
  /// does not. Encode and decode work on one complete in-memory table and
  /// keep nothing after the call.
  void SerializeSparse(ByteWriter* writer) const;
  /// Parses a kSparse frame (mode 0 or 1). Fails closed — kParseError,
  /// never a partially-initialized table — on every malformed prefix:
  /// unknown mode byte, truncated or over-long occupancy bitmap, occupancy
  /// bits past the last cell, corrupt packed-count crumbs, escape-list
  /// index out of range or out of order, non-canonical escape values,
  /// payload lengths past the end of input, and cells marked occupied that
  /// decode to all-zero.
  [[nodiscard]] static Result<Iblt> DeserializeSparse(ByteReader* reader,
                                        const IbltConfig& config);

  /// Dispatch helpers: the codec-generic entry points protocols call.
  /// kDense → Serialize/Deserialize, kSparse → SerializeSparse /
  /// DeserializeSparse.
  void SerializeWith(WireCodec codec, ByteWriter* writer) const;
  [[nodiscard]] static Result<Iblt> DeserializeWith(WireCodec codec, ByteReader* reader,
                                      const IbltConfig& config);

  /// Fixed-width serialization: every table with the same config produces
  /// the same number of bytes, so serialized tables can themselves be used
  /// as (XOR-able) IBLT keys, as in the IBLT-of-IBLTs constructions.
  void SerializeFixed(ByteWriter* writer) const;
  [[nodiscard]] static Result<Iblt> DeserializeFixed(ByteReader* reader,
                                       const IbltConfig& config);

  /// Writes exactly the SerializeFixed() bytes of a fresh Iblt(config)
  /// after InsertBatch(keys, n) to `out` (config.FixedSerializedSize()
  /// bytes) without building the table or allocating. The set-of-sets
  /// protocols encode child sets this way: those tables are only ever
  /// outer-table keys. Requires key_width == 8.
  static void WriteFixedU64(const IbltConfig& config, const uint64_t* keys,
                            size_t n, uint8_t* out);

  /// Batch size at or above which InsertBatch/EraseBatch shard cell
  /// updates across worker threads. A compile-time constant: the branch is
  /// chosen by the size of the batch in hand, which only the caller knows.
  static constexpr size_t kShardedBatchMinKeys = size_t{1} << 16;

  /// Batches up to this size hash into a stack buffer (16 bytes per key)
  /// instead of a heap vector, keeping small batched updates — estimator
  /// strata, small outer tables — allocation-free. (Child encodings never
  /// build a table; see WriteFixedU64.)
  static constexpr size_t kSmallBatchMaxKeys = 128;

  /// Test hook: when > 0, large batches use exactly this many workers
  /// regardless of std::thread::hardware_concurrency(), so the sharded path
  /// can be exercised deterministically on any machine.
  static int sharded_workers_for_test;

 private:
  void Update(const uint8_t* key, int32_t delta);
  KeyHashes HashKey(const uint8_t* key) const;
  KeyHashes HashKeyU64(uint64_t key) const;
  /// The cell index for a key with bucket hash `bucket_hash` under hash
  /// function `index` (the one-hash derivation described above).
  size_t CellForIndex(uint64_t bucket_hash, int index) const;
  bool CellIsZero(size_t cell) const;

  /// The sparse frame's cell sections (counts + checks + masked keys for
  /// the occupied cells, in index order). Decoding rejects a listed cell
  /// that comes out all-zero.
  void EncodeCellBlock(const std::vector<uint32_t>& cells,
                       ByteWriter* writer) const;
  Status DecodeCellBlock(ByteReader* reader,
                         const std::vector<uint32_t>& cells);
  /// Exact byte count Serialize() would emit (the sparse encoder's
  /// fallback threshold).
  size_t DenseSerializedSize() const;

  uint64_t* CellLanes(size_t cell) {
    return key_lanes_.data() + cell * lanes_per_key_;
  }
  const uint64_t* CellLanes(size_t cell) const {
    return key_lanes_.data() + cell * lanes_per_key_;
  }
  uint8_t* CellKeyBytes(size_t cell) {
    return reinterpret_cast<uint8_t*>(CellLanes(cell));
  }
  const uint8_t* CellKeyBytes(size_t cell) const {
    return reinterpret_cast<const uint8_t*>(CellLanes(cell));
  }

  void ApplyBatchU64(const uint64_t* keys, size_t n, int32_t delta);
  void ApplyBatchBytes(const uint8_t* keys, size_t n, int32_t delta);
  void ApplyHashedBatch(const KeyHashes* hashes, const uint64_t* u64_keys,
                        const uint8_t* byte_keys, size_t n, int32_t delta);
  void ApplyPartitionRange(const KeyHashes* hashes, const uint64_t* u64_keys,
                           const uint8_t* byte_keys, size_t n, int32_t delta,
                           int first_index, int index_step);

  /// Shared peeling core. In u64 mode (out_u64 != nullptr) decoded keys go
  /// to out_u64's vectors; in byte mode they are appended lane-aligned to
  /// scratch->out_lanes with their offsets recorded in pos/neg_offsets.
  bool PeelInto(DecodeScratch* scratch, IbltDecodeResult64* out_u64) const;
  /// Builds the IbltKeyView arrays over scratch->out_lanes after a byte-mode
  /// peel (deferred so arena growth during the peel cannot dangle views).
  IbltDecodeView BuildViews(DecodeScratch* scratch) const;

  IbltConfig config_;
  size_t cells_;           // Padded cell count.
  size_t cells_per_hash_;  // Partition width.
  size_t lanes_per_key_;   // ceil(key_width / 8) uint64 words per cell.
  uint64_t mod_magic_;     // floor(2^64 / cells_per_hash_), for CellForIndex.
  std::vector<IbltCellMeta> meta_;   // Per-cell count + checksum.
  /// cells_ * lanes_per_key_ words. Deliberately a PLAIN vector: tables
  /// are allocated per session in the hot path and over-aligned operator
  /// new bypasses the allocator's fast bins (measured ~25% service-level
  /// regression when this arena was 64-byte aligned).
  std::vector<uint64_t> key_lanes_;
  HashFamily bucket_family_;
  HashFamily check_family_;
};

}  // namespace setrec

#endif  // SETREC_IBLT_IBLT_H_
