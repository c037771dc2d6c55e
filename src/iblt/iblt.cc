#include "iblt/iblt.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <thread>

#include "hashing/random.h"

namespace setrec {

namespace {

// Lane XOR. Two shapes cover every key XOR the table does: dst[i] ^=
// src[i] over n lanes (Subtract/Add, peel removal), and dst ^= `width` raw
// key bytes (cell updates). Plain word loops: hand-written AVX2/AVX-512
// kernels measured 0.98-1.10x on the IBLT microbench and no end-to-end
// difference, so these are the only backend.
// LINT(alloc-free) — these kernels run per peeled key inside the decode
// loop and back the decode_allocs_warm == 0 benchmark claim; setrec_lint
// rejects any allocating call landing between here and LINT(end).
void XorLanesScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void XorKeyScalar(uint64_t* dst, const uint8_t* key, size_t width) {
  size_t full = width / 8;
  size_t rem = width % 8;
  for (size_t l = 0; l < full; ++l) {
    uint64_t lane;
    std::memcpy(&lane, key + 8 * l, 8);
    dst[l] ^= lane;
  }
  if (rem != 0) {
    uint64_t lane = 0;
    std::memcpy(&lane, key + 8 * full, rem);
    dst[full] ^= lane;
  }
}
// LINT(end)

// Sizing constant: cells per expected difference key. Theorem 2.1 promises
// decode w.h.p. with m = O(d); k=4 peeling succeeds asymptotically above
// ~1.3 cells/key, but small tables need slack, so we use 1.9 plus an
// additive floor. bench_iblt (experiment E3) calibrates this empirically.
constexpr double kCellsPerKey = 2.0;
constexpr size_t kMinCells = 16;

// Zigzag encoding for signed counts in the compact serialization.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Member tags of the two per-table hash families.
constexpr uint64_t kBucketFamilyTag = 0x6275636bull;  // "buck"
constexpr uint64_t kCheckFamilyTag = 0x6368656bull;   // "chek"

// floor(2^64 / d) in 64-bit arithmetic, the reciprocal CellIndex multiplies
// by (unused for single-cell partitions).
uint64_t ModMagic(size_t d) {
  return d > 1 ? ~0ull / d + (~0ull % d == d - 1) : 0;
}

// LINT(alloc-free) — per-(key, hash) math shared by tables and the
// fixed-width writer: pure mixing and a reciprocal modulo.
Iblt::KeyHashes HashU64With(const HashFamily& bucket_family,
                            const HashFamily& check_family, uint64_t key) {
  const std::array<uint64_t, 2> h = HashFamily::HashBytesPair(
      bucket_family, check_family, reinterpret_cast<const uint8_t*>(&key), 8);
  return {h[0], h[1]};
}

// The one-hash cell derivation (see Iblt's class comment): the cell of hash
// function `index` for a key with bucket hash `bucket_hash`.
size_t CellIndex(uint64_t bucket_hash, int index, size_t cells_per_hash,
                 uint64_t mod_magic) {
  uint64_t sub = Mix64(bucket_hash ^
                       (uint64_t{0x9e3779b97f4a7c15} * static_cast<uint64_t>(index + 1)));
  // Exact `sub % cells_per_hash` via the precomputed reciprocal: with
  // M = floor(2^64 / d), q = mulhi(sub, M) is floor(sub/d) or one less, so
  // one conditional subtract fixes the remainder. Replaces a hardware
  // division on the hot path; bit-identical to the plain modulo.
  uint64_t r = 0;
  if (cells_per_hash > 1) {
    uint64_t q = static_cast<uint64_t>(
        (static_cast<__uint128_t>(sub) * mod_magic) >> 64);
    r = sub - q * cells_per_hash;
    if (r >= cells_per_hash) r -= cells_per_hash;
  }
  return static_cast<size_t>(index) * cells_per_hash + r;
}
// LINT(end)

}  // namespace

int Iblt::sharded_workers_for_test = 0;

IbltConfig IbltConfig::ForDifference(size_t diff, uint64_t seed,
                                     size_t key_width, int num_hashes) {
  IbltConfig config;
  config.cells = std::max(
      kMinCells, static_cast<size_t>(kCellsPerKey * static_cast<double>(diff)) +
                     2 * static_cast<size_t>(num_hashes));
  config.num_hashes = num_hashes;
  config.key_width = key_width;
  config.seed = seed;
  return config;
}

size_t IbltConfig::PaddedCells() const {
  size_t k = static_cast<size_t>(num_hashes);
  return (cells + k - 1) / k * k;
}

size_t IbltConfig::FixedSerializedSize() const {
  // Per cell: 4-byte count, 8-byte checksum, key_width key bytes.
  return PaddedCells() * (4 + 8 + key_width);
}

Iblt::Iblt(const IbltConfig& config)
    : config_(config),
      cells_(config.PaddedCells()),
      cells_per_hash_(cells_ / static_cast<size_t>(config.num_hashes)),
      lanes_per_key_((config.key_width + 7) / 8),
      mod_magic_(ModMagic(cells_per_hash_)),
      meta_(cells_),
      key_lanes_(cells_ * lanes_per_key_, 0),
      bucket_family_(config.seed, kBucketFamilyTag),
      check_family_(config.seed, kCheckFamilyTag) {}

void Iblt::Insert(const uint8_t* key) { Update(key, +1); }
void Iblt::Insert(const std::vector<uint8_t>& key) {
  assert(key.size() == config_.key_width);
  Update(key.data(), +1);
}
void Iblt::InsertU64(uint64_t key) {
  assert(config_.key_width == 8);
  Update(reinterpret_cast<const uint8_t*>(&key), +1);
}

void Iblt::Erase(const uint8_t* key) { Update(key, -1); }
void Iblt::Erase(const std::vector<uint8_t>& key) {
  assert(key.size() == config_.key_width);
  Update(key.data(), -1);
}
void Iblt::EraseU64(uint64_t key) {
  assert(config_.key_width == 8);
  Update(reinterpret_cast<const uint8_t*>(&key), -1);
}

void Iblt::InsertBatch(const uint64_t* keys, size_t n) {
  ApplyBatchU64(keys, n, +1);
}
void Iblt::InsertBatch(const std::vector<uint64_t>& keys) {
  ApplyBatchU64(keys.data(), keys.size(), +1);
}
void Iblt::InsertBatch(const uint8_t* keys, size_t n) {
  ApplyBatchBytes(keys, n, +1);
}
void Iblt::EraseBatch(const uint64_t* keys, size_t n) {
  ApplyBatchU64(keys, n, -1);
}
void Iblt::EraseBatch(const std::vector<uint64_t>& keys) {
  ApplyBatchU64(keys.data(), keys.size(), -1);
}
void Iblt::EraseBatch(const uint8_t* keys, size_t n) {
  ApplyBatchBytes(keys, n, -1);
}

// LINT(alloc-free) — per-(key, hash) math on the peel and child-encoding
// paths: pure mixing and a reciprocal modulo, no heap traffic allowed.
Iblt::KeyHashes Iblt::HashKeyU64(uint64_t key) const {
  return HashU64With(bucket_family_, check_family_, key);
}

Iblt::KeyHashes Iblt::HashKey(const uint8_t* key) const {
  if (config_.key_width == 8) {
    uint64_t lane;
    std::memcpy(&lane, key, 8);
    return HashKeyU64(lane);
  }
  const std::array<uint64_t, 2> h = HashFamily::HashBytesPair(
      bucket_family_, check_family_, key, config_.key_width);
  return {h[0], h[1]};
}

size_t Iblt::CellForIndex(uint64_t bucket_hash, int index) const {
  return CellIndex(bucket_hash, index, cells_per_hash_, mod_magic_);
}

void Iblt::WriteFixedU64(const IbltConfig& config, const uint64_t* keys,
                         size_t n, uint8_t* out) {
  assert(config.key_width == 8);
  const size_t cells_per_hash =
      config.PaddedCells() / static_cast<size_t>(config.num_hashes);
  const uint64_t mod_magic = ModMagic(cells_per_hash);
  const HashFamily bucket_family(config.seed, kBucketFamilyTag);
  const HashFamily check_family(config.seed, kCheckFamilyTag);
  constexpr size_t kCellBytes = 4 + 8 + 8;
  std::memset(out, 0, config.FixedSerializedSize());
  // Cells are updated in their serialized form: little-endian u32 count
  // (wrapping like SerializeFixed's cast), u64 checksum, u64 key.
  for (size_t j = 0; j < n; ++j) {
    const KeyHashes h = HashU64With(bucket_family, check_family, keys[j]);
    for (int i = 0; i < config.num_hashes; ++i) {
      uint8_t* cell =
          out + CellIndex(h.bucket, i, cells_per_hash, mod_magic) * kCellBytes;
      uint32_t count;
      uint64_t lanes[2];
      std::memcpy(&count, cell, 4);
      std::memcpy(lanes, cell + 4, 16);
      count += 1;
      lanes[0] ^= h.check;
      lanes[1] ^= keys[j];
      std::memcpy(cell, &count, 4);
      std::memcpy(cell + 4, lanes, 16);
    }
  }
}
// LINT(end)

void Iblt::Update(const uint8_t* key, int32_t delta) {
  KeyHashes h = HashKey(key);
  for (int i = 0; i < config_.num_hashes; ++i) {
    size_t cell = CellForIndex(h.bucket, i);
    meta_[cell].count += delta;
    meta_[cell].check ^= h.check;
    XorKeyScalar(CellLanes(cell), key, config_.key_width);
  }
}

void Iblt::ApplyPartitionRange(const KeyHashes* hashes,
                               const uint64_t* u64_keys,
                               const uint8_t* byte_keys, size_t n,
                               int32_t delta, int first_index,
                               int index_step) {
  const size_t w = config_.key_width;
  for (int i = first_index; i < config_.num_hashes; i += index_step) {
    if (u64_keys != nullptr) {
      for (size_t j = 0; j < n; ++j) {
        size_t cell = CellForIndex(hashes[j].bucket, i);
        meta_[cell].count += delta;
        meta_[cell].check ^= hashes[j].check;
        key_lanes_[cell] ^= u64_keys[j];
      }
    } else {
      for (size_t j = 0; j < n; ++j) {
        size_t cell = CellForIndex(hashes[j].bucket, i);
        meta_[cell].count += delta;
        meta_[cell].check ^= hashes[j].check;
        XorKeyScalar(CellLanes(cell), byte_keys + j * w, w);
      }
    }
  }
}

namespace {

/// Worker count for a sharded pass over `partitions` partitions: one per
/// hardware thread, or the deterministic test hook when set.
int ShardedWorkerCount(int partitions) {
  const int cap =
      Iblt::sharded_workers_for_test > 0
          ? Iblt::sharded_workers_for_test
          : static_cast<int>(
                std::max<unsigned>(1, std::thread::hardware_concurrency()));
  return std::min(partitions, cap);
}

}  // namespace

void Iblt::ApplyHashedBatch(const KeyHashes* hashes, const uint64_t* u64_keys,
                            const uint8_t* byte_keys, size_t n,
                            int32_t delta) {
  const int k = config_.num_hashes;
  if (n >= kShardedBatchMinKeys && k > 1) {
    // Partitions are disjoint cell ranges: shard them across threads with no
    // synchronization. The result is identical to the serial order.
    const int workers = ShardedWorkerCount(k);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers - 1));
    for (int t = 1; t < workers; ++t) {
      threads.emplace_back([=, this] {
        ApplyPartitionRange(hashes, u64_keys, byte_keys, n, delta, t, workers);
      });
    }
    ApplyPartitionRange(hashes, u64_keys, byte_keys, n, delta, 0, workers);
    for (std::thread& t : threads) t.join();
    return;
  }
  ApplyPartitionRange(hashes, u64_keys, byte_keys, n, delta, 0, 1);
}

void Iblt::ApplyBatchU64(const uint64_t* keys, size_t n, int32_t delta) {
  assert(config_.key_width == 8);
  if (n == 0) return;
  // Small batches hash into a stack buffer so batched updates stay
  // allocation-free.
  KeyHashes stack_hashes[kSmallBatchMaxKeys];
  std::vector<KeyHashes> heap_hashes(n <= kSmallBatchMaxKeys ? 0 : n);
  KeyHashes* hashes = n <= kSmallBatchMaxKeys ? stack_hashes
                                              : heap_hashes.data();
  for (size_t j = 0; j < n; ++j) hashes[j] = HashKeyU64(keys[j]);
  ApplyHashedBatch(hashes, keys, nullptr, n, delta);
}

void Iblt::ApplyBatchBytes(const uint8_t* keys, size_t n, int32_t delta) {
  if (n == 0) return;
  KeyHashes stack_hashes[kSmallBatchMaxKeys];
  std::vector<KeyHashes> heap_hashes(n <= kSmallBatchMaxKeys ? 0 : n);
  KeyHashes* hashes = n <= kSmallBatchMaxKeys ? stack_hashes
                                              : heap_hashes.data();
  for (size_t j = 0; j < n; ++j) {
    hashes[j] = HashKey(keys + j * config_.key_width);
  }
  ApplyHashedBatch(hashes, nullptr, keys, n, delta);
}

Status Iblt::Subtract(const Iblt& other) {
  if (!(config_ == other.config_)) {
    return InvalidArgument("IBLT subtract: mismatched configs");
  }
  for (size_t i = 0; i < cells_; ++i) {
    meta_[i].count -= other.meta_[i].count;
    meta_[i].check ^= other.meta_[i].check;
  }
  XorLanesScalar(key_lanes_.data(), other.key_lanes_.data(), key_lanes_.size());
  return Status::Ok();
}

Status Iblt::Add(const Iblt& other) {
  if (!(config_ == other.config_)) {
    return InvalidArgument("IBLT add: mismatched configs");
  }
  for (size_t i = 0; i < cells_; ++i) {
    meta_[i].count += other.meta_[i].count;
    meta_[i].check ^= other.meta_[i].check;
  }
  XorLanesScalar(key_lanes_.data(), other.key_lanes_.data(), key_lanes_.size());
  return Status::Ok();
}

bool Iblt::CellIsZero(size_t cell) const {
  if (meta_[cell].count != 0 || meta_[cell].check != 0) return false;
  const uint64_t* lanes = CellLanes(cell);
  for (size_t l = 0; l < lanes_per_key_; ++l) {
    if (lanes[l] != 0) return false;
  }
  return true;
}

bool Iblt::PeelInto(DecodeScratch* scratch, IbltDecodeResult64* out_u64) const {
  assert(out_u64 == nullptr || config_.key_width == 8);
  const int k = config_.num_hashes;

  // Copy the table into the scratch; assign() reuses capacity (as does the
  // output arena below), so a warm scratch makes the whole decode — byte
  // keys included — allocation-free.
  scratch->meta.assign(meta_.begin(), meta_.end());
  scratch->key_lanes.assign(key_lanes_.begin(), key_lanes_.end());
  scratch->queued.assign(cells_, 0);
  scratch->queue.clear();
  scratch->out_lanes.clear();
  scratch->pos_offsets.clear();
  scratch->neg_offsets.clear();
  IbltCellMeta* meta = scratch->meta.data();
  uint64_t* lanes = scratch->key_lanes.data();

  // Seed the queue with pure-cell *candidates* (count == ±1). Checksum
  // verification is deferred to pop time, where the key must be hashed
  // anyway to derive its cells for removal — so each popped candidate costs
  // exactly one (bucket, check) hash pair, shared between the purity check
  // and the peel, and stale revisits of unchanged cells never rehash.
  for (size_t i = 0; i < cells_; ++i) {
    if (meta[i].count == 1 || meta[i].count == -1) {
      scratch->queue.push_back(static_cast<uint32_t>(i));
      scratch->queued[i] = 1;
    }
  }

  // A correct drain extracts at most one key per (key, cell) incidence;
  // cap iterations so checksum-collision cascades cannot loop forever.
  size_t budget = 4 * cells_ + 64;
  size_t head = 0;
  while (head < scratch->queue.size() && budget-- > 0) {
    const size_t cell = scratch->queue[head++];
    scratch->queued[cell] = 0;
    const int64_t count = meta[cell].count;
    if (count != 1 && count != -1) continue;  // Stale queue entry.
    const uint8_t* cell_key =
        reinterpret_cast<const uint8_t*>(lanes + cell * lanes_per_key_);
    const KeyHashes h = HashKey(cell_key);
    if (meta[cell].check != h.check) continue;  // Count ±1 but not pure.
    const int64_t sign = count;

    if (out_u64 != nullptr) {
      // 8-byte keys: the key is a single lane; no staging copy needed.
      const uint64_t key64 = lanes[cell];
      (sign > 0 ? out_u64->positive : out_u64->negative).push_back(key64);
      for (int i = 0; i < k; ++i) {
        const size_t t = CellForIndex(h.bucket, i);
        meta[t].count -= sign;
        meta[t].check ^= h.check;
        lanes[t] ^= key64;
        if ((meta[t].count == 1 || meta[t].count == -1) &&
            !scratch->queued[t]) {
          scratch->queue.push_back(static_cast<uint32_t>(t));
          scratch->queued[t] = 1;
        }
      }
      continue;
    }

    // Stage the key into the output arena: the copy both IS the decoded
    // entry (the returned views point at it) and serves as the stable
    // source for the removal XOR below (the home cell's own lanes change
    // mid-removal). Appending may grow the arena, so take the pointer
    // afterwards; earlier entries are only re-referenced by offset once the
    // peel is done (BuildViews).
    const size_t off = scratch->out_lanes.size();
    scratch->out_lanes.insert(scratch->out_lanes.end(),
                              lanes + cell * lanes_per_key_,
                              lanes + (cell + 1) * lanes_per_key_);
    (sign > 0 ? scratch->pos_offsets : scratch->neg_offsets).push_back(off);
    const uint64_t* staged = scratch->out_lanes.data() + off;

    // Remove the key from all of its cells (including this one), queueing
    // any cell the removal leaves as a fresh pure candidate.
    for (int i = 0; i < k; ++i) {
      const size_t t = CellForIndex(h.bucket, i);
      meta[t].count -= sign;
      meta[t].check ^= h.check;
      XorLanesScalar(lanes + t * lanes_per_key_, staged, lanes_per_key_);
      if ((meta[t].count == 1 || meta[t].count == -1) && !scratch->queued[t]) {
        scratch->queue.push_back(static_cast<uint32_t>(t));
        scratch->queued[t] = 1;
      }
    }
  }

  // Complete iff the work table drained to all-zero cells.
  for (size_t i = 0; i < cells_; ++i) {
    if (meta[i].count != 0 || meta[i].check != 0) return false;
  }
  for (size_t i = 0; i < key_lanes_.size(); ++i) {
    if (lanes[i] != 0) return false;
  }
  return true;
}

IbltDecodeView Iblt::BuildViews(DecodeScratch* scratch) const {
  const size_t w = config_.key_width;
  const uint8_t* base =
      reinterpret_cast<const uint8_t*>(scratch->out_lanes.data());
  scratch->pos_views.clear();
  scratch->neg_views.clear();
  for (size_t off : scratch->pos_offsets) {
    scratch->pos_views.push_back(IbltKeyView{base + off * 8, w});
  }
  for (size_t off : scratch->neg_offsets) {
    scratch->neg_views.push_back(IbltKeyView{base + off * 8, w});
  }
  IbltDecodeView view;
  view.positive = {scratch->pos_views.data(), scratch->pos_views.size()};
  view.negative = {scratch->neg_views.data(), scratch->neg_views.size()};
  return view;
}

IbltDecodeResult IbltDecodeView::Materialize() const {
  IbltDecodeResult out;
  out.positive.reserve(positive.size());
  for (const IbltKeyView& v : positive) out.positive.push_back(v.ToVector());
  out.negative.reserve(negative.size());
  for (const IbltKeyView& v : negative) out.negative.push_back(v.ToVector());
  return out;
}

IbltPartialDecodeView Iblt::DecodePartial(DecodeScratch* scratch) const {
  IbltPartialDecodeView out;
  out.complete = PeelInto(scratch, nullptr);
  out.entries = BuildViews(scratch);
  return out;
}

IbltPartialDecode Iblt::DecodePartial() const {
  DecodeScratch scratch;
  IbltPartialDecodeView view = DecodePartial(&scratch);
  return IbltPartialDecode{view.entries.Materialize(), view.complete};
}

Result<IbltDecodeView> Iblt::Decode(DecodeScratch* scratch) const {
  if (!PeelInto(scratch, nullptr)) {
    return DecodeFailure("IBLT peeling incomplete (nonempty 2-core)");
  }
  return BuildViews(scratch);
}

Result<IbltDecodeResult> Iblt::Decode() const {
  DecodeScratch scratch;
  Result<IbltDecodeView> view = Decode(&scratch);
  if (!view.ok()) return view.status();
  return view.value().Materialize();
}

Result<IbltDecodeResult64> Iblt::DecodeU64(DecodeScratch* scratch) const {
  assert(config_.key_width == 8);
  IbltDecodeResult64 out;
  if (!PeelInto(scratch, &out)) {
    return DecodeFailure("IBLT peeling incomplete (nonempty 2-core)");
  }
  return out;
}

Result<IbltDecodeResult64> Iblt::DecodeU64() const {
  DecodeScratch scratch;
  return DecodeU64(&scratch);
}

Result<IbltDecodeView64> Iblt::DecodeU64View(DecodeScratch* scratch) const {
  assert(config_.key_width == 8);
  // Byte-mode peel: keys land lane-aligned in the output arena with their
  // offsets recorded — for 8-byte keys each entry is exactly one lane, so
  // gathering by offset into the reusable side vectors costs O(d) moves and
  // no allocations once the scratch is warm.
  if (!PeelInto(scratch, nullptr)) {
    return DecodeFailure("IBLT peeling incomplete (nonempty 2-core)");
  }
  scratch->pos_u64.clear();
  scratch->neg_u64.clear();
  for (size_t off : scratch->pos_offsets) {
    scratch->pos_u64.push_back(scratch->out_lanes[off]);
  }
  for (size_t off : scratch->neg_offsets) {
    scratch->neg_u64.push_back(scratch->out_lanes[off]);
  }
  return IbltDecodeView64{
      std::span<uint64_t>(scratch->pos_u64.data(), scratch->pos_u64.size()),
      std::span<uint64_t>(scratch->neg_u64.data(), scratch->neg_u64.size())};
}

bool Iblt::IsZero() const {
  for (size_t i = 0; i < cells_; ++i) {
    if (!CellIsZero(i)) return false;
  }
  return true;
}

void Iblt::Serialize(ByteWriter* writer) const {
  for (size_t i = 0; i < cells_; ++i) {
    writer->PutVarint(ZigZag(meta_[i].count));
    writer->PutU64(meta_[i].check);
    writer->PutBytes(CellKeyBytes(i), config_.key_width);
  }
}

Result<Iblt> Iblt::Deserialize(ByteReader* reader, const IbltConfig& config) {
  Iblt table(config);
  for (size_t i = 0; i < table.cells_; ++i) {
    uint64_t zz = 0;
    if (!reader->GetVarint(&zz)) return ParseError("IBLT truncated (count)");
    table.meta_[i].count = UnZigZag(zz);  // Lossless: counts are int64 wide.
    if (!reader->GetU64(&table.meta_[i].check)) {
      return ParseError("IBLT truncated (check)");
    }
    // Key bytes land directly in the (zero-padded) lane arena.
    if (!reader->GetRaw(config.key_width, table.CellKeyBytes(i))) {
      return ParseError("IBLT truncated (key)");
    }
  }
  return table;
}

void Iblt::SerializeFixed(ByteWriter* writer) const {
  for (size_t i = 0; i < cells_; ++i) {
    writer->PutU32(static_cast<uint32_t>(meta_[i].count));
    writer->PutU64(meta_[i].check);
    writer->PutBytes(CellKeyBytes(i), config_.key_width);
  }
}

Result<Iblt> Iblt::DeserializeFixed(ByteReader* reader,
                                    const IbltConfig& config) {
  Iblt table(config);
  for (size_t i = 0; i < table.cells_; ++i) {
    uint32_t count = 0;
    if (!reader->GetU32(&count)) return ParseError("IBLT truncated (count)");
    table.meta_[i].count = static_cast<int32_t>(count);
    if (!reader->GetU64(&table.meta_[i].check)) {
      return ParseError("IBLT truncated (check)");
    }
    if (!reader->GetRaw(config.key_width, table.CellKeyBytes(i))) {
      return ParseError("IBLT truncated (key)");
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// Sparse wire codec (WireCodec::kSparse). Frame = mode byte + body:
//   mode 0 (raw)    — the exact dense cell stream of Serialize(); emitted
//                     when the sparse body would not be smaller (saturated
//                     tables of incompressible data, e.g. the fingerprint
//                     tables whose cells are pure 64-bit hashes).
//   mode 1 (sparse) — occupancy bitmap over !CellIsZero, packed 2-bit count
//                     codes for occupied cells, escape list for counts
//                     outside {-1, +1}, 8 raw check bytes per occupied
//                     cell, group-masked key bytes per occupied cell.
// Every section is strictly validated; any malformed prefix, and any other
// mode byte, yields kParseError and no table. Byte-level layout: src/net/README.md.
// ---------------------------------------------------------------------------

namespace {

constexpr uint8_t kSparseModeRaw = 0;
constexpr uint8_t kSparseModeBitmap = 1;

// 2-bit count codes, four per byte, low crumbs first.
constexpr uint8_t kCountPlusOne = 0;
constexpr uint8_t kCountMinusOne = 1;
constexpr uint8_t kCountZero = 2;
constexpr uint8_t kCountEscape = 3;

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Group-mask key compression: each 8-byte group of the key is one mask
// byte (bit j = byte j of the group is non-zero) followed by only the
// non-zero bytes. Wire tables subtract away most structure, so key fields
// are dominated by zero bytes; masks reclaim them at one byte per group.
void PutMaskedKey(const uint8_t* key, size_t width, ByteWriter* writer) {
  for (size_t g = 0; g < width; g += 8) {
    const size_t len = std::min<size_t>(8, width - g);
    uint8_t mask = 0;
    for (size_t b = 0; b < len; ++b) {
      mask |= static_cast<uint8_t>((key[g + b] != 0) << b);
    }
    writer->PutU8(mask);
    for (size_t b = 0; b < len; ++b) {
      if (key[g + b] != 0) writer->PutU8(key[g + b]);
    }
  }
}

size_t MaskedKeyLen(const uint8_t* key, size_t width) {
  size_t n = 0;
  for (size_t g = 0; g < width; g += 8) {
    const size_t len = std::min<size_t>(8, width - g);
    ++n;
    for (size_t b = 0; b < len; ++b) n += (key[g + b] != 0);
  }
  return n;
}

// Reads a group-masked key into `out` (writes all `width` bytes, zeros
// included). Fails on truncation or mask bits past a short tail group.
bool GetMaskedKey(ByteReader* reader, size_t width, uint8_t* out) {
  for (size_t g = 0; g < width; g += 8) {
    const size_t len = std::min<size_t>(8, width - g);
    uint8_t mask = 0;
    if (!reader->GetU8(&mask)) return false;
    if (len < 8 && (mask >> len) != 0) return false;
    for (size_t b = 0; b < len; ++b) {
      if (mask & (1u << b)) {
        if (!reader->GetU8(&out[g + b])) return false;
      } else {
        out[g + b] = 0;
      }
    }
  }
  return true;
}

}  // namespace

size_t Iblt::DenseSerializedSize() const {
  size_t n = 0;
  for (size_t i = 0; i < cells_; ++i) {
    n += VarintLen(ZigZag(meta_[i].count)) + 8 + config_.key_width;
  }
  return n;
}

void Iblt::EncodeCellBlock(const std::vector<uint32_t>& cells,
                           ByteWriter* writer) const {
  // Packed 2-bit count codes, four per byte; unused trailing crumbs stay 0.
  uint8_t crumbs = 0;
  int filled = 0;
  std::vector<uint32_t> escapes;
  for (size_t ord = 0; ord < cells.size(); ++ord) {
    const int64_t count = meta_[cells[ord]].count;
    uint8_t code;
    if (count == 1) {
      code = kCountPlusOne;
    } else if (count == -1) {
      code = kCountMinusOne;
    } else if (count == 0) {
      code = kCountZero;
    } else {
      code = kCountEscape;
      escapes.push_back(static_cast<uint32_t>(ord));
    }
    crumbs |= static_cast<uint8_t>(code << (2 * filled));
    if (++filled == 4) {
      writer->PutU8(crumbs);
      crumbs = 0;
      filled = 0;
    }
  }
  if (filled != 0) writer->PutU8(crumbs);
  // Escape list: occupied-ordinal + zigzag count per escaped cell. The
  // ordinals are redundant with the code stream but make each escape entry
  // self-locating, so the decoder can cross-check them.
  writer->PutVarint(escapes.size());
  for (uint32_t ord : escapes) {
    writer->PutVarint(ord);
    writer->PutVarint(ZigZag(meta_[cells[ord]].count));
  }
  // Checksums are XORs of uniform 64-bit hashes — incompressible; raw.
  for (uint32_t cell : cells) writer->PutU64(meta_[cell].check);
  // Key payloads, zero bytes suppressed behind group masks.
  for (uint32_t cell : cells) {
    PutMaskedKey(CellKeyBytes(cell), config_.key_width, writer);
  }
}

Status Iblt::DecodeCellBlock(ByteReader* reader,
                             const std::vector<uint32_t>& cells) {
  const size_t n = cells.size();
  // Count codes.
  std::vector<uint8_t> codes(n, kCountZero);
  for (size_t ord = 0; ord < n; ord += 4) {
    uint8_t crumbs = 0;
    if (!reader->GetU8(&crumbs)) {
      return ParseError("sparse IBLT truncated (count codes)");
    }
    const size_t in_byte = std::min<size_t>(4, n - ord);
    if (in_byte < 4 && (crumbs >> (2 * in_byte)) != 0) {
      return ParseError("sparse IBLT: count codes past the last cell");
    }
    for (size_t b = 0; b < in_byte; ++b) {
      codes[ord + b] = (crumbs >> (2 * b)) & 0x3;
    }
  }
  // Escape list, cross-checked against the kCountEscape positions: entries
  // must name exactly those ordinals, in order, with counts that actually
  // need escaping.
  uint64_t num_escapes = 0;
  if (!reader->GetVarint(&num_escapes)) {
    return ParseError("sparse IBLT truncated (escape count)");
  }
  if (num_escapes > n) {
    return ParseError("sparse IBLT: escape count exceeds occupied cells");
  }
  size_t next_escape = 0;  // Scans codes[] for the next kCountEscape.
  std::vector<int64_t> escaped_counts(n, 0);
  for (uint64_t e = 0; e < num_escapes; ++e) {
    uint64_t ord = 0;
    uint64_t zz = 0;
    if (!reader->GetVarint(&ord) || !reader->GetVarint(&zz)) {
      return ParseError("sparse IBLT truncated (escape list)");
    }
    if (ord >= n) {
      return ParseError("sparse IBLT: escape-list index out of range");
    }
    while (next_escape < n && codes[next_escape] != kCountEscape) {
      ++next_escape;
    }
    if (next_escape >= n || ord != next_escape) {
      return ParseError("sparse IBLT: escape-list index mismatch");
    }
    const int64_t count = UnZigZag(zz);
    if (count >= -1 && count <= 1) {
      return ParseError("sparse IBLT: non-canonical escape count");
    }
    escaped_counts[ord] = count;
    ++next_escape;
  }
  for (size_t ord = next_escape; ord < n; ++ord) {
    if (codes[ord] == kCountEscape) {
      return ParseError("sparse IBLT: escape code without escape entry");
    }
  }
  // Apply counts.
  for (size_t ord = 0; ord < n; ++ord) {
    switch (codes[ord]) {
      case kCountPlusOne:
        meta_[cells[ord]].count = 1;
        break;
      case kCountMinusOne:
        meta_[cells[ord]].count = -1;
        break;
      case kCountZero:
        meta_[cells[ord]].count = 0;
        break;
      default:
        meta_[cells[ord]].count = escaped_counts[ord];
        break;
    }
  }
  // Checks.
  for (size_t ord = 0; ord < n; ++ord) {
    if (!reader->GetU64(&meta_[cells[ord]].check)) {
      return ParseError("sparse IBLT truncated (check)");
    }
  }
  // Keys (group-masked).
  for (size_t ord = 0; ord < n; ++ord) {
    if (!GetMaskedKey(reader, config_.key_width, CellKeyBytes(cells[ord]))) {
      return ParseError("sparse IBLT truncated or malformed (key mask)");
    }
  }
  for (size_t ord = 0; ord < n; ++ord) {
    if (CellIsZero(cells[ord])) {
      return ParseError("sparse IBLT: occupied cell decoded to zero");
    }
  }
  return Status::Ok();
}

void Iblt::SerializeSparse(ByteWriter* writer) const {
  std::vector<uint32_t> occupied;
  std::vector<uint8_t> bitmap((cells_ + 7) / 8, 0);
  for (size_t i = 0; i < cells_; ++i) {
    if (!CellIsZero(i)) {
      occupied.push_back(static_cast<uint32_t>(i));
      bitmap[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
    }
  }
  // Exact sparse-body size, computed before encoding so an oversized body
  // is never built: bitmap + count crumbs + escapes + checks + masked keys.
  size_t sparse_size = bitmap.size() + (occupied.size() + 3) / 4;
  size_t num_escapes = 0;
  for (size_t ord = 0; ord < occupied.size(); ++ord) {
    const int64_t count = meta_[occupied[ord]].count;
    if (count < -1 || count > 1) {
      ++num_escapes;
      sparse_size += VarintLen(ord) + VarintLen(ZigZag(count));
    }
  }
  sparse_size += VarintLen(num_escapes) + 8 * occupied.size();
  for (uint32_t cell : occupied) {
    sparse_size += MaskedKeyLen(CellKeyBytes(cell), config_.key_width);
  }
  if (sparse_size >= DenseSerializedSize()) {
    // Raw fallback: saturated/incompressible table — dense is no larger.
    writer->PutU8(kSparseModeRaw);
    Serialize(writer);
    return;
  }
  writer->PutU8(kSparseModeBitmap);
  writer->PutBytes(bitmap);
  EncodeCellBlock(occupied, writer);
}

Result<Iblt> Iblt::DeserializeSparse(ByteReader* reader,
                                     const IbltConfig& config) {
  uint8_t mode = 0;
  if (!reader->GetU8(&mode)) return ParseError("sparse IBLT truncated (mode)");
  if (mode == kSparseModeRaw) return Deserialize(reader, config);
  if (mode != kSparseModeBitmap) {
    return ParseError("sparse IBLT: unknown frame mode");
  }
  Iblt table(config);
  const size_t cells = table.cells_;
  std::vector<uint8_t> bitmap;
  if (!reader->GetBytes((cells + 7) / 8, &bitmap)) {
    return ParseError("sparse IBLT truncated (occupancy bitmap)");
  }
  if (cells % 8 != 0 && (bitmap.back() >> (cells % 8)) != 0) {
    return ParseError("sparse IBLT: occupancy bits past the last cell");
  }
  std::vector<uint32_t> marked;
  for (size_t i = 0; i < cells; ++i) {
    if (bitmap[i >> 3] & (1u << (i & 7))) {
      marked.push_back(static_cast<uint32_t>(i));
    }
  }
  Status status = table.DecodeCellBlock(reader, marked);
  if (!status.ok()) return status;
  return table;
}

void Iblt::SerializeWith(WireCodec codec, ByteWriter* writer) const {
  if (codec == WireCodec::kSparse) {
    SerializeSparse(writer);
  } else {
    Serialize(writer);
  }
}

Result<Iblt> Iblt::DeserializeWith(WireCodec codec, ByteReader* reader,
                                   const IbltConfig& config) {
  if (codec != WireCodec::kSparse) return Deserialize(reader, config);
  return DeserializeSparse(reader, config);
}

}  // namespace setrec
