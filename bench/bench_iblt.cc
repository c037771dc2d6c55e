// Experiment E3: the paper's Theorem 2.1 (Section 2) — IBLT decode
// threshold and linear-time peeling. Part 1 measures decode success rate as a function of
// cells-per-key (the 2-core threshold for k=3,4 sits near 1.22/1.30
// cells per key asymptotically; small tables need more). Part 2 uses
// google-benchmark to confirm insert+decode throughput is linear in keys.
//
// `bench_iblt --json` instead runs the fixed throughput suite (insert
// keys/sec, subtract cells/sec, decode keys/sec at d in {1e2, 1e4, 1e6})
// and writes BENCH_iblt.json with the current numbers next to a historical
// seed-implementation baseline. The seed constants were recorded on a
// different 1-core box, so the seed ratios are labelled historical: they
// mix two machines and are not a same-box A/B. The suite also measures byte-key (36-byte blob) decode
// throughput through the view API vs a materializing decode, and counts
// heap allocations of a warm-scratch decode via a global operator new
// hook — BENCH_iblt.json carries the proof that warm blob decodes are
// allocation-free.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "hashing/random.h"
#include "iblt/iblt.h"

namespace setrec {
namespace {

double SuccessRate(size_t keys, double cells_per_key, int num_hashes,
                   int trials) {
  int success = 0;
  for (int t = 0; t < trials; ++t) {
    IbltConfig config;
    config.cells = static_cast<size_t>(cells_per_key * static_cast<double>(keys));
    config.num_hashes = num_hashes;
    config.key_width = 8;
    config.seed = static_cast<uint64_t>(7000 + t);
    Iblt table(config);
    Rng rng(static_cast<uint64_t>(t * 37) + keys);
    std::vector<uint64_t> elements(keys);
    for (auto& e : elements) e = rng.NextU64();
    table.InsertBatch(elements);
    Result<IbltDecodeResult64> decoded = table.DecodeU64();
    if (decoded.ok() && decoded.value().positive.size() == keys) ++success;
  }
  return static_cast<double>(success) / trials;
}

void DecodeThresholdTable() {
  bench::Header("E3 / Theorem 2.1", "IBLT decode success vs cells/key");
  std::printf("%8s %6s", "keys", "k");
  const double ratios[] = {1.1, 1.2, 1.3, 1.4, 1.6, 2.0, 2.5};
  for (double r : ratios) std::printf(" %7.1f", r);
  std::printf("\n");
  for (size_t keys : {16u, 64u, 256u, 1024u}) {
    for (int k : {3, 4}) {
      std::printf("%8zu %6d", keys, k);
      for (double r : ratios) {
        std::printf(" %6.0f%%", 100 * SuccessRate(keys, r, k, 40));
      }
      std::printf("\n");
    }
  }
  std::printf(
      "Expected shape: success jumps to ~100%% above the peeling threshold\n"
      "(~1.2-1.4 cells/key), sharper for larger tables; the library default\n"
      "of 2.0 cells/key + floor sits safely above it.\n");
}

void BM_InsertAndDecode(benchmark::State& state) {
  const size_t keys = static_cast<size_t>(state.range(0));
  IbltConfig config = IbltConfig::ForDifference(keys, 99);
  Rng rng(keys);
  std::vector<uint64_t> elements(keys);
  for (auto& e : elements) e = rng.NextU64();
  DecodeScratch scratch;
  for (auto _ : state) {
    Iblt table(config);
    table.InsertBatch(elements);
    auto decoded = table.DecodeU64(&scratch);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys));
}
BENCHMARK(BM_InsertAndDecode)->RangeMultiplier(4)->Range(64, 16384);

void BM_Subtract(benchmark::State& state) {
  const size_t keys = static_cast<size_t>(state.range(0));
  IbltConfig config = IbltConfig::ForDifference(keys, 100);
  Iblt a(config), b(config);
  Rng rng(keys + 1);
  std::vector<uint64_t> shared(keys);
  for (auto& e : shared) e = rng.NextU64();
  a.InsertBatch(shared);
  b.InsertBatch(shared);
  for (auto _ : state) {
    Iblt work = a;
    benchmark::DoNotOptimize(work.Subtract(b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys));
}
BENCHMARK(BM_Subtract)->RangeMultiplier(4)->Range(64, 16384);

// ---------------------------------------------------------------------------
// --json throughput suite
// ---------------------------------------------------------------------------

struct ThroughputRow {
  size_t d = 0;
  double insert_keys_per_sec = 0;
  double subtract_cells_per_sec = 0;
  double decode_keys_per_sec = 0;
  // Byte-key (36-byte blob) decode through the view API, vs. the same
  // decode followed by Materialize() — the owning shape every decode paid
  // for before the arena-backed result. Zero for seed rows (no blob bench
  // existed) and for d=1e6 (blob tables that large exceed the suite's
  // time budget).
  double blob_decode_keys_per_sec = 0;
  double blob_materialize_keys_per_sec = 0;
  // Heap allocations of one warm-scratch decode (global operator new
  // count). The view API's contract is blob == 0.
  size_t decode_allocs_warm_u64 = 0;
  size_t decode_allocs_warm_blob = 0;
};

// Historical seed-implementation baseline, measured on a 1-core Xeon
// @2.1GHz with the identical steady-state methodology below (best of 5
// repetitions, per-key InsertU64/EraseU64 + scratch-free DecodeU64 — the
// only APIs the seed had) immediately before the cell-engine rewrite.
// Ratios against these constants divide live numbers by another box's,
// so they are printed and written as historical only.
constexpr ThroughputRow kSeedBaseline[] = {
    {100, 1.682e7, 1.857e8, 5.779e6},
    {10000, 1.376e7, 8.602e7, 3.215e6},
    {1000000, 3.205e6, 7.243e7, 2.068e6},
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThroughputRow MeasureThroughput(size_t d) {
  const int kRepeats = 5;
  ThroughputRow row;
  row.d = d;
  IbltConfig config = IbltConfig::ForDifference(d, 42);
  Rng rng(d);
  std::vector<uint64_t> keys(d);
  for (auto& k : keys) k = rng.NextU64();
  const int reps = d >= 1000000 ? 3 : static_cast<int>(3000000 / d);

  // Insert: steady-state batched application into a persistent table.
  Iblt table(config);
  for (int rep = 0; rep < kRepeats; ++rep) {
    double t0 = NowSeconds();
    for (int r = 0; r < reps; ++r) table.InsertBatch(keys);
    double rate = static_cast<double>(d) * reps / (NowSeconds() - t0);
    row.insert_keys_per_sec = std::max(row.insert_keys_per_sec, rate);
  }

  Iblt a(config), b(config);
  a.InsertBatch(keys.data(), d / 2);
  b.InsertBatch(keys.data() + d / 2, d - d / 2);
  for (int rep = 0; rep < kRepeats; ++rep) {
    double t0 = NowSeconds();
    for (int r = 0; r < reps; ++r) {
      Iblt work = a;
      benchmark::DoNotOptimize(work.Subtract(b));
    }
    double rate =
        static_cast<double>(config.PaddedCells()) * reps / (NowSeconds() - t0);
    row.subtract_cells_per_sec = std::max(row.subtract_cells_per_sec, rate);
  }

  Iblt diff = a;
  (void)diff.Subtract(b);
  const int dreps = d >= 1000000 ? 2 : static_cast<int>(1000000 / d);
  DecodeScratch scratch;
  for (int rep = 0; rep < kRepeats; ++rep) {
    size_t decoded = 0;
    double t0 = NowSeconds();
    for (int r = 0; r < dreps; ++r) {
      auto out = diff.DecodeU64(&scratch);
      if (!out.ok()) {
        std::fprintf(stderr, "bench_iblt: decode failed at d=%zu\n", d);
        return row;
      }
      decoded = out.value().positive.size() + out.value().negative.size();
    }
    double rate = static_cast<double>(decoded) * dreps / (NowSeconds() - t0);
    row.decode_keys_per_sec = std::max(row.decode_keys_per_sec, rate);
  }
  row.decode_allocs_warm_u64 =
      CountAllocs([&] { benchmark::DoNotOptimize(diff.DecodeU64(&scratch)); });

  // Byte-key decode: 36-byte blobs (a child-encoding-ish width) through the
  // view API, plus the materializing equivalent of the pre-arena result.
  if (d <= 10000) {
    const size_t width = 36;
    IbltConfig blob_config = IbltConfig::ForDifference(d, 43, width);
    Iblt blob_table(blob_config);
    std::vector<uint8_t> packed(d * width);
    for (auto& byte : packed) byte = static_cast<uint8_t>(rng.NextU64());
    blob_table.InsertBatch(packed.data(), d);
    DecodeScratch blob_scratch;
    if (!blob_table.Decode(&blob_scratch).ok()) {  // Also the warm-up.
      std::fprintf(stderr, "bench_iblt: blob decode failed at d=%zu\n", d);
      return row;
    }
    const int breps = static_cast<int>(1000000 / d);
    for (int rep = 0; rep < kRepeats; ++rep) {
      size_t decoded = 0;
      double t0 = NowSeconds();
      for (int r = 0; r < breps; ++r) {
        auto out = blob_table.Decode(&blob_scratch);
        decoded = out.value().positive.size() + out.value().negative.size();
      }
      double rate =
          static_cast<double>(decoded) * breps / (NowSeconds() - t0);
      row.blob_decode_keys_per_sec =
          std::max(row.blob_decode_keys_per_sec, rate);
    }
    for (int rep = 0; rep < kRepeats; ++rep) {
      size_t decoded = 0;
      double t0 = NowSeconds();
      for (int r = 0; r < breps; ++r) {
        auto out = blob_table.Decode(&blob_scratch);
        IbltDecodeResult owned = out.value().Materialize();
        benchmark::DoNotOptimize(owned);
        decoded = owned.positive.size() + owned.negative.size();
      }
      double rate =
          static_cast<double>(decoded) * breps / (NowSeconds() - t0);
      row.blob_materialize_keys_per_sec =
          std::max(row.blob_materialize_keys_per_sec, rate);
    }
    row.decode_allocs_warm_blob = CountAllocs(
        [&] { benchmark::DoNotOptimize(blob_table.Decode(&blob_scratch)); });
  }
  return row;
}

void AppendRow(std::string* out, const ThroughputRow& row, bool last,
               bool extended) {
  char buf[512];
  if (extended && row.blob_decode_keys_per_sec > 0) {
    std::snprintf(buf, sizeof(buf),
                  "    \"d_%zu\": {\"insert_keys_per_sec\": %.4g, "
                  "\"subtract_cells_per_sec\": %.4g, "
                  "\"decode_keys_per_sec\": %.4g, "
                  "\"blob36_decode_keys_per_sec\": %.4g, "
                  "\"blob36_materialize_keys_per_sec\": %.4g, "
                  "\"decode_allocs_warm_u64\": %zu, "
                  "\"decode_allocs_warm_blob36\": %zu}%s\n",
                  row.d, row.insert_keys_per_sec, row.subtract_cells_per_sec,
                  row.decode_keys_per_sec, row.blob_decode_keys_per_sec,
                  row.blob_materialize_keys_per_sec,
                  row.decode_allocs_warm_u64, row.decode_allocs_warm_blob,
                  last ? "" : ",");
  } else if (extended) {
    // Blob columns are measured for d <= 1e4 only.
    std::snprintf(buf, sizeof(buf),
                  "    \"d_%zu\": {\"insert_keys_per_sec\": %.4g, "
                  "\"subtract_cells_per_sec\": %.4g, "
                  "\"decode_keys_per_sec\": %.4g, "
                  "\"decode_allocs_warm_u64\": %zu}%s\n",
                  row.d, row.insert_keys_per_sec, row.subtract_cells_per_sec,
                  row.decode_keys_per_sec, row.decode_allocs_warm_u64,
                  last ? "" : ",");
  } else {
    // Seed rows: the baseline predates the blob/allocation columns.
    std::snprintf(buf, sizeof(buf),
                  "    \"d_%zu\": {\"insert_keys_per_sec\": %.4g, "
                  "\"subtract_cells_per_sec\": %.4g, "
                  "\"decode_keys_per_sec\": %.4g}%s\n",
                  row.d, row.insert_keys_per_sec, row.subtract_cells_per_sec,
                  row.decode_keys_per_sec, last ? "" : ",");
  }
  *out += buf;
}

int RunJsonSuite() {
  bench::Header("IBLT throughput",
                "insert/subtract/decode vs historical seed baseline");
  std::string json = "{\n  \"bench\": \"iblt\",\n";
  json +=
      "  \"units\": {\"insert\": \"keys/sec\", \"subtract\": \"cells/sec\", "
      "\"decode\": \"keys/sec\", \"decode_allocs_warm\": "
      "\"heap allocations per warm-scratch decode\"},\n";
  json += "  \"historical_seed\": {\n";
  for (size_t i = 0; i < 3; ++i) {
    AppendRow(&json, kSeedBaseline[i], i == 2, /*extended=*/false);
  }
  json += "  },\n  \"current\": {\n";
  ThroughputRow current[3];
  for (size_t i = 0; i < 3; ++i) {
    current[i] = MeasureThroughput(kSeedBaseline[i].d);
    std::printf(
        "d=%-8zu insert %.3g keys/s (historical seed %.3g, %.2fx)  decode "
        "%.3g keys/s (historical seed %.3g, %.2fx)\n",
        current[i].d, current[i].insert_keys_per_sec,
        kSeedBaseline[i].insert_keys_per_sec,
        current[i].insert_keys_per_sec / kSeedBaseline[i].insert_keys_per_sec,
        current[i].decode_keys_per_sec, kSeedBaseline[i].decode_keys_per_sec,
        current[i].decode_keys_per_sec / kSeedBaseline[i].decode_keys_per_sec);
    if (current[i].blob_decode_keys_per_sec > 0) {
      std::printf(
          "           blob36 decode %.3g keys/s (materializing %.3g, %.2fx)  "
          "warm allocs: u64 %zu, blob %zu\n",
          current[i].blob_decode_keys_per_sec,
          current[i].blob_materialize_keys_per_sec,
          current[i].blob_decode_keys_per_sec /
              current[i].blob_materialize_keys_per_sec,
          current[i].decode_allocs_warm_u64,
          current[i].decode_allocs_warm_blob);
    }
    AppendRow(&json, current[i], i == 2, /*extended=*/true);
  }
  char tail[320];
  std::snprintf(tail, sizeof(tail),
                "  },\n  \"historical_seed_ratio_at_d_10000\": "
                "{\"insert\": %.2f, \"decode\": %.2f}",
                current[1].insert_keys_per_sec /
                    kSeedBaseline[1].insert_keys_per_sec,
                current[1].decode_keys_per_sec /
                    kSeedBaseline[1].decode_keys_per_sec);
  json += tail;
  if (current[1].blob_materialize_keys_per_sec > 0) {
    // Only claim blob numbers actually measured: a failed blob decode must
    // not read as "0 allocations" (or divide into NaN).
    std::snprintf(tail, sizeof(tail),
                  ",\n  \"blob36_view_over_materialize_at_d_10000\": %.2f,\n"
                  "  \"warm_blob_decode_allocs\": %zu",
                  current[1].blob_decode_keys_per_sec /
                      current[1].blob_materialize_keys_per_sec,
                  current[1].decode_allocs_warm_blob);
    json += tail;
  }
  json += "\n}\n";
  std::FILE* f = std::fopen("BENCH_iblt.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_iblt: cannot write BENCH_iblt.json\n");
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_iblt.json\n");
  return 0;
}

}  // namespace
}  // namespace setrec

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return setrec::RunJsonSuite();
    }
  }
  setrec::DecodeThresholdTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
