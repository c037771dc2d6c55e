#include "layers.h"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "core/build_context.h"
#include "core/task.h"
#include "obs/clock.h"
#include "transport/endpoint.h"
#include "util/serialization.h"

namespace setrec::perf {
namespace {

/// The direct run's context: inline semantics, plus timing and counting at
/// every build, estimator and retry hook, plus optional table capture.
class LayerContext final : public InlineContext {
 public:
  LayerContext(CoreCounters* counters, CapturedSession* capture)
      : counters_(counters), capture_(capture) {}

  void QueueInsertU64(Iblt* table, const uint64_t* keys, size_t n) override {
    Build(table, n, [&] { ProtocolContext::QueueInsertU64(table, keys, n); });
    CaptureU64(table, +1, keys, n);
  }
  void QueueEraseU64(Iblt* table, const uint64_t* keys, size_t n) override {
    Build(table, n, [&] { ProtocolContext::QueueEraseU64(table, keys, n); });
    CaptureU64(table, -1, keys, n);
  }
  void QueueInsertBytes(Iblt* table, const uint8_t* keys, size_t n) override {
    Build(table, n,
          [&] { ProtocolContext::QueueInsertBytes(table, keys, n); });
    CaptureBytes(table, +1, keys, n);
  }
  void QueueEraseBytes(Iblt* table, const uint8_t* keys, size_t n) override {
    Build(table, n, [&] { ProtocolContext::QueueEraseBytes(table, keys, n); });
    CaptureBytes(table, -1, keys, n);
  }
  void QueueL0Update(L0Estimator* est, const uint64_t* xs, size_t n,
                     int side) override {
    Estimate(n, [&] { ProtocolContext::QueueL0Update(est, xs, n, side); });
  }
  void QueueStrataUpdate(StrataEstimator* est, const uint64_t* xs, size_t n,
                         int side) override {
    Estimate(n,
             [&] { ProtocolContext::QueueStrataUpdate(est, xs, n, side); });
  }
  void OnDecodeFailure() override {
    if (counters_ != nullptr) ++counters_->decode_failures;
  }
  void OnRetryRound() override {
    if (counters_ != nullptr) ++counters_->retry_rounds;
  }

 private:
  template <typename Apply>
  void Build(Iblt* table, size_t n, Apply&& apply) {
    if (counters_ == nullptr) {
      apply();
      return;
    }
    const uint64_t start = obs::NowNanos();
    apply();
    counters_->build_ns += obs::NowNanos() - start;
    counters_->build_keys += n;
    counters_->build_cells += table->config().PaddedCells();
  }

  template <typename Apply>
  void Estimate(size_t n, Apply&& apply) {
    if (counters_ == nullptr) {
      apply();
      return;
    }
    const uint64_t start = obs::NowNanos();
    apply();
    counters_->estimator_ns += obs::NowNanos() - start;
    counters_->estimator_updates += n;
  }

  CapturedTable& NewTable(const Iblt* table, int32_t delta, size_t n) {
    CapturedTable& captured = capture_->tables.emplace_back();
    captured.config = table->config();
    captured.delta = delta;
    captured.n = n;
    return captured;
  }
  void CaptureU64(const Iblt* table, int32_t delta, const uint64_t* keys,
                  size_t n) {
    if (capture_ == nullptr) return;
    NewTable(table, delta, n).u64_keys.assign(keys, keys + n);
  }
  void CaptureBytes(const Iblt* table, int32_t delta, const uint8_t* keys,
                    size_t n) {
    if (capture_ == nullptr) return;
    NewTable(table, delta, n)
        .byte_keys.assign(keys, keys + n * table->config().key_width);
  }

  CoreCounters* counters_;
  CapturedSession* capture_;
};

/// Rebuilds a captured table; `as_insert` replays an erase as an insert
/// (the receiver's side of a pair; see ReplayIblt).
Iblt Rebuild(const CapturedTable& captured, bool as_insert) {
  Iblt table(captured.config);
  const bool insert = as_insert || captured.delta > 0;
  if (!captured.u64_keys.empty()) {
    if (insert) {
      table.InsertBatch(captured.u64_keys.data(), captured.n);
    } else {
      table.EraseBatch(captured.u64_keys.data(), captured.n);
    }
  } else if (insert) {
    table.InsertBatch(captured.byte_keys.data(), captured.n);
  } else {
    table.EraseBatch(captured.byte_keys.data(), captured.n);
  }
  return table;
}

struct ConfigLess {
  bool operator()(const IbltConfig& a, const IbltConfig& b) const {
    return std::tie(a.cells, a.num_hashes, a.key_width, a.seed) <
           std::tie(b.cells, b.num_hashes, b.key_width, b.seed);
  }
};

void ReplayIbltPass(const std::vector<CapturedSession>& sessions,
                    WireCodec codec, DecodeScratch* scratch,
                    IbltReplay* replay_out) {
  IbltReplay& replay = *replay_out;
  for (const CapturedSession& session : sessions) {
    std::map<IbltConfig, std::vector<const CapturedTable*>, ConfigLess>
        groups;
    for (const CapturedTable& captured : session.tables) {
      groups[captured.config].push_back(&captured);

      Iblt table = Rebuild(captured, /*as_insert=*/false);
      ByteWriter writer;
      uint64_t start = obs::NowNanos();
      table.SerializeWith(codec, &writer);
      replay.encode_ns += obs::NowNanos() - start;
      replay.encoded_bytes += writer.size();

      ByteReader reader(writer.bytes());
      start = obs::NowNanos();
      Result<Iblt> parsed =
          Iblt::DeserializeWith(codec, &reader, captured.config);
      replay.parse_ns += obs::NowNanos() - start;
      replay.parsed_bytes += writer.size();
      if (!parsed.ok() || !reader.empty()) {
        replay.parse_ok = false;
      } else {
        Iblt check = std::move(parsed).value();
        if (!check.Subtract(table).ok() || !check.IsZero()) {
          replay.parse_ok = false;
        }
      }
    }
    for (const auto& [config, tables] : groups) {
      if (tables.size() % 2 != 0) continue;
      const size_t half = tables.size() / 2;
      for (size_t i = 0; i < half; ++i) {
        Iblt diff = Rebuild(*tables[i], /*as_insert=*/false);
        const Iblt peer = Rebuild(*tables[i + half], /*as_insert=*/true);
        uint64_t start = obs::NowNanos();
        const bool subtracted = diff.Subtract(peer).ok();
        uint64_t spent = obs::NowNanos() - start;
        if (!subtracted || diff.IsZero()) continue;
        start = obs::NowNanos();
        Result<IbltDecodeView> decoded = diff.Decode(scratch);
        spent += obs::NowNanos() - start;
        if (!decoded.ok()) continue;
        const uint64_t keys = decoded.value().positive.size() +
                              decoded.value().negative.size();
        if (keys == 0) continue;
        replay.decode_ns += spent;
        replay.decoded_keys += keys;
      }
    }
  }
}

}  // namespace

DirectRun RunDirect(const Population& pop, bool instrument,
                    size_t capture_sessions) {
  DirectRun run;
  run.refs.resize(pop.members.size());
  std::unique_ptr<SetsOfSetsProtocol> protocols[kSsrProtocolKindCount];
  for (int k = 0; k < kSsrProtocolKindCount; ++k) {
    protocols[k] =
        MakeSsrProtocol(static_cast<SsrProtocolKind>(k), pop.params);
  }
  // One member under `ctx`; returns the outcome, fills `channel`.
  const auto reconcile = [&](size_t i, LayerContext* ctx, Channel* channel) {
    const Member& member = pop.members[i];
    return RunSync(protocols[static_cast<int>(member.kind)]->ReconcileAsync(
        *pop.servers[member.server], *member.client, pop.known_d, channel,
        ctx));
  };
  // Pass 1, bare: the references, and core compute time free of the
  // hooks' clock reads and of capture copies.
  for (size_t i = 0; i < pop.members.size(); ++i) {
    LayerContext ctx(nullptr, nullptr);
    Channel channel;
    const uint64_t start = obs::NowNanos();
    Result<SsrOutcome> outcome = reconcile(i, &ctx, &channel);
    const uint64_t elapsed = obs::NowNanos() - start;
    Reference& ref = run.refs[i];
    ref.ok = outcome.ok() &&
             outcome.value().recovered == *pop.servers[pop.members[i].server];
    ref.bytes = channel.total_bytes();
    ref.rounds = channel.rounds();
    if (instrument) {
      ++run.counters.sessions;
      run.counters.compute_ns += elapsed;
      if (outcome.ok()) {
        run.counters.attempts +=
            static_cast<uint64_t>(outcome.value().stats.attempts);
      }
    }
  }
  if (!instrument) return run;
  // Pass 2: the build, estimator and retry hooks.
  for (size_t i = 0; i < pop.members.size(); ++i) {
    LayerContext ctx(&run.counters, nullptr);
    Channel channel;
    (void)reconcile(i, &ctx, &channel);
  }
  // Pass 3: tables and transcripts of the first members, for the replays.
  run.captured.resize(std::min(capture_sessions, pop.members.size()));
  for (size_t i = 0; i < run.captured.size(); ++i) {
    LayerContext ctx(nullptr, &run.captured[i]);
    Channel channel;
    (void)reconcile(i, &ctx, &channel);
    run.captured[i].transcript = channel.transcript();
  }
  return run;
}

IbltReplay ReplayIblt(const std::vector<CapturedSession>& sessions,
                      WireCodec codec, uint64_t min_ns) {
  IbltReplay replay;
  DecodeScratch scratch;
  const uint64_t start = obs::NowNanos();
  for (int pass = 0; pass < 20; ++pass) {
    ReplayIbltPass(sessions, codec, &scratch, &replay);
    if (obs::NowNanos() - start >= min_ns) break;
  }
  return replay;
}

FrameReplay ReplayFrames(const std::vector<CapturedSession>& sessions,
                         uint64_t min_ns) {
  ByteWriter writer;
  uint64_t frames_per_pass = 0;
  for (const CapturedSession& session : sessions) {
    for (const Channel::Message& message : session.transcript) {
      WriteMessageFrame(message, &writer);
      ++frames_per_pass;
    }
  }
  const std::vector<uint8_t>& stream = writer.bytes();
  constexpr size_t kChunk = 64u << 10;
  FrameReplay replay;
  do {
    FrameDecoder decoder;
    Channel::Message message;
    uint64_t frames = 0;
    const uint64_t start = obs::NowNanos();
    for (size_t off = 0; off < stream.size(); off += kChunk) {
      decoder.Feed(stream.data() + off, std::min(kChunk, stream.size() - off));
      while (decoder.Next(&message)) ++frames;
    }
    replay.ns += obs::NowNanos() - start;
    replay.bytes += stream.size();
    replay.frames += frames;
    if (frames != frames_per_pass || decoder.failed() ||
        decoder.buffered() != 0) {
      replay.ok = false;
    }
  } while (replay.ns < min_ns && !stream.empty());
  return replay;
}

}  // namespace setrec::perf
