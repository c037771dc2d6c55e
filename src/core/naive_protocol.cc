#include "core/naive_protocol.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/split_party.h"
#include "estimator/l0_estimator.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {

namespace {
constexpr uint64_t kAttemptTag = 0x6e616976ull;  // "naiv"
constexpr uint64_t kEstimatorTag = 0x6e764553ull;

/// Packs every child's fixed-width blob encoding into one contiguous
/// buffer, the shape Iblt::InsertBatch/EraseBatch consume.
std::vector<uint8_t> PackChildBlobs(const SetOfSets& children, size_t h) {
  const size_t width = ChildBlobWidth(h);
  std::vector<uint8_t> packed(children.size() * width);
  for (size_t i = 0; i < children.size(); ++i) {
    WriteChildBlob(children[i], h, packed.data() + i * width);
  }
  return packed;
}

L0Estimator::Params NaiveEstimatorParams(uint64_t protocol_seed) {
  L0Estimator::Params est_params;
  est_params.seed = DeriveSeed(protocol_seed, kEstimatorTag);
  return est_params;
}

}  // namespace

Task<Status> NaiveProtocol::AttemptAlice(const SetOfSets& alice, size_t d_hat,
                                         bool carry_d_hat, uint64_t seed,
                                         size_t* next, Channel* channel,
                                         ProtocolContext* ctx) const {
  const size_t h = params_.max_child_size;
  // The outer table must decode |E_A ⊕ E_B| <= 2 * d_hat blobs.
  IbltConfig config =
      IbltConfig::ForDifference(2 * d_hat, seed, ChildBlobWidth(h));
  HashFamily fp_family(seed, /*tag=*/0x70666e76ull);

  // Message memoized across sessions sharing Alice's set; the d-hat prefix
  // (estimator mode) is part of the cached bytes, so the mode flag is part
  // of the key — an SSRK session landing on the same (d_hat, seed) must
  // not replay prefixed SSRU bytes. The wire codec shapes the bytes too,
  // so it is part of the key: dense and sparse sessions coexist in one
  // service without replaying each other's encodings.
  uint64_t cache_key =
      ProtocolCacheKey(ctx->SetIdentity(&alice),
                       {kAttemptTag, d_hat, seed, h, carry_d_hat ? 1u : 0u,
                        static_cast<uint64_t>(params_.wire_codec)});
  auto build = [&](ByteWriter* writer) -> Task<Status> {
    if (carry_d_hat) writer->PutVarint(d_hat);
    Iblt table(config);
    std::vector<uint8_t> packed = PackChildBlobs(alice, h);
    ctx->QueueInsertBytes(&table, packed.data(), alice.size());
    co_await ctx->FlushBuilds();
    writer->PutU64(ParentFingerprint(alice, fp_family));
    table.SerializeWith(params_.wire_codec, writer);
    co_return Status::Ok();
  };
  Result<size_t> sent =
      co_await CachedAliceSend(ctx, channel, cache_key, "naive-iblt", build);
  if (!sent.ok()) co_return sent.status();
  assert(sent.value() == *next && "transcript index drifted (Alice)");
  ++*next;
  co_return Status::Ok();
}

Task<Result<SetOfSets>> NaiveProtocol::AttemptBob(
    const SetOfSets& bob, size_t* d_hat, bool carry_d_hat, uint64_t seed,
    size_t* next, bool* peer_aborted, Channel* channel,
    ProtocolContext* ctx) const {
  const size_t h = params_.max_child_size;
  const size_t width = ChildBlobWidth(h);

  const Channel::Message& m = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(m)) {
    *peer_aborted = true;
    co_return *abort;
  }
  ByteReader reader(m.payload);
  if (carry_d_hat) {
    uint64_t wire = 0;
    if (!reader.GetVarint(&wire) || !WireDHatPlausible(wire, width)) {
      co_return ParseError("naive message carries an invalid d-hat");
    }
    *d_hat = static_cast<size_t>(wire);
  }
  IbltConfig config = IbltConfig::ForDifference(2 * *d_hat, seed, width);
  HashFamily fp_family(seed, /*tag=*/0x70666e76ull);
  uint64_t cache_key = ProtocolCacheKey(
      ctx->PeerSetIdentity(),
      {kAttemptTag, *d_hat, seed, h, carry_d_hat ? 1u : 0u,
       static_cast<uint64_t>(params_.wire_codec)});

  uint64_t alice_fp = 0;
  if (!reader.GetU64(&alice_fp)) co_return ParseError("naive message truncated");
  Result<Iblt> received = ctx->ParseTableMemo(TableMemoKey(cache_key, 0),
                                              &reader, config,
                                              params_.wire_codec);
  if (!received.ok()) co_return received.status();
  Iblt remote = std::move(received).value();
  std::vector<uint8_t> bob_packed = PackChildBlobs(bob, h);
  ctx->QueueEraseBytes(&remote, bob_packed.data(), bob.size());
  co_await ctx->FlushBuilds();

  // The decoded entries are views into the pooled scratch arena; they stay
  // valid for the rest of this attempt (no suspension or further decode
  // through this scratch before the last view use).
  DecodeScratch* scratch = ctx->Scratch(0);
  Result<IbltDecodeView> decoded = remote.Decode(scratch);
  if (!decoded.ok()) co_return decoded.status();

  // Positive blobs are Alice-only children; negatives are Bob-only. The
  // multimap is keyed by views (no materialization) and probed with Bob's
  // owned encodings via the transparent comparator.
  std::map<IbltKeyView, int, KeyBytesLess> to_remove;
  for (const IbltKeyView& blob : decoded.value().negative) to_remove[blob] += 1;

  SetOfSets recovered;
  recovered.reserve(bob.size() + decoded.value().positive.size());
  for (size_t i = 0; i < bob.size(); ++i) {
    IbltKeyView blob{bob_packed.data() + i * width, width};
    auto it = to_remove.find(blob);
    if (it != to_remove.end() && it->second > 0) {
      it->second -= 1;
      continue;
    }
    recovered.push_back(bob[i]);
  }
  for (const IbltKeyView& blob : decoded.value().positive) {
    Result<ChildSet> child = DecodeChildBlob(blob, h);
    if (!child.ok()) co_return child.status();
    recovered.push_back(std::move(child).value());
  }
  recovered = Canonicalize(std::move(recovered));
  if (ParentFingerprint(recovered, fp_family) != alice_fp) {
    co_return VerificationFailure("naive: recovered parent fingerprint mismatch");
  }
  co_return recovered;
}

Task<Status> NaiveProtocol::ReconcileAsyncAlice(const SetOfSets& alice,
                                                std::optional<size_t> known_d,
                                                Channel* channel,
                                                ProtocolContext* ctx) const {
  if (params_.max_child_size == 0) {
    co_return InvalidArgument("naive protocol requires max_child_size (h)");
  }
  Status valid = ValidateSetOfSetsMemo(alice, params_, ctx);
  const bool estimated = !known_d.has_value();
  size_t next = 0;  // Index of the next transcript message.

  size_t d_hat = 0;
  if (!estimated) {
    // Alice opens; an invalid set aborts in her slot.
    if (!valid.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
    }
    d_hat = std::max<size_t>(DHat(*known_d, params_), 1);
  } else {
    // SSRU (Theorem 3.4): Bob opens with an l0 estimator over his child
    // fingerprints; Alice merges her own and derives d-hat, which rides to
    // Bob as the attempt-message prefix.
    const Channel::Message& m = co_await ctx->Receive(channel, next);
    ++next;
    if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
    if (!valid.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
    }
    const L0Estimator::Params est_params = NaiveEstimatorParams(params_.seed);
    HashFamily child_fp_family(est_params.seed, /*tag=*/0x63667076ull);
    ByteReader reader(m.payload);
    Result<L0Estimator> merged_r = L0Estimator::Deserialize(&reader,
                                                            est_params);
    if (!merged_r.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice,
                                   merged_r.status());
    }
    L0Estimator merged = std::move(merged_r).value();
    L0Estimator alice_est(est_params);
    std::vector<uint64_t> alice_fps;
    alice_fps.reserve(alice.size());
    for (const ChildSet& child : alice) {
      alice_fps.push_back(ChildFingerprint(child, child_fp_family));
    }
    ctx->QueueL0Update(&alice_est, alice_fps.data(), alice_fps.size(), 1);
    co_await ctx->FlushBuilds();
    if (Status s = merged.Merge(alice_est); !s.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, s);
    }
    // The estimate covers both sides' differing children (~2 d-hat).
    // Clamped to the wire bound Bob's side enforces (WireDHatPlausible).
    d_hat = std::min<size_t>(
        std::max<size_t>(
            static_cast<size_t>(params_.estimate_slack *
                                static_cast<double>(merged.Estimate())) /
                2,
            2),
        MaxWireDHat(ChildBlobWidth(params_.max_child_size)));
  }

  // Shared trial driver: the verdict exchange, abort slots and retry
  // schedule are the same instantiation Bob's half runs (wire lockstep by
  // construction).
  co_return co_await RunAliceTrials(
      ctx, channel, &next, params_.max_attempts,
      [&](int trial) {
        return DeriveSeed(params_.seed,
                          kAttemptTag + static_cast<uint64_t>(trial));
      },
      [&](int, uint64_t seed) {
        return AttemptAlice(alice, d_hat, estimated, seed, &next, channel,
                            ctx);
      },
      [&] {
        if (estimated) {
          // Estimator may have been low; doubling stays under the wire
          // bound.
          d_hat = std::min<size_t>(
              d_hat * 2, MaxWireDHat(ChildBlobWidth(params_.max_child_size)));
        }
      },
      "naive protocol failed: ");
}

Task<Result<SsrOutcome>> NaiveProtocol::ReconcileAsyncBob(
    const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  if (params_.max_child_size == 0) {
    co_return InvalidArgument("naive protocol requires max_child_size (h)");
  }
  Status valid = ValidateSetOfSets(bob, params_);
  const bool estimated = !known_d.has_value();
  size_t next = 0;

  size_t d_hat = 0;
  if (!estimated) {
    d_hat = std::max<size_t>(DHat(*known_d, params_), 1);
    if (!valid.ok()) {
      // Bob's first slot is the verdict after Alice's opener; abort there
      // (her abort, if any, wins — matching the combined-path order of
      // validation errors).
      const Channel::Message& m = co_await ctx->Receive(channel, next);
      ++next;
      if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
      co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
    }
  } else {
    // Bob opens with the estimator (or aborts in that slot).
    if (!valid.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
    }
    const L0Estimator::Params est_params = NaiveEstimatorParams(params_.seed);
    HashFamily child_fp_family(est_params.seed, /*tag=*/0x63667076ull);
    L0Estimator bob_est(est_params);
    std::vector<uint64_t> bob_fps;
    bob_fps.reserve(bob.size());
    for (const ChildSet& child : bob) {
      bob_fps.push_back(ChildFingerprint(child, child_fp_family));
    }
    ctx->QueueL0Update(&bob_est, bob_fps.data(), bob_fps.size(), 2);
    co_await ctx->FlushBuilds();
    ByteWriter writer;
    bob_est.Serialize(&writer);
    size_t index = co_await ctx->Send(channel, Party::kBob, writer.Take(),
                                      "naive-estimator");
    assert(index == next && "transcript index drifted (Bob)");
    (void)index;
    ++next;
  }

  // Bob's retry state (d_hat) rides on the wire (AttemptBob parses the
  // prefix), so his on_retry hook is empty.
  co_return co_await RunBobTrials(
      ctx, channel, &next, params_.max_attempts,
      [&](int trial) {
        return DeriveSeed(params_.seed,
                          kAttemptTag + static_cast<uint64_t>(trial));
      },
      [&](int, uint64_t seed, bool* peer_aborted) {
        return AttemptBob(bob, &d_hat, estimated, seed, &next, peer_aborted,
                          channel, ctx);
      },
      [] {}, "naive protocol failed: ");
}

}  // namespace setrec
