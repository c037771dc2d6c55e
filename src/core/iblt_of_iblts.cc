#include "core/iblt_of_iblts.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/split_party.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {

namespace {
constexpr uint64_t kAttemptTag = 0x69626c32ull;  // "ibl2"
constexpr int kMaxDoublings = 40;  // SSRU: d = 1, 2, 4, ... (Corollary 3.6).

/// Child/outer table configs for one attempt, derived identically by both
/// parties from shared knowledge (params, d, d_hat, seed).
struct AttemptConfigs {
  IbltConfig child;
  IbltConfig outer;
};

AttemptConfigs MakeConfigs(size_t d, size_t d_hat, uint64_t seed) {
  AttemptConfigs configs;
  configs.child = IbltConfig::ForDifference(
      d, DeriveSeed(seed, /*tag=*/0x63686c64ull), /*key_width=*/8);
  configs.outer = IbltConfig::ForDifference(
      2 * d_hat, seed, ChildIbltBlobWidth(configs.child));
  return configs;
}

}  // namespace

Task<Status> IbltOfIbltsProtocol::AttemptAlice(const SetOfSets& alice,
                                               size_t d, size_t d_hat,
                                               uint64_t seed, size_t* next,
                                               Channel* channel,
                                               ProtocolContext* ctx) const {
  HashFamily fp_family(seed, /*tag=*/0x66703262ull);
  const AttemptConfigs configs = MakeConfigs(d, d_hat, seed);

  // Encode every child, insert encodings into the outer table. Each child's
  // (IBLT, fingerprint) encoding is written in place into one packed buffer
  // (no per-child table), then inserted into the outer table as one batch.
  // The whole message is memoized across sessions sharing Alice's set.
  uint64_t cache_key = ProtocolCacheKey(
      ctx->SetIdentity(&alice),
      {kAttemptTag, d, d_hat, seed,
       static_cast<uint64_t>(params_.wire_codec)});
  auto build = [&](ByteWriter* writer) -> Task<Status> {
    const size_t blob_width = configs.outer.key_width;
    std::vector<uint8_t> packed(alice.size() * blob_width);
    std::vector<uint64_t> fps(alice.size());
    for (size_t i = 0; i < alice.size(); ++i) {
      fps[i] = ChildFingerprint(alice[i], fp_family);
      WriteChildIbltBlob(alice[i], configs.child, fps[i],
                         packed.data() + i * blob_width);
    }
    Iblt outer(configs.outer);
    ctx->QueueInsertBytes(&outer, packed.data(), alice.size());
    // ParentFingerprint(alice) from the child fingerprints already in hand.
    writer->PutU64(SetFingerprint(fps, fp_family));
    outer.SerializeWith(params_.wire_codec, writer);
    co_return Status::Ok();
  };
  Result<size_t> sent =
      co_await CachedAliceSend(ctx, channel, cache_key, "iblt2-outer", build);
  if (!sent.ok()) co_return sent.status();
  assert(sent.value() == *next && "transcript index drifted (Alice)");
  ++*next;
  co_return Status::Ok();
}

Task<Result<SetOfSets>> IbltOfIbltsProtocol::AttemptBob(
    const SetOfSets& bob, size_t d, size_t d_hat, uint64_t seed, size_t* next,
    bool* peer_aborted, Channel* channel, ProtocolContext* ctx) const {
  HashFamily fp_family(seed, /*tag=*/0x66703262ull);
  const AttemptConfigs configs = MakeConfigs(d, d_hat, seed);
  const IbltConfig& child_config = configs.child;
  const IbltConfig& outer_config = configs.outer;
  uint64_t cache_key = ProtocolCacheKey(
      ctx->PeerSetIdentity(),
      {kAttemptTag, d, d_hat, seed,
       static_cast<uint64_t>(params_.wire_codec)});

  const Channel::Message& m = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(m)) {
    *peer_aborted = true;
    co_return *abort;
  }
  ByteReader reader(m.payload);
  uint64_t alice_parent_fp = 0;
  if (!reader.GetU64(&alice_parent_fp)) {
    co_return ParseError("iblt2 message truncated");
  }
  Result<Iblt> received = ctx->ParseTableMemo(TableMemoKey(cache_key, 0),
                                              &reader, outer_config,
                                              params_.wire_codec);
  if (!received.ok()) co_return received.status();
  Iblt remote = std::move(received).value();

  // Bob's own encodings, written in place the same way as Alice's, erased
  // from the outer table as one batch.
  const size_t blob_width = outer_config.key_width;
  std::vector<uint8_t> bob_packed(bob.size() * blob_width);
  for (size_t i = 0; i < bob.size(); ++i) {
    WriteChildIbltBlob(bob[i], child_config,
                       ChildFingerprint(bob[i], fp_family),
                       bob_packed.data() + i * blob_width);
  }
  ctx->QueueEraseBytes(&remote, bob_packed.data(), bob.size());

  // Bob's encodings keyed by blob so decoded negatives map back to his
  // concrete child sets; probed with decode views via the transparent
  // comparator.
  std::map<IbltKeyView, size_t, KeyBytesLess> blob_to_child;
  for (size_t i = 0; i < bob.size(); ++i) {
    blob_to_child.emplace(
        IbltKeyView{bob_packed.data() + i * blob_width, blob_width}, i);
  }

  // Two pooled scratches: slot 0 owns the outer-table decode views, which
  // must stay valid while the child decodes below churn slot 1 (one scratch
  // would be invalidated by the first child decode). No suspension happens
  // between this decode and the last view use.
  DecodeScratch* outer_scratch = ctx->Scratch(0);
  DecodeScratch* child_scratch = ctx->Scratch(1);
  Result<IbltDecodeView> decoded = remote.Decode(outer_scratch);
  if (!decoded.ok()) co_return decoded.status();

  // D_B: Bob's children whose encodings differ from all of Alice's.
  std::vector<std::pair<Iblt, const ChildSet*>> partners;  // Sketch, set.
  std::vector<bool> in_db(bob.size(), false);
  for (const IbltKeyView& blob : decoded.value().negative) {
    auto it = blob_to_child.find(blob);
    if (it == blob_to_child.end()) {
      co_return VerificationFailure("iblt2: unknown negative encoding");
    }
    Result<ChildEncoding> enc = ParseChildIbltBlob(blob, child_config);
    if (!enc.ok()) co_return enc.status();
    in_db[it->second] = true;
    partners.emplace_back(std::move(enc).value().sketch, &bob[it->second]);
  }
  // A fresh child of Alice's may have no close partner; pairing against the
  // empty set, tried last, recovers it when it has at most ~d elements.
  const ChildSet empty_set;
  partners.emplace_back(Iblt(child_config), &empty_set);

  // D_A: recover each of Alice's differing children.
  SetOfSets recovered_children;
  for (const IbltKeyView& blob : decoded.value().positive) {
    Result<ChildEncoding> enc_r = ParseChildIbltBlob(blob, child_config);
    if (!enc_r.ok()) co_return enc_r.status();
    const size_t before = recovered_children.size();
    for (const auto& [sketch, set] : partners) {
      Result<ChildSet> child =
          RecoverChild(enc_r.value(), sketch, *set, fp_family, child_scratch);
      if (child.ok()) {
        recovered_children.push_back(std::move(child).value());
        break;
      }
    }
    if (recovered_children.size() == before) {
      co_return DecodeFailure("iblt2: a child IBLT decoded with no partner");
    }
  }

  SetOfSets recovered;
  recovered.reserve(bob.size() + recovered_children.size());
  for (size_t i = 0; i < bob.size(); ++i) {
    if (!in_db[i]) recovered.push_back(bob[i]);
  }
  for (ChildSet& child : recovered_children) {
    recovered.push_back(std::move(child));
  }
  recovered = Canonicalize(std::move(recovered));
  if (ParentFingerprint(recovered, fp_family) != alice_parent_fp) {
    co_return VerificationFailure("iblt2: parent fingerprint mismatch");
  }
  co_return recovered;
}

Task<Status> IbltOfIbltsProtocol::ReconcileAsyncAlice(
    const SetOfSets& alice, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  Status valid = ValidateSetOfSetsMemo(alice, params_, ctx);
  if (!valid.ok()) {
    // Alice opens in both modes; abort in her first slot.
    co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
  }
  size_t next = 0;

  const int trials = known_d.has_value() ? params_.max_attempts
                                         : kMaxDoublings;
  size_t d = known_d.has_value() ? std::max<size_t>(*known_d, 1) : 1;
  co_return co_await RunAliceTrials(
      ctx, channel, &next, trials,
      [&](int trial) {
        return DeriveSeed(
            params_.seed,
            kAttemptTag +
                static_cast<uint64_t>(known_d.has_value() ? trial : 1000 + trial));
      },
      [&](int, uint64_t seed) {
        size_t d_hat = std::max<size_t>(DHat(d, params_), 1);
        return AttemptAlice(alice, d, d_hat, seed, &next, channel, ctx);
      },
      [&] {
        // Doubling stays clamped (both halves identically, so configs keep
        // matching): a remote peer's fail verdicts must not be able to
        // drive sketch allocations without bound.
        if (!known_d.has_value()) {
          d = std::min<size_t>(d * 2, MaxWireDHat(/*key_width=*/8));
        }
      },
      std::string("iblt2 (") + (known_d.has_value() ? "SSRK" : "SSRU") +
          ") failed: ");
}

Task<Result<SsrOutcome>> IbltOfIbltsProtocol::ReconcileAsyncBob(
    const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  Status valid = ValidateSetOfSets(bob, params_);
  size_t next = 0;
  if (!valid.ok()) {
    // Bob's first slot is the verdict after Alice's opener.
    const Channel::Message& m = co_await ctx->Receive(channel, next);
    ++next;
    if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
    co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
  }

  const int trials = known_d.has_value() ? params_.max_attempts
                                         : kMaxDoublings;
  size_t d = known_d.has_value() ? std::max<size_t>(*known_d, 1) : 1;
  co_return co_await RunBobTrials(
      ctx, channel, &next, trials,
      [&](int trial) {
        return DeriveSeed(
            params_.seed,
            kAttemptTag +
                static_cast<uint64_t>(known_d.has_value() ? trial : 1000 + trial));
      },
      [&](int, uint64_t seed, bool* peer_aborted) {
        size_t d_hat = std::max<size_t>(DHat(d, params_), 1);
        return AttemptBob(bob, d, d_hat, seed, &next, peer_aborted, channel,
                          ctx);
      },
      [&] {
        if (!known_d.has_value()) {
          d = std::min<size_t>(d * 2, MaxWireDHat(/*key_width=*/8));
        }
      },
      std::string("iblt2 (") + (known_d.has_value() ? "SSRK" : "SSRU") +
          ") failed: ");
}

}  // namespace setrec
