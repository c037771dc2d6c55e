#include "core/multiround_protocol.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "charpoly/charpoly_reconciler.h"
#include "core/build_context.h"
#include "estimator/l0_estimator.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "setrec/set_reconciler.h"
#include "util/serialization.h"

namespace setrec {

namespace {

constexpr uint64_t kAttemptTag = 0x6d726e64ull;  // "mrnd"
constexpr uint64_t kNoPartner = ~0ull;

enum class PayloadMode : uint8_t { kDirect = 0, kIblt = 1, kCharPoly = 2 };

/// Per-child element-difference estimator: one word per level keeps the
/// message at O(log h) words per differing child, as Theorem 3.9 budgets.
L0Estimator::Params ChildEstimatorParams(uint64_t seed) {
  L0Estimator::Params params;
  params.buckets_per_level = 21;  // Exactly one 64-bit word per level.
  params.num_levels = 12;  // Child differences are at most 2h ~ 2^13.
  params.replicas = 5;
  params.seed = DeriveSeed(seed, /*tag=*/0x63686573ull);  // "ches"
  return params;
}

L0Estimator::Params RoundZeroEstimatorParams(uint64_t protocol_seed) {
  L0Estimator::Params params;
  params.seed = DeriveSeed(protocol_seed, /*tag=*/0x6d724553ull);
  return params;
}

IbltConfig ChildPayloadConfig(size_t d_i, uint64_t seed, uint64_t child_fp) {
  return IbltConfig::ForDifference(d_i, DeriveSeed(seed, Mix64(child_fp)));
}

IbltConfig FingerprintConfig(size_t d_hat, uint64_t seed) {
  return IbltConfig::ForDifference(2 * d_hat,
                                   DeriveSeed(seed, 0x66706962ull));
}

}  // namespace

Task<Status> MultiRoundProtocol::AttemptAlice(
    const SetOfSets& alice, std::optional<size_t> known_d, size_t d_hat,
    bool carry_d_hat, uint64_t seed, size_t* next, AttemptEnd* end,
    Channel* channel, ProtocolContext* ctx) const {
  *end = AttemptEnd::kRetry;
  HashFamily fp_family(seed, /*tag=*/0x66706d72ull);
  const L0Estimator::Params est_params = ChildEstimatorParams(seed);

  // ---- Round 1: the fingerprint IBLT (memoized across sessions sharing
  // Alice's set; the d-hat prefix of estimator mode is part of the cached
  // bytes, keyed by d_hat). ----
  IbltConfig fp_config = FingerprintConfig(d_hat, seed);
  // The mode flag is part of the key: estimator-mode messages carry a
  // d-hat prefix, and an SSRK session landing on the same (d_hat, seed)
  // must not replay them. The wire codec is part of the key too.
  uint64_t cache_key =
      ProtocolCacheKey(ctx->SetIdentity(&alice),
                       {kAttemptTag, d_hat, seed, carry_d_hat ? 1u : 0u,
                        static_cast<uint64_t>(params_.wire_codec)});
  // Alice's child fingerprints are needed unconditionally (the msg2
  // matching map below), so compute them once and share with the builder.
  std::vector<uint64_t> alice_fps(alice.size());
  for (size_t i = 0; i < alice.size(); ++i) {
    alice_fps[i] = ChildFingerprint(alice[i], fp_family);
  }
  auto build = [&](ByteWriter* writer) -> Task<Status> {
    if (carry_d_hat) writer->PutVarint(d_hat);
    Iblt ta(fp_config);
    ctx->QueueInsertU64(&ta, alice_fps.data(), alice_fps.size());
    // ParentFingerprint(alice) from the child fingerprints already in hand.
    writer->PutU64(SetFingerprint(alice_fps, fp_family));
    ta.SerializeWith(params_.wire_codec, writer);
    co_return Status::Ok();
  };
  Result<size_t> sent =
      co_await CachedAliceSend(ctx, channel, cache_key, "mr-hashes", build);
  if (!sent.ok()) {
    *end = AttemptEnd::kTerminal;
    co_return co_await SendAbort(ctx, channel, Party::kAlice, sent.status());
  }
  assert(sent.value() == *next && "transcript index drifted (Alice)");
  ++*next;

  // ---- msg2: Bob's difference lists + per-child element estimators (or
  // his mid-attempt failure verdict). ----
  const Channel::Message& m2 = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(m2)) {
    *end = AttemptEnd::kTerminal;
    co_return *abort;
  }
  if (IsVerdictMessage(m2)) {
    Result<AttemptVerdict> verdict = ParseVerdict(m2);
    if (!verdict.ok() || verdict.value().ok) {
      *end = AttemptEnd::kTerminal;
      co_return verdict.ok()
          ? ParseError("mr: unexpected ok verdict before payloads")
          : verdict.status();
    }
    co_return verdict.value().status;  // Bob-side retriable failure.
  }
  ByteReader r2(m2.payload);
  std::vector<uint64_t> alice_diff_fps_rx, bob_diff_fps_rx;
  if (!r2.GetU64Vector(&alice_diff_fps_rx) ||
      !r2.GetU64Vector(&bob_diff_fps_rx)) {
    *end = AttemptEnd::kTerminal;
    co_return co_await SendAbort(ctx, channel, Party::kAlice,
                                 ParseError("mr msg2 truncated (fp lists)"));
  }
  std::vector<L0Estimator> bob_estimators;
  bob_estimators.reserve(bob_diff_fps_rx.size());
  for (size_t j = 0; j < bob_diff_fps_rx.size(); ++j) {
    Result<L0Estimator> est = L0Estimator::Deserialize(&r2, est_params);
    if (!est.ok()) {
      *end = AttemptEnd::kTerminal;
      co_return co_await SendAbort(ctx, channel, Party::kAlice, est.status());
    }
    bob_estimators.push_back(std::move(est).value());
  }

  std::unordered_map<uint64_t, size_t> alice_fp_to_child;
  for (size_t i = 0; i < alice.size(); ++i) {
    if (!alice_fp_to_child.emplace(alice_fps[i], i).second) {
      // Retriable with fresh coins: tell Bob in the msg3 slot.
      co_return co_await SendVerdict(
          ctx, channel, Party::kAlice,
          VerificationFailure("mr: duplicate child fingerprint (Alice)"),
          next);
    }
  }

  struct Plan {
    uint64_t fp;
    size_t alice_child;
    uint64_t partner;  // Index into bob_diff lists, or kNoPartner.
    size_t d_i;
    PayloadMode mode = PayloadMode::kDirect;
    size_t sketch_index = 0;  // Into iblt_payloads when mode == kIblt.
  };
  // Resolve Alice's differing children and their element estimators (O(d)
  // tiny jobs; run inline) before the matching loop.
  std::vector<size_t> alice_diff_children;
  std::vector<L0Estimator> mine_ests;
  alice_diff_children.reserve(alice_diff_fps_rx.size());
  mine_ests.reserve(alice_diff_fps_rx.size());
  for (uint64_t fp : alice_diff_fps_rx) {
    auto it = alice_fp_to_child.find(fp);
    if (it == alice_fp_to_child.end()) {
      co_return co_await SendVerdict(
          ctx, channel, Party::kAlice,
          VerificationFailure("mr: unknown Alice-side fingerprint"), next);
    }
    alice_diff_children.push_back(it->second);
    mine_ests.emplace_back(est_params);
    const ChildSet& child = alice[it->second];
    mine_ests.back().UpdateBatch(child.data(), child.size(), 1);
  }

  std::vector<Plan> plans;
  size_t total_estimated = 0;
  for (size_t a = 0; a < alice_diff_fps_rx.size(); ++a) {
    const uint64_t fp = alice_diff_fps_rx[a];
    const ChildSet& child = alice[alice_diff_children[a]];
    uint64_t best_partner = kNoPartner;
    uint64_t best_estimate = ~0ull;
    for (size_t j = 0; j < bob_estimators.size(); ++j) {
      L0Estimator merged = bob_estimators[j];
      if (!merged.Merge(mine_ests[a]).ok()) continue;
      uint64_t estimate = merged.Estimate();
      if (estimate < best_estimate) {
        best_estimate = estimate;
        best_partner = j;
      }
    }
    size_t d_i =
        best_partner == kNoPartner
            ? child.size() + 1
            : std::max<size_t>(
                  4, static_cast<size_t>(params_.estimate_slack *
                                         static_cast<double>(best_estimate)));
    plans.push_back(Plan{fp, alice_diff_children[a], best_partner, d_i});
    total_estimated += d_i;
  }
  // Char-poly below sqrt(d) (Theorem 3.9's split); IBLT above; raw child
  // when the set itself is smaller than the sketch would be.
  const double sqrt_d = std::sqrt(static_cast<double>(
      known_d.has_value() ? std::max<size_t>(*known_d, 1)
                          : std::max<size_t>(total_estimated, 1)));

  // Phase 1: pick modes, build the O(d) IBLT payload sketches.
  std::vector<Iblt> iblt_payloads;
  iblt_payloads.reserve(plans.size());
  for (Plan& plan : plans) {
    const ChildSet& child = alice[plan.alice_child];
    if (child.size() <= plan.d_i) {
      plan.mode = PayloadMode::kDirect;
    } else if (static_cast<double>(plan.d_i) < sqrt_d) {
      plan.mode = PayloadMode::kCharPoly;
    } else {
      plan.mode = PayloadMode::kIblt;
      plan.sketch_index = iblt_payloads.size();
      iblt_payloads.emplace_back(ChildPayloadConfig(plan.d_i, seed, plan.fp));
      iblt_payloads.back().InsertBatch(child);
    }
  }

  // Phase 2: serialize every payload in plan order.
  ByteWriter w3;
  w3.PutVarint(plans.size());
  for (const Plan& plan : plans) {
    const ChildSet& child = alice[plan.alice_child];
    w3.PutU64(plan.fp);
    w3.PutU64(plan.partner);
    w3.PutU8(static_cast<uint8_t>(plan.mode));
    w3.PutVarint(plan.d_i);
    switch (plan.mode) {
      case PayloadMode::kDirect:
        w3.PutU64Vector(child);
        break;
      case PayloadMode::kIblt:
        iblt_payloads[plan.sketch_index].SerializeWith(params_.wire_codec,
                                                       &w3);
        break;
      case PayloadMode::kCharPoly: {
        CharPolyReconciler reconciler(plan.d_i,
                                      DeriveSeed(seed, Mix64(plan.fp)));
        Result<std::vector<uint8_t>> payload = reconciler.BuildMessage(child);
        if (!payload.ok()) {
          // Retriable (fresh coins change the plan); tell Bob in this slot.
          co_return co_await SendVerdict(ctx, channel, Party::kAlice,
                                         payload.status(), next);
        }
        w3.PutBytes(payload.value());
        break;
      }
    }
  }
  size_t msg3 =
      co_await ctx->Send(channel, Party::kAlice, w3.Take(), "mr-payloads");
  assert(msg3 == *next && "transcript index drifted (Alice)");
  (void)msg3;
  ++*next;

  // ---- msg4: Bob's verdict. ----
  Result<AttemptVerdict> verdict = co_await ReceiveVerdict(ctx, channel,
                                                           next);
  if (!verdict.ok()) {
    *end = AttemptEnd::kTerminal;
    co_return verdict.status();
  }
  if (verdict.value().ok) {
    *end = AttemptEnd::kOk;
    co_return Status::Ok();
  }
  co_return verdict.value().status;
}

Task<Result<SetOfSets>> MultiRoundProtocol::AttemptBob(
    const SetOfSets& bob, size_t* d_hat, bool carry_d_hat, uint64_t seed,
    size_t* next, AttemptEnd* end, Channel* channel,
    ProtocolContext* ctx) const {
  *end = AttemptEnd::kRetry;
  HashFamily fp_family(seed, /*tag=*/0x66706d72ull);
  const L0Estimator::Params est_params = ChildEstimatorParams(seed);

  // ---- msg1: Alice's fingerprint IBLT. ----
  const Channel::Message& m1 = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(m1)) {
    *end = AttemptEnd::kTerminal;
    co_return *abort;
  }
  ByteReader r1(m1.payload);
  if (carry_d_hat) {
    uint64_t wire = 0;
    if (!r1.GetVarint(&wire) ||
        !WireDHatPlausible(wire, /*key_width=*/8)) {
      *end = AttemptEnd::kTerminal;
      Status fail = ParseError("mr msg1 carries an invalid d-hat");
      co_return co_await SendAbort(ctx, channel, Party::kBob, fail);
    }
    *d_hat = static_cast<size_t>(wire);
  }
  IbltConfig fp_config = FingerprintConfig(*d_hat, seed);
  uint64_t cache_key =
      ProtocolCacheKey(ctx->PeerSetIdentity(),
                       {kAttemptTag, *d_hat, seed, carry_d_hat ? 1u : 0u,
                        static_cast<uint64_t>(params_.wire_codec)});
  uint64_t alice_parent_fp = 0;
  if (!r1.GetU64(&alice_parent_fp)) {
    *end = AttemptEnd::kTerminal;
    co_return co_await SendAbort(ctx, channel, Party::kBob,
                                 ParseError("mr msg1 truncated"));
  }
  Result<Iblt> ta_received = ctx->ParseTableMemo(
      TableMemoKey(cache_key, 0), &r1, fp_config, params_.wire_codec);
  if (!ta_received.ok()) {
    *end = AttemptEnd::kTerminal;
    co_return co_await SendAbort(ctx, channel, Party::kBob,
                                 ta_received.status());
  }
  Iblt fp_diff = std::move(ta_received).value();

  // Pooled scratch, reused for the fingerprint and child decodes (all u64
  // decodes here return owning vectors, so holding it across round yields
  // is safe — a scratch carries no state between decodes).
  DecodeScratch* scratch = ctx->Scratch(0);
  std::unordered_map<uint64_t, size_t> bob_fp_to_child;
  std::vector<uint64_t> bob_fps;
  bob_fps.reserve(bob.size());
  bool duplicate_bob_fp = false;
  for (size_t j = 0; j < bob.size(); ++j) {
    uint64_t fp = ChildFingerprint(bob[j], fp_family);
    bob_fps.push_back(fp);
    if (!bob_fp_to_child.emplace(fp, j).second) duplicate_bob_fp = true;
  }
  if (duplicate_bob_fp) {
    // Retriable with fresh coins: tell Alice in the msg2 slot.
    co_return co_await SendVerdict(
        ctx, channel, Party::kBob,
        VerificationFailure("mr: duplicate child fingerprint (Bob)"), next);
  }
  ctx->QueueEraseU64(&fp_diff, bob_fps.data(), bob_fps.size());
  Result<IbltDecodeResult64> fp_decoded = fp_diff.DecodeU64(scratch);
  if (!fp_decoded.ok()) {
    co_return co_await SendVerdict(ctx, channel, Party::kBob,
                                   fp_decoded.status(), next);
  }
  std::vector<uint64_t> alice_diff_fps = fp_decoded.value().positive;
  std::vector<uint64_t> bob_diff_fps = fp_decoded.value().negative;
  std::sort(alice_diff_fps.begin(), alice_diff_fps.end());
  std::sort(bob_diff_fps.begin(), bob_diff_fps.end());

  // ---- Round 2: both difference lists plus per-child element estimators
  // for Bob's differing children (O(d) small estimator updates). ----
  std::vector<size_t> bob_diff_children;
  std::vector<L0Estimator> bob_diff_ests;
  bob_diff_ests.reserve(bob_diff_fps.size());
  bool unknown_bob_fp = false;
  for (uint64_t fp : bob_diff_fps) {
    auto it = bob_fp_to_child.find(fp);
    if (it == bob_fp_to_child.end()) {
      unknown_bob_fp = true;
      break;
    }
    bob_diff_children.push_back(it->second);
    bob_diff_ests.emplace_back(est_params);
    const ChildSet& bob_child = bob[it->second];
    bob_diff_ests.back().UpdateBatch(bob_child.data(), bob_child.size(), 2);
  }
  if (unknown_bob_fp) {
    co_return co_await SendVerdict(
        ctx, channel, Party::kBob,
        VerificationFailure("mr: unknown Bob-side fingerprint"), next);
  }
  ByteWriter w2;
  w2.PutU64Vector(alice_diff_fps);
  w2.PutU64Vector(bob_diff_fps);
  for (const L0Estimator& est : bob_diff_ests) est.Serialize(&w2);
  size_t msg2 =
      co_await ctx->Send(channel, Party::kBob, w2.Take(), "mr-estimators");
  assert(msg2 == *next && "transcript index drifted (Bob)");
  (void)msg2;
  ++*next;

  // ---- msg3: Alice's per-child payloads (or her mid-attempt verdict). ----
  const Channel::Message& m3 = co_await ctx->Receive(channel, *next);
  ++*next;
  if (std::optional<Status> abort = PeerAbort(m3)) {
    *end = AttemptEnd::kTerminal;
    co_return *abort;
  }
  if (IsVerdictMessage(m3)) {
    Result<AttemptVerdict> verdict = ParseVerdict(m3);
    if (!verdict.ok() || verdict.value().ok) {
      *end = AttemptEnd::kTerminal;
      co_return verdict.ok()
          ? ParseError("mr: unexpected ok verdict in payload slot")
          : verdict.status();
    }
    co_return verdict.value().status;  // Alice-side retriable failure.
  }

  // Recovery; failures settle in the msg4 verdict slot (parse errors as
  // aborts — replaying the attempt cannot fix a malformed message).
  Status fail = Status::Ok();
  SetOfSets da;
  {
    ByteReader r3(m3.payload);
    uint64_t num_entries = 0;
    if (!r3.GetVarint(&num_entries)) fail = ParseError("mr msg3 truncated");
    const ChildSet empty_set;
    for (uint64_t k = 0; fail.ok() && k < num_entries; ++k) {
      uint64_t fp = 0, partner = 0, d_i = 0;
      uint8_t mode_raw = 0;
      if (!r3.GetU64(&fp) || !r3.GetU64(&partner) || !r3.GetU8(&mode_raw) ||
          !r3.GetVarint(&d_i)) {
        fail = ParseError("mr msg3 truncated (entry header)");
        break;
      }
      const ChildSet* base = &empty_set;
      if (partner != kNoPartner) {
        if (partner >= bob_diff_children.size()) {
          fail = ParseError("mr msg3: partner index out of range");
          break;
        }
        base = &bob[bob_diff_children[partner]];
      }
      ChildSet candidate;
      switch (static_cast<PayloadMode>(mode_raw)) {
        case PayloadMode::kDirect: {
          if (!r3.GetU64Vector(&candidate)) {
            fail = ParseError("mr msg3 truncated (direct)");
          }
          break;
        }
        case PayloadMode::kIblt: {
          // d_i sizes the sketch Bob is about to allocate; it is peer
          // input and gets the same plausibility gate as the msg1 d-hat
          // prefix (a corrupt value must be a parse error, not a
          // bad_alloc thrown into the coroutine). kDirect payloads skip
          // the gate — they allocate nothing proportional to d_i, and an
          // honest direct d_i (child size + 1) may legitimately exceed
          // it.
          if (!WireDHatPlausible(d_i, /*key_width=*/8)) {
            fail = ParseError("mr msg3: implausible d_i");
            break;
          }
          IbltConfig config = ChildPayloadConfig(d_i, seed, fp);
          Result<Iblt> sketch =
              Iblt::DeserializeWith(params_.wire_codec, &r3, config);
          if (!sketch.ok()) {
            fail = sketch.status();
            break;
          }
          Iblt diff = std::move(sketch).value();
          diff.EraseBatch(*base);
          Result<IbltDecodeResult64> dd = diff.DecodeU64(scratch);
          if (!dd.ok()) {
            fail = dd.status();
            break;
          }
          SetDifference sd;
          sd.remote_only = std::move(dd.value().positive);
          sd.local_only = std::move(dd.value().negative);
          candidate = ApplyDifference(*base, sd);
          break;
        }
        case PayloadMode::kCharPoly: {
          if (!WireDHatPlausible(d_i, /*key_width=*/8)) {
            fail = ParseError("mr msg3: implausible d_i");
            break;
          }
          CharPolyReconciler reconciler(d_i, DeriveSeed(seed, Mix64(fp)));
          std::vector<uint8_t> payload;
          if (!r3.GetBytes(reconciler.MessageSize(), &payload)) {
            fail = ParseError("mr msg3 truncated (charpoly)");
            break;
          }
          Result<SetDifference> sd = reconciler.DecodeDifference(payload,
                                                                 *base);
          if (!sd.ok()) {
            fail = sd.status();
            break;
          }
          candidate = ApplyDifference(*base, sd.value());
          break;
        }
        default:
          fail = ParseError("mr msg3: unknown payload mode");
          break;
      }
      if (!fail.ok()) break;
      if (ChildFingerprint(candidate, fp_family) != fp) {
        fail = VerificationFailure("mr: child fingerprint mismatch");
        break;
      }
      da.push_back(std::move(candidate));
    }
  }

  SetOfSets recovered;
  if (fail.ok()) {
    std::vector<bool> in_db(bob.size(), false);
    for (size_t j : bob_diff_children) in_db[j] = true;
    recovered.reserve(bob.size() + da.size());
    for (size_t j = 0; j < bob.size(); ++j) {
      if (!in_db[j]) recovered.push_back(bob[j]);
    }
    for (ChildSet& child : da) recovered.push_back(std::move(child));
    recovered = Canonicalize(std::move(recovered));
    if (ParentFingerprint(recovered, fp_family) != alice_parent_fp) {
      fail = VerificationFailure("mr: parent fingerprint mismatch");
    }
  }

  if (!fail.ok() && fail.code() == StatusCode::kParseError) {
    *end = AttemptEnd::kTerminal;
    co_return co_await SendAbort(ctx, channel, Party::kBob, fail);
  }
  co_await SendVerdict(ctx, channel, Party::kBob, fail, next);
  if (!fail.ok()) co_return fail;
  *end = AttemptEnd::kOk;
  co_return recovered;
}

Task<Status> MultiRoundProtocol::ReconcileAsyncAlice(
    const SetOfSets& alice, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  Status valid = ValidateSetOfSetsMemo(alice, params_, ctx);
  const bool estimated = !known_d.has_value();
  size_t next = 0;

  size_t d_hat = 0;
  if (!estimated) {
    if (!valid.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
    }
    d_hat = std::max<size_t>(DHat(std::max<size_t>(*known_d, 1), params_), 1);
  } else {
    // SSRU (Theorem 3.10): round 0, Bob opens with an l0 estimator over his
    // child fingerprints so Alice can size the fingerprint IBLT.
    const Channel::Message& m = co_await ctx->Receive(channel, next);
    ++next;
    if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
    if (!valid.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
    }
    const L0Estimator::Params est_params =
        RoundZeroEstimatorParams(params_.seed);
    HashFamily fp_family(est_params.seed, /*tag=*/0x66706d32ull);
    ByteReader reader(m.payload);
    Result<L0Estimator> merged_r =
        L0Estimator::Deserialize(&reader, est_params);
    if (!merged_r.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice,
                                   merged_r.status());
    }
    L0Estimator merged = std::move(merged_r).value();
    L0Estimator alice_est(est_params);
    std::vector<uint64_t> alice_fps0;
    alice_fps0.reserve(alice.size());
    for (const ChildSet& child : alice) {
      alice_fps0.push_back(ChildFingerprint(child, fp_family));
    }
    ctx->QueueL0Update(&alice_est, alice_fps0.data(), alice_fps0.size(), 1);
    if (Status s = merged.Merge(alice_est); !s.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kAlice, s);
    }
    // Clamped to the wire bound Bob's side enforces (WireDHatPlausible;
    // the fingerprint table has 8-byte keys).
    d_hat = std::min<size_t>(
        std::max<size_t>(
            static_cast<size_t>(params_.estimate_slack *
                                static_cast<double>(merged.Estimate())) /
                2,
            2),
        MaxWireDHat(/*key_width=*/8));
  }

  // Shared trial driver (AttemptEnd flavor: the verdict exchange is
  // interleaved with the attempt's own four messages).
  co_return co_await RunAliceEndTrials(
      ctx, params_.max_attempts,
      [&](int trial) {
        return DeriveSeed(params_.seed,
                          kAttemptTag + static_cast<uint64_t>(trial));
      },
      [&](int, uint64_t seed, AttemptEnd* end) {
        return AttemptAlice(alice, known_d, d_hat, estimated, seed, &next,
                            end, channel, ctx);
      },
      [&] {
        if (estimated) {
          d_hat = std::min<size_t>(d_hat * 2, MaxWireDHat(/*key_width=*/8));
        }
      },
      "multiround failed: ");
}

Task<Result<SsrOutcome>> MultiRoundProtocol::ReconcileAsyncBob(
    const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  Status valid = ValidateSetOfSets(bob, params_);
  const bool estimated = !known_d.has_value();
  size_t next = 0;

  size_t d_hat = 0;
  if (!estimated) {
    d_hat = std::max<size_t>(DHat(std::max<size_t>(*known_d, 1), params_), 1);
    if (!valid.ok()) {
      // Bob's first slot is msg2 of attempt 0; abort there.
      const Channel::Message& m = co_await ctx->Receive(channel, next);
      ++next;
      if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
      co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
    }
  } else {
    if (!valid.ok()) {
      co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
    }
    const L0Estimator::Params est_params =
        RoundZeroEstimatorParams(params_.seed);
    HashFamily fp_family(est_params.seed, /*tag=*/0x66706d32ull);
    L0Estimator bob_est(est_params);
    std::vector<uint64_t> bob_fps0;
    bob_fps0.reserve(bob.size());
    for (const ChildSet& child : bob) {
      bob_fps0.push_back(ChildFingerprint(child, fp_family));
    }
    ctx->QueueL0Update(&bob_est, bob_fps0.data(), bob_fps0.size(), 2);
    ByteWriter writer;
    bob_est.Serialize(&writer);
    size_t index = co_await ctx->Send(channel, Party::kBob, writer.Take(),
                                      "mr-d-estimator");
    assert(index == next && "transcript index drifted (Bob)");
    (void)index;
    ++next;
  }

  // Bob's retry state (d_hat) rides on the wire; empty on_retry.
  co_return co_await RunBobEndTrials(
      ctx, channel, params_.max_attempts,
      [&](int trial) {
        return DeriveSeed(params_.seed,
                          kAttemptTag + static_cast<uint64_t>(trial));
      },
      [&](int, uint64_t seed, AttemptEnd* end) {
        return AttemptBob(bob, &d_hat, estimated, seed, &next, end, channel,
                          ctx);
      },
      [] {}, "multiround failed: ");
}

}  // namespace setrec
