#include "core/cascading_protocol.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_set>

#include "core/build_context.h"
#include "core/encoding.h"
#include "core/split_party.h"
#include "hashing/random.h"
#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {

namespace {

constexpr uint64_t kAttemptTag = 0x63736364ull;  // "cscd"
constexpr int kMaxDoublings = 40;  // SSRU: d = 2, 4, 8, ... (Corollary 3.8).

size_t CeilLog2(size_t x) {
  size_t level = 0;
  size_t value = 1;
  while (value < x) {
    value *= 2;
    ++level;
  }
  return level;
}

/// Child-IBLT config for level i: O(2^i) cells sized to decode child
/// differences of up to 2^i elements. A child's difference from its match
/// never exceeds d, so cells are capped at ~2.2(d+1) even at deep levels.
IbltConfig LevelChildConfig(size_t level, size_t d, uint64_t seed) {
  IbltConfig config;
  const double target =
      static_cast<double>(std::min<uint64_t>(1ull << level, d + 1));
  config.cells = std::max<size_t>(6, static_cast<size_t>(2.2 * target));
  config.num_hashes = 4;
  config.key_width = 8;
  config.seed = DeriveSeed(seed, 0x6c63686cull + level);  // "lchl"
  return config;
}

/// Outer table T_i config: sized for the expected number of undecoded child
/// encodings at level i (<= 2 d-hat at level 1, ~(9/4) d / 2^i deeper).
/// Deep levels hold very few (large) encodings, so the floor is kept low —
/// the paper's O(d / 2^i) cells.
IbltConfig LevelOuterConfig(size_t level, size_t d, size_t d_hat,
                            size_t blob_width, uint64_t seed) {
  size_t expected_keys;
  if (level == 1) {
    expected_keys = 2 * d_hat;
  } else {
    double deep = 2.5 * static_cast<double>(d) /
                  static_cast<double>(1ull << (level - 1));
    expected_keys = std::min<size_t>(2 * d_hat,
                                     static_cast<size_t>(std::ceil(deep)));
  }
  IbltConfig config;
  config.cells = std::max<size_t>(
      8, static_cast<size_t>(2.0 * static_cast<double>(expected_keys)) + 4);
  config.num_hashes = 4;
  config.key_width = blob_width;
  config.seed = DeriveSeed(seed, 0x6c6f7472ull + level);
  return config;
}

/// The full per-attempt table plan — levels 1..t plus the optional direct
/// table T*. Derived identically by both parties from shared knowledge.
struct CascadePlan {
  size_t t = 0;
  bool has_star = false;
  std::vector<IbltConfig> child_configs;
  std::vector<IbltConfig> outer_configs;
  IbltConfig star_config;
};

CascadePlan MakePlan(size_t h, size_t d, size_t d_hat, uint64_t seed) {
  CascadePlan plan;
  const size_t dm = std::min(d, h);
  plan.t = std::max<size_t>(1, CeilLog2(dm));
  plan.has_star = h <= d;  // t == log2 h: append the direct table T*.
  for (size_t i = 1; i <= plan.t; ++i) {
    plan.child_configs.push_back(LevelChildConfig(i, d, seed));
    plan.outer_configs.push_back(LevelOuterConfig(
        i, d, d_hat, ChildIbltBlobWidth(plan.child_configs.back()), seed));
  }
  if (plan.has_star) {
    size_t star_keys = std::min<size_t>(
        2 * d_hat, static_cast<size_t>(
                       std::ceil(2.5 * static_cast<double>(d) /
                                 static_cast<double>(std::max<size_t>(h, 1)))) +
                       2);
    plan.star_config = IbltConfig::ForDifference(
        std::max<size_t>(star_keys, 2),
        DeriveSeed(seed, /*tag=*/0x73746172ull), ChildBlobWidth(h));  // "star"
  }
  return plan;
}

}  // namespace

Task<Status> CascadingProtocol::AttemptAlice(const SetOfSets& alice, size_t d,
                                             size_t d_hat, uint64_t seed,
                                             size_t* next,
                                             Channel* channel,
                                             ProtocolContext* ctx) const {
  const size_t h = params_.max_child_size;
  HashFamily fp_family(seed, /*tag=*/0x66706373ull);
  const CascadePlan plan = MakePlan(h, d, d_hat, seed);

  // Every child encoded into every level (and T*). One message, memoized
  // across sessions sharing Alice's set. Each level's child encodings are
  // written in place into one packed buffer, which is inserted into the
  // level's outer table as one batch. The wire codec is part of the
  // key (dense/sparse sessions must not replay each other's bytes).
  uint64_t cache_key = ProtocolCacheKey(
      ctx->SetIdentity(&alice),
      {kAttemptTag, d, d_hat, seed, h,
       static_cast<uint64_t>(params_.wire_codec)});
  auto build = [&](ByteWriter* writer) -> Task<Status> {
    std::vector<uint64_t> fps(alice.size());
    for (size_t i = 0; i < alice.size(); ++i) {
      fps[i] = ChildFingerprint(alice[i], fp_family);
    }
    // ParentFingerprint(alice) from the child fingerprints already in hand.
    writer->PutU64(SetFingerprint(fps, fp_family));
    std::vector<uint8_t> packed;
    for (size_t level = 0; level < plan.t; ++level) {
      const size_t blob_width = plan.outer_configs[level].key_width;
      packed.resize(alice.size() * blob_width);
      for (size_t i = 0; i < alice.size(); ++i) {
        WriteChildIbltBlob(alice[i], plan.child_configs[level], fps[i],
                           packed.data() + i * blob_width);
      }
      Iblt outer(plan.outer_configs[level]);
      ctx->QueueInsertBytes(&outer, packed.data(), alice.size());
      outer.SerializeWith(params_.wire_codec, writer);
    }
    if (plan.has_star) {
      const size_t blob_width = plan.star_config.key_width;
      packed.resize(alice.size() * blob_width);
      for (size_t i = 0; i < alice.size(); ++i) {
        WriteChildBlob(alice[i], h, packed.data() + i * blob_width);
      }
      Iblt star(plan.star_config);
      ctx->QueueInsertBytes(&star, packed.data(), alice.size());
      star.SerializeWith(params_.wire_codec, writer);
    }
    co_return Status::Ok();
  };
  Result<size_t> sent =
      co_await CachedAliceSend(ctx, channel, cache_key, "cascade", build);
  if (!sent.ok()) co_return sent.status();
  assert(sent.value() == *next && "transcript index drifted (Alice)");
  ++*next;
  co_return Status::Ok();
}

Task<Result<SetOfSets>> CascadingProtocol::AttemptBob(
    const SetOfSets& bob, size_t d, size_t d_hat, uint64_t seed, size_t* next,
    bool* peer_aborted, Channel* channel, ProtocolContext* ctx) const {
  const size_t h = params_.max_child_size;
  HashFamily fp_family(seed, /*tag=*/0x66706373ull);
  const CascadePlan plan = MakePlan(h, d, d_hat, seed);
  uint64_t cache_key = ProtocolCacheKey(
      ctx->PeerSetIdentity(),
      {kAttemptTag, d, d_hat, seed, h,
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
    co_return ParseError("cascade message truncated");
  }
  std::vector<Iblt> outer_tables;
  for (size_t level = 0; level < plan.t; ++level) {
    Result<Iblt> table = ctx->ParseTableMemo(TableMemoKey(cache_key, level),
                                             &reader,
                                             plan.outer_configs[level],
                                             params_.wire_codec);
    if (!table.ok()) co_return table.status();
    outer_tables.push_back(std::move(table).value());
  }
  Result<Iblt> star_table =
      plan.has_star
          ? ctx->ParseTableMemo(TableMemoKey(cache_key, plan.t), &reader,
                                plan.star_config, params_.wire_codec)
          : InvalidArgument("unused");
  if (plan.has_star && !star_table.ok()) co_return star_table.status();

  std::vector<bool> in_db(bob.size(), false);   // Bob's differing children.
  SetOfSets da;                                  // Alice's recovered children.
  std::unordered_set<uint64_t> recovered_fps;    // Their fingerprints.
  std::vector<uint64_t> bob_fps(bob.size());
  for (size_t j = 0; j < bob.size(); ++j) {
    bob_fps[j] = ChildFingerprint(bob[j], fp_family);
  }
  // Outer/star decode views live in the pooled slot-0 scratch and are
  // iterated while the nested per-child decodes churn slot 1; the split
  // keeps the views valid (one scratch would be invalidated by the first
  // child decode). Within a level there is no suspension between the outer
  // decode and the last view use; across levels the table is re-decoded.
  DecodeScratch* outer_scratch = ctx->Scratch(0);
  DecodeScratch* child_scratch = ctx->Scratch(1);
  std::vector<uint8_t> bob_packed;
  std::vector<uint8_t> erase_packed;

  for (size_t level = 0; level < plan.t; ++level) {
    const IbltConfig& child_config = plan.child_configs[level];
    const size_t blob_width = plan.outer_configs[level].key_width;
    Iblt& outer = outer_tables[level];

    // Bob's level-i encodings (all children, for the blob map), written in
    // place. Delete Bob's children not yet known to differ (level 1: all of
    // them), and every already-recovered child of Alice's.
    bob_packed.resize(bob.size() * blob_width);
    for (size_t j = 0; j < bob.size(); ++j) {
      WriteChildIbltBlob(bob[j], child_config, bob_fps[j],
                         bob_packed.data() + j * blob_width);
    }
    const size_t erase_count =
        static_cast<size_t>(std::count(in_db.begin(), in_db.end(), false)) +
        da.size();
    erase_packed.resize(erase_count * blob_width);
    uint8_t* erase_out = erase_packed.data();
    for (size_t j = 0; j < bob.size(); ++j) {
      if (!in_db[j]) {
        std::memcpy(erase_out, bob_packed.data() + j * blob_width, blob_width);
        erase_out += blob_width;
      }
    }
    for (const ChildSet& child : da) {
      WriteChildIbltBlob(child, child_config,
                         ChildFingerprint(child, fp_family), erase_out);
      erase_out += blob_width;
    }
    ctx->QueueEraseBytes(&outer, erase_packed.data(), erase_count);

    std::map<IbltKeyView, size_t, KeyBytesLess> blob_to_child;
    for (size_t j = 0; j < bob.size(); ++j) {
      blob_to_child.emplace(
          IbltKeyView{bob_packed.data() + j * blob_width, blob_width}, j);
    }

    IbltPartialDecodeView decoded = outer.DecodePartial(outer_scratch);

    // Negative encodings expose Bob children that differ from Alice's.
    for (const IbltKeyView& blob : decoded.entries.negative) {
      auto it = blob_to_child.find(blob);
      if (it != blob_to_child.end()) in_db[it->second] = true;
      // Unknown negatives are decode noise; later verification catches it.
    }

    // Partner sketches for this level: Bob's differing children (about d),
    // parsed back from their packed encodings, plus the empty child.
    std::vector<std::pair<Iblt, const ChildSet*>> partners;
    for (size_t j = 0; j < bob.size(); ++j) {
      if (!in_db[j]) continue;
      Result<ChildEncoding> enc = ParseChildIbltBlob(
          bob_packed.data() + j * blob_width, blob_width, child_config);
      if (!enc.ok()) co_return enc.status();
      partners.emplace_back(std::move(enc).value().sketch, &bob[j]);
    }
    const ChildSet empty_set;
    partners.emplace_back(Iblt(child_config), &empty_set);

    for (const IbltKeyView& blob : decoded.entries.positive) {
      Result<ChildEncoding> enc_r = ParseChildIbltBlob(blob, child_config);
      if (!enc_r.ok()) continue;  // Noise; later levels retry.
      const ChildEncoding& enc = enc_r.value();
      if (recovered_fps.count(enc.fingerprint) > 0) continue;
      for (const auto& [sketch, set] : partners) {
        Result<ChildSet> child =
            RecoverChild(enc, sketch, *set, fp_family, child_scratch);
        // A child over h cannot be Alice's, and T* packs children at h.
        if (child.ok() && child.value().size() <= h) {
          recovered_fps.insert(enc.fingerprint);
          da.push_back(std::move(child).value());
          break;
        }
      }
      // A miss here is fine: the child resurfaces at the next level with a
      // larger sketch (that is the cascade's whole point).
    }
  }

  if (plan.has_star) {
    Iblt star = std::move(star_table).value();
    const size_t blob_width = plan.star_config.key_width;
    std::vector<uint8_t> star_packed((bob.size() + da.size()) * blob_width);
    for (size_t j = 0; j < bob.size() + da.size(); ++j) {
      const ChildSet& child = j < bob.size() ? bob[j] : da[j - bob.size()];
      WriteChildBlob(child, h, star_packed.data() + j * blob_width);
    }
    ctx->QueueEraseBytes(&star, star_packed.data(), bob.size() + da.size());
    std::map<IbltKeyView, size_t, KeyBytesLess> blob_to_child;
    for (size_t j = 0; j < bob.size(); ++j) {
      blob_to_child.emplace(
          IbltKeyView{star_packed.data() + j * blob_width, blob_width}, j);
    }
    IbltPartialDecodeView decoded = star.DecodePartial(outer_scratch);
    for (const IbltKeyView& blob : decoded.entries.negative) {
      auto it = blob_to_child.find(blob);
      if (it != blob_to_child.end()) in_db[it->second] = true;
    }
    for (const IbltKeyView& blob : decoded.entries.positive) {
      Result<ChildSet> child = DecodeChildBlob(blob, h);
      if (!child.ok()) continue;
      uint64_t fp = ChildFingerprint(child.value(), fp_family);
      if (recovered_fps.count(fp) > 0) continue;
      recovered_fps.insert(fp);
      da.push_back(std::move(child).value());
    }
  }

  SetOfSets recovered;
  recovered.reserve(bob.size() + da.size());
  for (size_t j = 0; j < bob.size(); ++j) {
    if (!in_db[j]) recovered.push_back(bob[j]);
  }
  for (ChildSet& child : da) recovered.push_back(std::move(child));
  recovered = Canonicalize(std::move(recovered));
  if (ParentFingerprint(recovered, fp_family) != alice_parent_fp) {
    co_return VerificationFailure("cascade: parent fingerprint mismatch");
  }
  co_return recovered;
}

Task<Status> CascadingProtocol::ReconcileAsyncAlice(
    const SetOfSets& alice, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  if (params_.max_child_size == 0) {
    co_return InvalidArgument("cascading protocol requires max_child_size (h)");
  }
  Status valid = ValidateSetOfSetsMemo(alice, params_, ctx);
  if (!valid.ok()) {
    co_return co_await SendAbort(ctx, channel, Party::kAlice, valid);
  }
  size_t next = 0;

  const int trials = known_d.has_value() ? params_.max_attempts
                                         : kMaxDoublings;
  size_t d = known_d.has_value() ? std::max<size_t>(*known_d, 1) : 2;
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
        // Clamped identically in both halves: a remote peer's fail
        // verdicts must not drive level counts / sketch sizes without
        // bound.
        if (!known_d.has_value()) {
          d = std::min<size_t>(d * 2, MaxWireDHat(/*key_width=*/8));
        }
      },
      std::string("cascade (") + (known_d.has_value() ? "SSRK" : "SSRU") +
          ") failed: ");
}

Task<Result<SsrOutcome>> CascadingProtocol::ReconcileAsyncBob(
    const SetOfSets& bob, std::optional<size_t> known_d, Channel* channel,
    ProtocolContext* ctx) const {
  if (params_.max_child_size == 0) {
    co_return InvalidArgument("cascading protocol requires max_child_size (h)");
  }
  Status valid = ValidateSetOfSets(bob, params_);
  size_t next = 0;
  if (!valid.ok()) {
    const Channel::Message& m = co_await ctx->Receive(channel, next);
    ++next;
    if (std::optional<Status> abort = PeerAbort(m)) co_return *abort;
    co_return co_await SendAbort(ctx, channel, Party::kBob, valid);
  }

  const int trials = known_d.has_value() ? params_.max_attempts
                                         : kMaxDoublings;
  size_t d = known_d.has_value() ? std::max<size_t>(*known_d, 1) : 2;
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
      std::string("cascade (") + (known_d.has_value() ? "SSRK" : "SSRU") +
          ") failed: ");
}

}  // namespace setrec
