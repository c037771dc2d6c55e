#ifndef SETREC_CORE_MULTIROUND_PROTOCOL_H_
#define SETREC_CORE_MULTIROUND_PROTOCOL_H_

#include "core/protocol.h"
#include "core/split_party.h"

namespace setrec {

/// The multi-round protocol of Section 3.3 (Theorems 3.9 and 3.10). Trades
/// rounds for communication:
///
///  1. Alice sends an IBLT of her child-set fingerprints; Bob decodes it
///     against his own to learn which children differ on each side.
///  2. Bob sends, for each of his differing children, a compact l0
///     set-difference estimator of its elements (Theorem 3.1).
///  3. Alice matches each of her differing children to the most similar of
///     Bob's (smallest estimated difference d_i) and sends a per-child
///     payload: a characteristic-polynomial transcript when d_i < sqrt(d)
///     (Theorem 2.3), an O(d_i)-cell IBLT for larger differences
///     (Corollary 2.2), or the raw child when it is small enough that
///     sketching would cost more.
///  4. Bob applies each payload to the matched child and verifies per-child
///     and whole-parent fingerprints.
///
///   SSRK: 3 rounds. SSRU: 4 rounds (Bob first sends an l0 estimator over
///   child fingerprints so Alice can size the fingerprint IBLT).
class MultiRoundProtocol : public SetsOfSetsProtocol {
 public:
  explicit MultiRoundProtocol(const SsrParams& params) : params_(params) {}

  std::string Name() const override { return "multiround"; }

  Task<Status> ReconcileAsyncAlice(const SetOfSets& alice,
                                   std::optional<size_t> known_d,
                                   Channel* channel,
                                   ProtocolContext* ctx) const override;
  Task<Result<SsrOutcome>> ReconcileAsyncBob(const SetOfSets& bob,
                                             std::optional<size_t> known_d,
                                             Channel* channel,
                                             ProtocolContext* ctx)
      const override;

 private:
  /// One full attempt of Alice's side (msg1 hashes, msg2 in, msg3 payloads,
  /// msg4 verdict in). Mid-attempt retriable failures on either side travel
  /// as verdict frames in the failing party's next slot, so both parties
  /// fall through to the next attempt in lockstep; `*end` reports how the
  /// attempt concluded (see split_party.h).
  Task<Status> AttemptAlice(const SetOfSets& alice,
                            std::optional<size_t> known_d, size_t d_hat,
                            bool carry_d_hat, uint64_t seed, size_t* next,
                            AttemptEnd* end, Channel* channel,
                            ProtocolContext* ctx) const;
  /// Bob's side of one attempt; `*d_hat` is updated from the msg1 prefix in
  /// estimator mode. Sends the msg4 verdict itself (ok or fail).
  Task<Result<SetOfSets>> AttemptBob(const SetOfSets& bob, size_t* d_hat,
                                     bool carry_d_hat, uint64_t seed,
                                     size_t* next, AttemptEnd* end,
                                     Channel* channel,
                                     ProtocolContext* ctx) const;

  SsrParams params_;
};

}  // namespace setrec

#endif  // SETREC_CORE_MULTIROUND_PROTOCOL_H_
