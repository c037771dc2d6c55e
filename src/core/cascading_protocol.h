#ifndef SETREC_CORE_CASCADING_PROTOCOL_H_
#define SETREC_CORE_CASCADING_PROTOCOL_H_

#include "core/protocol.h"

namespace setrec {

/// Algorithm 2 of the paper ("Cascading IBLTs of IBLTs", Theorem 3.7 /
/// Corollary 3.8). Exploits that the total number of element changes is d —
/// so only O(1) children need Omega(d)-cell sketches, O(sqrt d) need
/// Omega(sqrt d) cells, and so on. Alice sends t = log2 min(d, h) outer
/// tables; table T_i holds (O(2^i)-cell child IBLT, hash) encodings in an
/// O(d / 2^i)-cell outer IBLT, plus a direct-encoding table T* when h <= d.
/// Bob walks the levels, recovering cheap children early and deleting them
/// from later (per-child more expensive, but sparser) tables; children
/// missed at one level are caught at the next.
///
///   SSRK: 1 round, O(d log min(d,h) log u + d log s) bits,
///         O(n log min(d,h) + d-hat d log d-hat) time, success >= 2/3
///         per attempt (amplified by retries).
///   SSRU: O(log d) rounds by repeated doubling (Corollary 3.8).
class CascadingProtocol : public SetsOfSetsProtocol {
 public:
  explicit CascadingProtocol(const SsrParams& params) : params_(params) {}

  std::string Name() const override { return "cascade"; }

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
  /// Builds and sends one attempt's cascade message (all t levels + T*);
  /// the verdict is received by the caller. Level configs derive from the
  /// shared (params, d, d_hat, seed) on both sides.
  Task<Status> AttemptAlice(const SetOfSets& alice, size_t d, size_t d_hat,
                            uint64_t seed, size_t* next, Channel* channel,
                            ProtocolContext* ctx) const;
  Task<Result<SetOfSets>> AttemptBob(const SetOfSets& bob, size_t d,
                                     size_t d_hat, uint64_t seed,
                                     size_t* next, bool* peer_aborted,
                                     Channel* channel,
                                     ProtocolContext* ctx) const;

  SsrParams params_;
};

}  // namespace setrec

#endif  // SETREC_CORE_CASCADING_PROTOCOL_H_
