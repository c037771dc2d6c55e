// Interleaving fuzz: 100+ concurrent sessions with randomized workloads,
// protocols and d-knowledge, stepped through one SyncService so their rounds
// interleave arbitrarily. Every session must recover its own Alice exactly
// and send the transcript the blocking Reconcile sends for the same spec —
// no cross-session bleed through the shared scratch pool, the message cache
// or the parsed-table memo.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/workload.h"
#include "hashing/random.h"
#include "service/sharded_service.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

struct Expected {
  SetOfSets alice;
  /// HashTranscript of the same spec run through the blocking Reconcile
  /// (0 where the test does not check transcripts).
  uint64_t transcript_hash = 0;
};

uint64_t BlockingTranscriptHash(const SessionSpec& session) {
  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(session.protocol, session.params);
  Channel channel;
  Result<SsrOutcome> outcome = protocol->Reconcile(
      *session.alice, *session.bob, session.known_d, &channel);
  EXPECT_TRUE(outcome.ok()) << session.label;
  return HashTranscript(channel);
}

TEST(ServiceFuzzTest, HundredsOfInterleavedSessionsAllRecover) {
  constexpr int kSessions = 128;
  Rng rng(20260730);

  SyncServiceOptions options;
  options.hash_transcripts = true;
  SyncService service(options);

  // A quarter of the sessions share one registered server set (cache-hit
  // path); the rest get independent random workloads.
  SsrWorkloadSpec shared_spec;
  shared_spec.num_children = 16;
  shared_spec.child_size = 8;
  shared_spec.changes = 3;
  shared_spec.seed = 555;
  SsrWorkload shared = MakeSsrWorkload(shared_spec);
  auto server_set = std::make_shared<SetOfSets>(shared.alice);
  service.RegisterSharedSet(server_set);

  std::vector<Expected> expected;
  for (int i = 0; i < kSessions; ++i) {
    SessionSpec session;
    session.label = "fuzz" + std::to_string(i);
    session.protocol = static_cast<SsrProtocolKind>(rng.NextU64() % 4);

    if (i % 4 == 0) {
      // Shared-server session: client drifts by a couple of edits.
      SetOfSets bob = *server_set;
      size_t victim = rng.NextU64() % bob.size();
      if (bob[victim].size() > 1) bob[victim].pop_back();
      bob[rng.NextU64() % bob.size()].push_back((1ull << 41) +
                                                (rng.NextU64() & 0xffff));
      bob = Canonicalize(std::move(bob));
      session.params.max_child_size = shared_spec.child_size + 6;
      session.params.max_children = shared_spec.num_children + 6;
      session.params.seed = 9000;  // Shared coins: enables memoization.
      session.alice = server_set;
      session.bob = std::make_shared<SetOfSets>(std::move(bob));
      session.known_d = 6;
    } else {
      SsrWorkloadSpec spec;
      spec.num_children = 8 + rng.NextU64() % 12;
      spec.child_size = 4 + rng.NextU64() % 8;
      spec.changes = 1 + rng.NextU64() % 4;
      spec.touched_children = (i % 3 == 0) ? 2 : 0;
      spec.seed = static_cast<uint64_t>(10'000 + i);
      SsrWorkload w = MakeSsrWorkload(spec);
      session.params.max_child_size = spec.child_size + spec.changes + 2;
      session.params.max_children = spec.num_children + spec.changes;
      session.params.seed = static_cast<uint64_t>(20'000 + i);
      session.known_d = (i % 2 == 0)
                            ? std::optional<size_t>(w.applied_changes)
                            : std::nullopt;
      session.alice = std::make_shared<SetOfSets>(w.alice);
      session.bob = std::make_shared<SetOfSets>(w.bob);
    }
    expected.push_back({*session.alice, BlockingTranscriptHash(session)});
    service.Submit(std::move(session));
  }

  service.RunToCompletion();

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kSessions));
  // Results complete out of submission order (multi-round sessions park
  // longer); match them back by id (1-based submission order).
  for (const SessionResult& result : results) {
    ASSERT_GE(result.id, 1u);
    ASSERT_LE(result.id, static_cast<uint64_t>(kSessions));
    const Expected& want = expected[result.id - 1];
    ASSERT_TRUE(result.status.ok())
        << result.label << ": " << result.status.ToString();
    EXPECT_EQ(result.recovered, Canonicalize(want.alice)) << result.label;
    // Interleaving with 127 other sessions and the shared memo must not
    // change a single transcript byte.
    EXPECT_EQ(result.transcript_hash, want.transcript_hash) << result.label;
  }

  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.sessions_completed, static_cast<size_t>(kSessions));
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(ServiceFuzzTest, ShardedInterleavedSessionsAllRecover) {
  // The fuzz workload shape of the test above, but spread over 3 shard
  // threads (an odd count, so round-robin routing never aligns with the
  // i%4 shared-set stride): every session still recovers its own Alice —
  // no cross-session or cross-SHARD bleed through the shared cache or the
  // striped lease table.
  constexpr int kSessions = 120;
  Rng rng(424242);

  ShardedSyncServiceOptions options;
  options.shards = 3;
  ShardedSyncService service(options);

  SsrWorkloadSpec shared_spec;
  shared_spec.num_children = 16;
  shared_spec.child_size = 8;
  shared_spec.changes = 3;
  shared_spec.seed = 556;
  SsrWorkload shared = MakeSsrWorkload(shared_spec);
  auto server_set = std::make_shared<SetOfSets>(shared.alice);
  service.RegisterSharedSet(server_set);

  std::vector<Expected> expected;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kSessions; ++i) {
    SessionSpec session;
    session.label = "shardfuzz" + std::to_string(i);
    session.protocol = static_cast<SsrProtocolKind>(rng.NextU64() % 4);

    if (i % 4 == 0) {
      SetOfSets bob = *server_set;
      size_t victim = rng.NextU64() % bob.size();
      if (bob[victim].size() > 1) bob[victim].pop_back();
      bob[rng.NextU64() % bob.size()].push_back((1ull << 41) +
                                                (rng.NextU64() & 0xffff));
      bob = Canonicalize(std::move(bob));
      session.params.max_child_size = shared_spec.child_size + 6;
      session.params.max_children = shared_spec.num_children + 6;
      session.params.seed = 9100;
      session.alice = server_set;
      session.bob = std::make_shared<SetOfSets>(std::move(bob));
      session.known_d = 6;
      expected.push_back({*server_set});
    } else {
      SsrWorkloadSpec spec;
      spec.num_children = 8 + rng.NextU64() % 12;
      spec.child_size = 4 + rng.NextU64() % 8;
      spec.changes = 1 + rng.NextU64() % 4;
      spec.touched_children = (i % 3 == 0) ? 2 : 0;
      spec.seed = static_cast<uint64_t>(60'000 + i);
      SsrWorkload w = MakeSsrWorkload(spec);
      session.params.max_child_size = spec.child_size + spec.changes + 2;
      session.params.max_children = spec.num_children + spec.changes;
      session.params.seed = static_cast<uint64_t>(70'000 + i);
      session.known_d = (i % 2 == 0)
                            ? std::optional<size_t>(w.applied_changes)
                            : std::nullopt;
      session.alice = std::make_shared<SetOfSets>(w.alice);
      session.bob = std::make_shared<SetOfSets>(w.bob);
      expected.push_back({w.alice});
    }
    ids.push_back(service.Submit(std::move(session)));
  }
  service.RunToCompletion();

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kSessions));
  // Ids are per-shard residue classes; map back through submission order.
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < ids.size(); ++i) index_of.emplace(ids[i], i);
  for (const SessionResult& result : results) {
    auto it = index_of.find(result.id);
    ASSERT_NE(it, index_of.end()) << result.label;
    ASSERT_TRUE(result.status.ok())
        << result.label << ": " << result.status.ToString();
    EXPECT_EQ(result.recovered, Canonicalize(expected[it->second].alice))
        << result.label;
  }

  const ServiceStats stats = service.AggregateStats();
  EXPECT_EQ(stats.sessions_completed, static_cast<size_t>(kSessions));
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(ServiceFuzzTest, BacklogWindowDrainsEverything) {
  // A tiny in-flight window forces multi-wave admission; everything still
  // completes.
  constexpr int kSessions = 40;
  SyncServiceOptions options;
  options.max_inflight = 7;
  SyncService service(options);

  std::vector<SetOfSets> alices;
  for (int i = 0; i < kSessions; ++i) {
    SsrWorkloadSpec spec;
    spec.num_children = 6;
    spec.child_size = 5;
    spec.changes = 2;
    spec.seed = static_cast<uint64_t>(300 + i);
    SsrWorkload w = MakeSsrWorkload(spec);
    alices.push_back(w.alice);
    SessionSpec session;
    session.label = "windowed" + std::to_string(i);
    session.protocol =
        (i % 2 == 0) ? SsrProtocolKind::kNaive : SsrProtocolKind::kCascade;
    session.params.max_child_size = spec.child_size + spec.changes + 2;
    session.params.seed = static_cast<uint64_t>(80 + i);
    session.alice = std::make_shared<SetOfSets>(w.alice);
    session.bob = std::make_shared<SetOfSets>(w.bob);
    session.known_d = w.applied_changes;
    service.Submit(std::move(session));
  }
  service.RunToCompletion();

  std::vector<SessionResult> results = service.TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kSessions));
  for (const SessionResult& result : results) {
    ASSERT_TRUE(result.status.ok())
        << result.label << ": " << result.status.ToString();
    EXPECT_EQ(result.recovered, Canonicalize(alices[result.id - 1]));
  }
}

}  // namespace
}  // namespace setrec
