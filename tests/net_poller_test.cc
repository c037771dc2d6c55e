// Poller backend matrix + timer-driven connection lifecycle + admission:
//
//  * Every available backend (poll always; epoll on Linux) passes one
//    shared semantics suite — registration, readiness, interest-0
//    parking, retargeting, hangup.
//  * A NetPump reaps a half-open connection that never completes its hello
//    (handshake timeout) and an established session gone byte-silent
//    (idle timeout), with the reap visible in stats AND pump metrics.
//  * Over the admission cap, a connection is shed with a parseable
//    "busy, retry-after" frame the client surfaces as kUnavailable; the
//    busy codec itself fails closed on malformed frames.
//  * MultiNetPump routes new connections to the least-loaded shard.

#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "net/multi_pump.h"
#include "net/net_pump.h"
#include "net/poller.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "service/sharded_service.h"
#include "service/sync_service.h"
#include "util/serialization.h"

namespace setrec {
namespace {

// ---------------------------------------------------------------------------
// Backend matrix: the shared Poller contract, run on every backend the
// host can construct.

std::unique_ptr<Poller> MakeBackend(PollerKind kind) {
  switch (kind) {
    case PollerKind::kPoll:
      return internal::MakePollPoller();
    case PollerKind::kEpoll:
      return internal::MakeEpollPoller();
    default:
      return nullptr;
  }
}

class PollerBackend : public ::testing::TestWithParam<PollerKind> {};

TEST_P(PollerBackend, ReadinessContract) {
  std::unique_ptr<Poller> poller = MakeBackend(GetParam());
  if (poller == nullptr) {
    GTEST_SKIP() << PollerKindName(GetParam()) << " unavailable here";
  }
  EXPECT_EQ(poller->kind(), GetParam());

  int a[2], b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  ASSERT_TRUE(poller->Add(a[0], Poller::kRead, 41).ok());
  ASSERT_TRUE(poller->Add(b[0], Poller::kRead, 42).ok());

  // Nothing ready: a zero timeout returns promptly and empty.
  std::vector<PollerEvent> events;
  Result<size_t> n = poller->Wait(0, &events);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);

  // One byte on `a`: exactly token 41 reports readable.
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  events.clear();
  n = poller->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(events[0].token, 41u);
  EXPECT_TRUE(events[0].readable);

  // Level-triggered: unread data reports again.
  events.clear();
  n = poller->Wait(0, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(events[0].token, 41u);

  // Interest 0 parks the fd: same readable byte, no report.
  ASSERT_TRUE(poller->Modify(a[0], 0, 41).ok());
  events.clear();
  n = poller->Wait(0, &events);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);

  // Un-park with a retargeted token; both pipes ready → both reported.
  ASSERT_TRUE(poller->Modify(a[0], Poller::kRead, 141).ok());
  ASSERT_EQ(::write(b[1], "y", 1), 1);
  events.clear();
  n = poller->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 2u);
  uint64_t seen = 0;
  for (const PollerEvent& event : events) seen |= event.token;
  EXPECT_EQ(seen, 141u | 42u);

  // Drain, close the write side: hangup (and EOF-readability) surfaces.
  char scratch[8];
  ASSERT_EQ(::read(a[0], scratch, sizeof scratch), 1);
  ASSERT_EQ(::read(b[0], scratch, sizeof scratch), 1);
  ::close(b[1]);
  events.clear();
  n = poller->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(events[0].token, 42u);
  EXPECT_TRUE(events[0].hangup || events[0].readable);

  ASSERT_TRUE(poller->Remove(a[0]).ok());
  ASSERT_TRUE(poller->Remove(b[0]).ok());
  ::close(a[0]);
  ::close(a[1]);
  ::close(b[0]);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PollerBackend,
                         ::testing::Values(PollerKind::kPoll,
                                           PollerKind::kEpoll),
                         [](const ::testing::TestParamInfo<PollerKind>&
                                param_info) {
                           return std::string(
                               PollerKindName(param_info.param));
                         });

TEST(PollerFactory, ExplicitRequestAndDegradation) {
  // Explicit poll always succeeds as itself.
  std::unique_ptr<Poller> poll = MakePoller(PollerKind::kPoll);
  ASSERT_NE(poll, nullptr);
  EXPECT_EQ(poll->kind(), PollerKind::kPoll);
  // An explicit epoll request is honored where epoll exists; elsewhere it
  // degrades to poll (never null).
  std::unique_ptr<Poller> epoll = MakePoller(PollerKind::kEpoll);
  ASSERT_NE(epoll, nullptr);
  EXPECT_EQ(epoll->kind(), PollerBackendAvailable(PollerKind::kEpoll)
                               ? PollerKind::kEpoll
                               : PollerKind::kPoll);
}

TEST(PollerFactory, AutoHonorsEnvSteer) {
  // Save and restore: the ctest backend variants drive the whole binary
  // through this very variable.
  const char* old = ::getenv("SETREC_POLLER");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("SETREC_POLLER", "poll", 1);
  std::unique_ptr<Poller> steered = MakePoller(PollerKind::kAuto);
  ASSERT_NE(steered, nullptr);
  EXPECT_EQ(steered->kind(), PollerKind::kPoll);
  if (old != nullptr) {
    ::setenv("SETREC_POLLER", saved.c_str(), 1);
  } else {
    ::unsetenv("SETREC_POLLER");
  }
}

TEST(PollerFactory, NamesRoundTrip) {
  for (PollerKind kind :
       {PollerKind::kAuto, PollerKind::kPoll, PollerKind::kEpoll}) {
    Result<PollerKind> parsed = ParsePollerKind(PollerKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  // Unknown names, including the retired io_uring spellings, are rejected.
  for (const char* name : {"io_uring", "uring", "kqueue"}) {
    Result<PollerKind> parsed = ParsePollerKind(name);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

// ---------------------------------------------------------------------------
// Busy-frame codec: round-trip plus fail-closed on every malformation.

TEST(BusyFrame, RoundTripAndFailClosed) {
  const Channel::Message busy = MakeBusyMessage(1500);
  ASSERT_TRUE(IsBusyMessage(busy));
  Result<uint32_t> hint = ParseBusyMessage(busy);
  ASSERT_TRUE(hint.ok());
  EXPECT_EQ(hint.value(), 1500u);

  // Unknown version byte.
  Channel::Message bad_version = busy;
  bad_version.payload[0] = 2;
  EXPECT_FALSE(ParseBusyMessage(bad_version).ok());

  // Trailing bytes after the varint.
  Channel::Message trailing = busy;
  trailing.payload.push_back(0);
  EXPECT_FALSE(ParseBusyMessage(trailing).ok());

  // Truncated (no varint at all).
  Channel::Message truncated = busy;
  truncated.payload.resize(1);
  EXPECT_FALSE(ParseBusyMessage(truncated).ok());

  // An absurd retry hint (> 1h) is rejected rather than honored.
  Channel::Message absurd{Party::kAlice, {}, kBusyLabel};
  ByteWriter writer;
  writer.PutU8(1);
  writer.PutVarint(uint64_t{2} * 60 * 60 * 1000);
  absurd.payload = writer.Take();
  EXPECT_FALSE(ParseBusyMessage(absurd).ok());
}

// ---------------------------------------------------------------------------
// Timer-driven lifecycle on a live pump.

/// Pumps until `done` or the wall deadline; returns whether `done` held.
template <typename Done>
bool PumpUntil(NetPump* pump, Done&& done, int per_pass_ms = 10,
               uint64_t budget_ns = 20'000'000'000ull) {
  const uint64_t start = obs::NowNanos();
  while (!done()) {
    if (obs::NowNanos() - start > budget_ns) return false;
    pump->PumpOnce(per_pass_ms);
  }
  return true;
}

TEST(NetPumpTimers, HalfOpenConnectionReapedByHandshakeTimeout) {
  SyncService service;
  NetPumpOptions options;
  options.handshake_timeout_ms = 40;
  NetPump pump(&service, options);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());
  EXPECT_EQ(pump.connection_count(), 1u);

  // The client never says hello; the wheel must reap the connection even
  // though no fd event ever fires for it.
  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
  EXPECT_EQ(pump.stats().handshake_timeouts, 1u);
  EXPECT_EQ(pump.stats().closed, 1u);
  EXPECT_EQ(pump.stats().protocol_errors, 0u);  // A timeout is not garbage.
  EXPECT_EQ(pump.pump_metrics().handshake_timeouts, 1u);
  EXPECT_GE(pump.pump_metrics().timers_fired, 1u);
  ::close(sv[1]);
}

TEST(NetPumpTimers, SilentEstablishedSessionReapedByIdleTimeout) {
  SsrWorkloadSpec spec;
  spec.num_children = 8;
  spec.child_size = 6;
  spec.changes = 2;
  spec.seed = 777;
  SsrWorkload w = MakeSsrWorkload(spec);
  SsrParams params;
  params.max_child_size = spec.child_size + 4;
  params.max_children = spec.num_children + 2;
  params.seed = 778;

  SyncService service;
  const uint64_t set_id =
      service.RegisterSharedSet(std::make_shared<SetOfSets>(w.alice));
  NetPumpOptions options;
  options.idle_timeout_ms = 50;
  NetPump pump(&service, options);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());

  // Complete the hello so a session exists, then go silent: the client
  // never reads the server's turn nor sends its own.
  HelloSpec hello;
  hello.protocol = SsrProtocolKind::kIblt2;
  hello.set_id = set_id;
  hello.params = params;
  hello.known_d = spec.changes;
  ASSERT_TRUE(SendHello(sv[1], hello).ok());

  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
  EXPECT_EQ(pump.stats().idle_timeouts, 1u);
  EXPECT_EQ(pump.stats().disconnects, 1u);  // The live session was cancelled.
  EXPECT_EQ(pump.pump_metrics().idle_timeouts, 1u);

  // The cancelled session surfaces as a failed result.
  std::vector<SessionResult> results = pump.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.ok());
  ::close(sv[1]);
}

TEST(NetPumpTimers, DisabledTimeoutsKeepHalfOpenConnectionAlive) {
  SyncService service;
  NetPumpOptions options;
  options.handshake_timeout_ms = 0;  // The pre-PR-10 "EOF or never" mode.
  options.idle_timeout_ms = 0;
  NetPump pump(&service, options);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());
  const uint64_t start = obs::NowNanos();
  while (obs::NowNanos() - start < 150'000'000ull) {
    pump.PumpOnce(10);
  }
  EXPECT_EQ(pump.connection_count(), 1u);
  EXPECT_EQ(pump.stats().handshake_timeouts, 0u);
  ::close(sv[1]);
  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
}

// ---------------------------------------------------------------------------
// Admission shedding, end to end through the client helper.

TEST(NetPumpAdmission, OverCapConnectionShedWithParseableBusyFrame) {
  SsrWorkloadSpec spec;
  spec.num_children = 8;
  spec.child_size = 6;
  spec.changes = 2;
  spec.seed = 991;
  SsrWorkload w = MakeSsrWorkload(spec);
  SsrParams params;
  params.max_child_size = spec.child_size + 4;
  params.max_children = spec.num_children + 2;
  params.seed = 992;

  SyncService service;
  service.RegisterSharedSet(std::make_shared<SetOfSets>(w.alice));
  NetPumpOptions options;
  options.admission_max_sessions = 1;
  options.busy_retry_after_ms = 2500;
  NetPump pump(&service, options);

  int first[2], second[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, first), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, second), 0);
  ASSERT_TRUE(pump.AdoptConnection(first[0]).ok());   // Admitted.
  ASSERT_TRUE(pump.AdoptConnection(second[0]).ok());  // Over cap: shed.
  EXPECT_EQ(pump.stats().admissions_rejected, 1u);
  EXPECT_EQ(pump.pump_metrics().admissions_rejected, 1u);

  // The shed client runs the normal session path and must surface the
  // busy refusal as kUnavailable with the server's retry hint.
  std::atomic<bool> client_done{false};
  Status client_status = Status::Ok();
  uint32_t hint_ms = 0;
  std::thread client([&] {
    HelloSpec hello;
    hello.protocol = SsrProtocolKind::kIblt2;
    hello.set_id = 1;
    hello.params = params;
    hello.known_d = spec.changes;
    Status sent = SendHello(second[1], hello);
    if (sent.ok()) {
      std::unique_ptr<SetsOfSetsProtocol> protocol =
          MakeSsrProtocol(SsrProtocolKind::kIblt2, params);
      Channel channel;
      Result<SsrOutcome> outcome =
          RunBobHalfOverFd(*protocol, w.bob, spec.changes, second[1],
                           &channel, nullptr, 0, &hint_ms);
      client_status = outcome.ok() ? Status::Ok() : outcome.status();
    } else if (std::optional<uint32_t> hint = PendingBusyHintOnFd(second[1])) {
      // The shed server can close before the hello write even lands (the
      // race real clients hit); the refusal is still in the receive queue.
      hint_ms = *hint;
      client_status = Unavailable("server busy");
    } else {
      client_status = sent;
    }
    client_done.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(PumpUntil(
      &pump, [&] { return client_done.load(std::memory_order_acquire); }));
  client.join();
  EXPECT_EQ(client_status.code(), StatusCode::kUnavailable)
      << client_status.ToString();
  EXPECT_EQ(hint_ms, 2500u);

  // The shed connection closes once its busy frame flushed; the admitted
  // one is unaffected.
  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 1; }));
  ::close(second[1]);
  ::close(first[1]);
  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
}

// ---------------------------------------------------------------------------
// Load-aware routing across shards.

TEST(MultiPumpRouting, NewConnectionsAvoidTheLoadedShard) {
  ShardedSyncServiceOptions service_options;
  service_options.shards = 2;
  service_options.spawn_threads = false;
  ShardedSyncService service(service_options);

  // Pin synthetic load on shard 0: sessions submitted but never stepped.
  for (int i = 0; i < 4; ++i) {
    SessionSpec spec;
    spec.label = "ballast";
    spec.opaque = [](Channel*) { return Status::Ok(); };
    service.shard(0)->Submit(std::move(spec));
  }
  ASSERT_EQ(service.LoadOf(0).total(), 4u);
  ASSERT_EQ(service.LoadOf(1).total(), 0u);

  MultiNetPump pump(&service);
  int pair_a[2], pair_b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_b), 0);
  // Whatever the rotating tie-break salt says, the loaded shard loses.
  EXPECT_EQ(pump.AdoptConnection(pair_a[0]), 1u);
  EXPECT_EQ(pump.AdoptConnection(pair_b[0]), 1u);
  ::close(pair_a[1]);
  ::close(pair_b[1]);
  // Pumps were never started: the queued fds are closed by the pump
  // destructors (adopt-queue drain).
}

// ---------------------------------------------------------------------------
// STAT? carries the poller backend.

TEST(NetPumpStatExposition, ReportsPollerBackendGauge) {
  SyncService service;
  NetPumpOptions options;
  options.poller = PollerKind::kPoll;
  NetPump pump(&service, options);
  ASSERT_EQ(pump.poller_kind(), PollerKind::kPoll);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(pump.AdoptConnection(sv[0]).ok());

  std::atomic<bool> done{false};
  Result<std::string> text = Status::Ok();
  std::thread client([&] {
    text = QueryStatsOverFd(sv[1]);
    done.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(PumpUntil(
      &pump, [&] { return done.load(std::memory_order_acquire); }));
  client.join();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find("setrec_pump_poller_backend{backend=\"poll\"}"),
            std::string::npos)
      << text.value();
  ::close(sv[1]);
  EXPECT_TRUE(PumpUntil(&pump, [&] { return pump.connection_count() == 0; }));
}

}  // namespace
}  // namespace setrec
