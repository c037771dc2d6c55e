// Sync server, three modes:
//
//  (default)        One SyncService instance driving 10,000 mixed-workload
//                   loopback sessions the way a server facing a client
//                   fleet would — set-of-sets sessions (all four protocol
//                   families) against one registered server set, stepped
//                   round-by-round with sketch builds coalesced in the
//                   cross-session batch planner, plus opaque graph /
//                   forest / shingle sessions sharing the same scheduler.
//
//  --listen=tcp:PORT | --listen=unix:PATH  [--serve=N] [--shards=K]
//                   [--stats-every=N] [--trace-slow=MS] [--poller=KIND]
//                   REAL remote clients: a src/net/ NetPump accepts
//                   connections, decodes wire frames, and the service
//                   hosts only the Alice half of each session against the
//                   remote Bob half (see examples/sync_client.cpp).
//                   Serves N sessions then exits (0 = forever).
//                   --shards=K (TCP only) runs the multi-core shape: K
//                   service shards, one pump thread each, all listening on
//                   the same port with SO_REUSEPORT.
//                   --stats-every=N prints an interval-delta stats line
//                   (what changed since the last report, plus the windowed
//                   rates a "STAT?" frame exposes) every N served
//                   sessions; --trace-slow=MS arms the session tracer and
//                   dumps a span tree for any session slower than MS (the
//                   dump header carries the client's trace id when the
//                   session was traced, so server log lines join with
//                   client-side traces). A stall watchdog dumps a shard's
//                   tracer ring if its driving thread stops stepping for
//                   2s with mailbox work queued.
//                   --poller=auto|poll|epoll selects the pump's
//                   readiness backend (auto = SETREC_POLLER env, else
//                   epoll on Linux, else poll).
//
//  --selftest-net   End-to-end loop-device check: listens on an ephemeral
//                   TCP port, drives a real client (the sync_client code
//                   path) through every protocol family over 127.0.0.1,
//                   and verifies recoveries. Registered as ctest
//                   `net_e2e_loopdevice`.
//
// Build & run:  ./build/example_sync_server

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "apps/shingles.h"
#include "core/workload.h"
#include "examples/net_demo.h"
#include "forest/forest_reconciler.h"
#include "graph/degree_ordering.h"
#include "graph/separated_instance.h"
#include "hashing/random.h"
#include "net/multi_pump.h"
#include "net/net_pump.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "service/sharded_service.h"
#include "service/sync_service.h"
#include "transport/endpoint.h"

namespace {

using namespace setrec;

/// The multi-core server: K shards, one pump thread per shard, one
/// SO_REUSEPORT TCP listener per pump.
int RunListenSharded(uint16_t want_port, size_t serve_count, size_t shards,
                     size_t stats_every, uint64_t trace_slow_ns,
                     PollerKind poller) {
  ShardedSyncServiceOptions service_options;
  service_options.shards = shards;
  service_options.spawn_threads = false;  // Pump threads drive the shards.
  service_options.service.trace_slow_ns = trace_slow_ns;
  ShardedSyncService service(service_options);
  auto server_set = std::make_shared<SetOfSets>(net_demo::MakeServerSet());
  uint64_t set_id = service.RegisterSharedSet(server_set);

  MultiNetPumpOptions pump_options;
  pump_options.pump.poller = poller;
  MultiNetPump pump(&service, pump_options);
  Result<uint16_t> port = pump.ListenTcp(want_port);
  if (!port.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 port.status().ToString().c_str());
    return 1;
  }
  // Stall watchdog: a pump thread that stops stepping its shard while the
  // shard's mailbox holds work is wedged, not idle — dump that shard's
  // tracer ring so the last recorded events point at where it stuck.
  obs::StallWatchdog watchdog;
  for (size_t i = 0; i < service.shard_count(); ++i) {
    SyncService* shard = service.shard(i);
    // The pump's heartbeat (stamped every poller return) is the liveness
    // signal — it keeps beating through idle stretches where the shard
    // never steps; its away-from-poll p99 is printed in the stall banner.
    NetPump* shard_pump = pump.pump(i);
    watchdog.Watch({"shard-" + std::to_string(i), &shard_pump->heartbeat(),
                    [shard] { return shard->HasMailboxWork(); },
                    &shard->tracer(),
                    [shard_pump] {
                      return shard_pump->SnapshotPumpMetrics()
                          .away_from_poll.p99();
                    }});
  }
  watchdog.Start(/*stall_ns=*/2'000'000'000, /*poll_ms=*/500, stderr);
  std::printf("listening on tcp port %u with %zu shard pumps "
              "(SO_REUSEPORT; poller %s; shared set id %llu, %zu "
              "children)\n",
              port.value(), pump.pump_count(),
              PollerKindName(pump.pump(0)->poller_kind()),
              static_cast<unsigned long long>(set_id), server_set->size());
  std::fflush(stdout);
  pump.Start();

  size_t served = 0, failed = 0, last_stats_at = 0;
  ServiceStats last_stats;
  while (serve_count == 0 || served < serve_count) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (const SessionResult& r : pump.TakeResults()) {
      ++served;
      if (!r.status.ok()) {
        ++failed;
        std::printf("session %llu (%s): %s\n",
                    static_cast<unsigned long long>(r.id), r.label.c_str(),
                    r.status.ToString().c_str());
      } else {
        std::printf("session %llu (%s): ok, %zu rounds, %zu bytes\n",
                    static_cast<unsigned long long>(r.id), r.label.c_str(),
                    r.stats.rounds, r.stats.bytes);
      }
      std::fflush(stdout);
    }
    if (stats_every > 0 && served - last_stats_at >= stats_every) {
      last_stats_at = served;
      // Interval deltas since the last report (published snapshots: this
      // thread is no shard's driver), plus the windowed rates every STAT?
      // answer carries.
      const ServiceStats now_stats = service.SnapshotStats();
      const obs::RateRing::Rates rates = service.SnapshotRates();
      std::printf(
          "stats: +%zu sessions (+%zu failed) +%zu bytes +%zu rounds | "
          "windowed %.1f sessions/s %.0f B/s %.2f decode-fails/min\n",
          now_stats.sessions_completed - last_stats.sessions_completed,
          now_stats.sessions_failed - last_stats.sessions_failed,
          now_stats.total_bytes - last_stats.total_bytes,
          now_stats.total_rounds - last_stats.total_rounds,
          rates.sessions_per_sec, rates.bytes_per_sec,
          rates.decode_failures_per_min);
      last_stats = now_stats;
      std::fflush(stdout);
    }
  }
  pump.Stop();
  const ServiceStats stats = service.AggregateStats();
  std::printf("served %zu sessions (%zu failed) across %zu shards; cache "
              "%zu hits / %zu lookups; %zu remote frames in\n",
              served, failed, shards, stats.cache_hits,
              stats.cache_hits + stats.cache_misses, stats.remote_messages);
  return failed == 0 ? 0 : 1;
}

int RunListen(const std::string& target, size_t serve_count,
              size_t stats_every, uint64_t trace_slow_ns,
              PollerKind poller) {
  SyncServiceOptions options;
  options.trace_slow_ns = trace_slow_ns;
  SyncService service(options);
  auto server_set = std::make_shared<SetOfSets>(net_demo::MakeServerSet());
  uint64_t set_id = service.RegisterSharedSet(server_set);
  NetPumpOptions pump_options;
  pump_options.poller = poller;
  NetPump pump(&service, pump_options);
  std::printf("poller backend: %s\n", PollerKindName(pump.poller_kind()));
  // Same stall watchdog as the sharded mode, over the one shard this
  // thread drives; the pump heartbeat beats on every poller return and
  // the away-from-poll p99 lands in the stall banner.
  obs::StallWatchdog watchdog;
  watchdog.Watch({"shard-0", &pump.heartbeat(),
                  [&service] { return service.HasMailboxWork(); },
                  &service.tracer(),
                  [&pump] {
                    return pump.SnapshotPumpMetrics().away_from_poll.p99();
                  }});
  watchdog.Start(/*stall_ns=*/2'000'000'000, /*poll_ms=*/500, stderr);

  if (target.rfind("tcp:", 0) == 0) {
    uint16_t want =
        static_cast<uint16_t>(std::strtoul(target.c_str() + 4, nullptr, 10));
    Result<uint16_t> port = pump.ListenTcp(want);
    if (!port.ok()) {
      std::fprintf(stderr, "listen failed: %s\n",
                   port.status().ToString().c_str());
      return 1;
    }
    std::printf("listening on tcp port %u (shared set id %llu, %zu "
                "children)\n",
                port.value(), static_cast<unsigned long long>(set_id),
                server_set->size());
  } else if (target.rfind("unix:", 0) == 0) {
    Status s = pump.ListenUnix(target.substr(5));
    if (!s.ok()) {
      std::fprintf(stderr, "listen failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("listening on unix socket %s (shared set id %llu)\n",
                target.c_str() + 5, static_cast<unsigned long long>(set_id));
  } else {
    std::fprintf(stderr, "--listen needs tcp:PORT or unix:PATH\n");
    return 2;
  }
  std::fflush(stdout);

  size_t served = 0, failed = 0, last_stats_at = 0;
  ServiceStats last_stats;
  while (serve_count == 0 || served < serve_count) {
    pump.PumpOnce(/*timeout_ms=*/200);
    for (const SessionResult& r : pump.TakeResults()) {
      ++served;
      if (!r.status.ok()) {
        ++failed;
        std::printf("session %llu (%s): %s\n",
                    static_cast<unsigned long long>(r.id), r.label.c_str(),
                    r.status.ToString().c_str());
      } else {
        std::printf("session %llu (%s): ok, %zu rounds, %zu bytes\n",
                    static_cast<unsigned long long>(r.id), r.label.c_str(),
                    r.stats.rounds, r.stats.bytes);
      }
      std::fflush(stdout);
    }
    if (stats_every > 0 && served - last_stats_at >= stats_every) {
      last_stats_at = served;
      // Interval deltas, not cumulative counters. This thread drives the
      // pump AND the service, so the live blocks (and the live rate ring)
      // are safe to read directly — same path a STAT? frame takes.
      const ServiceStats now_stats = service.stats();
      const obs::RateRing::Rates rates = service.CurrentRates();
      std::printf(
          "stats: +%zu sessions (+%zu failed) +%zu bytes +%zu rounds | "
          "windowed %.1f sessions/s %.0f B/s %.2f decode-fails/min\n",
          now_stats.sessions_completed - last_stats.sessions_completed,
          now_stats.sessions_failed - last_stats.sessions_failed,
          now_stats.total_bytes - last_stats.total_bytes,
          now_stats.total_rounds - last_stats.total_rounds,
          rates.sessions_per_sec, rates.bytes_per_sec,
          rates.decode_failures_per_min);
      last_stats = now_stats;
      std::fflush(stdout);
    }
  }
  const ServiceStats& stats = service.stats();
  std::printf("served %zu sessions (%zu failed); cache %zu hits / %zu "
              "lookups; %zu remote frames in\n",
              served, failed, stats.cache_hits,
              stats.cache_hits + stats.cache_misses, stats.remote_messages);
  return failed == 0 ? 0 : 1;
}

int RunNetSelftest(PollerKind poller) {
  SyncService service;
  auto server_set = std::make_shared<SetOfSets>(net_demo::MakeServerSet());
  service.RegisterSharedSet(server_set);
  NetPumpOptions pump_options;
  pump_options.poller = poller;
  NetPump pump(&service, pump_options);
  std::printf("poller backend: %s\n", PollerKindName(pump.poller_kind()));
  Result<uint16_t> port = pump.ListenTcp(0);
  if (!port.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 port.status().ToString().c_str());
    return 1;
  }

  constexpr int kSessions = 4;  // One per protocol family.
  std::vector<Status> client_status(kSessions, Status::Ok());
  Status stat_status = Status::Ok();
  std::atomic<bool> stat_done{false};
  std::thread client([&] {
    for (int i = 0; i < kSessions; ++i) {
      const size_t slot = static_cast<size_t>(i);
      Result<int> fd = ConnectTcp("127.0.0.1", port.value());
      if (!fd.ok()) {
        client_status[slot] = fd.status();
        continue;
      }
      // Receive timeout: a wedged server must fail the selftest, not hang
      // the client thread (and the join) forever.
      timeval timeout{30, 0};
      ::setsockopt(fd.value(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout));
      Result<SsrOutcome> outcome = net_demo::RunDemoClientSession(
          fd.value(), static_cast<SsrProtocolKind>(i),
          static_cast<uint64_t>(i) + 1);
      ::close(fd.value());
      if (!outcome.ok()) {
        client_status[slot] = outcome.status();
      } else if (outcome.value().recovered !=
                 Canonicalize(*server_set)) {
        client_status[slot] =
            VerificationFailure("client recovery does not match server set");
      }
    }
    // Admin probe: a fresh connection asking STAT? must get the merged
    // exposition back, and — after the real traffic above — it must carry
    // non-empty session-latency histograms.
    Result<int> fd = ConnectTcp("127.0.0.1", port.value());
    if (fd.ok()) {
      timeval timeout{30, 0};
      ::setsockopt(fd.value(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout));
      Result<std::string> stats = QueryStatsOverFd(fd.value());
      ::close(fd.value());
      if (!stats.ok()) {
        stat_status = stats.status();
      } else if (stats.value().rfind("# setrec-metrics v2", 0) != 0) {
        stat_status = VerificationFailure("STAT reply missing version line");
      } else if (stats.value().find("setrec_session_latency_ns") ==
                 std::string::npos) {
        stat_status = VerificationFailure(
            "STAT reply has no session-latency histograms after traffic");
      } else if (stats.value().find("rate setrec_sessions_per_sec") ==
                 std::string::npos) {
        stat_status = VerificationFailure(
            "STAT reply has no windowed rate lines (v2 suffix)");
      }
    } else {
      stat_status = fd.status();
    }
    stat_done.store(true, std::memory_order_release);
  });

  size_t done = 0, server_failed = 0;
  for (int spins = 0;
       spins < 30000 &&
       (done < kSessions || !stat_done.load(std::memory_order_acquire));
       ++spins) {
    pump.PumpOnce(10);
    for (const SessionResult& r : pump.TakeResults()) {
      ++done;
      if (!r.status.ok()) {
        ++server_failed;
        std::fprintf(stderr, "server session failed: %s\n",
                     r.status.ToString().c_str());
      }
    }
  }
  client.join();

  bool ok = done == kSessions && server_failed == 0;
  if (!stat_status.ok()) {
    ok = false;
    std::fprintf(stderr, "STAT? probe failed: %s\n",
                 stat_status.ToString().c_str());
  }
  for (int i = 0; i < kSessions; ++i) {
    const size_t slot = static_cast<size_t>(i);
    if (!client_status[slot].ok()) {
      ok = false;
      std::fprintf(stderr, "client %s failed: %s\n",
                   SsrProtocolKindName(static_cast<SsrProtocolKind>(i)),
                   client_status[slot].ToString().c_str());
    }
  }
  std::printf("net selftest over 127.0.0.1: %zu/%d sessions ok — %s\n",
              done - server_failed, kSessions, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunLoopbackDemo();

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest-net") {
      PollerKind poller = PollerKind::kAuto;
      for (int j = 1; j < argc; ++j) {
        if (std::strncmp(argv[j], "--poller=", 9) == 0) {
          Result<PollerKind> kind = ParsePollerKind(argv[j] + 9);
          if (!kind.ok()) {
            std::fprintf(stderr, "--poller needs auto|poll|epoll\n");
            return 2;
          }
          poller = kind.value();
        }
      }
      return RunNetSelftest(poller);
    }
    if (arg.rfind("--listen=", 0) == 0) {
      size_t serve = 0;
      size_t shards = 1;
      size_t stats_every = 0;
      uint64_t trace_slow_ns = 0;
      PollerKind poller = PollerKind::kAuto;
      for (int j = 1; j < argc; ++j) {
        if (std::strncmp(argv[j], "--serve=", 8) == 0) {
          serve = std::strtoull(argv[j] + 8, nullptr, 10);
        }
        if (std::strncmp(argv[j], "--shards=", 9) == 0) {
          shards = std::strtoull(argv[j] + 9, nullptr, 10);
        }
        if (std::strncmp(argv[j], "--stats-every=", 14) == 0) {
          stats_every = std::strtoull(argv[j] + 14, nullptr, 10);
        }
        if (std::strncmp(argv[j], "--trace-slow=", 13) == 0) {
          trace_slow_ns =
              std::strtoull(argv[j] + 13, nullptr, 10) * 1'000'000ull;
        }
        if (std::strncmp(argv[j], "--poller=", 9) == 0) {
          Result<PollerKind> kind = ParsePollerKind(argv[j] + 9);
          if (!kind.ok()) {
            std::fprintf(stderr, "--poller needs auto|poll|epoll\n");
            return 2;
          }
          poller = kind.value();
        }
      }
      const std::string target = arg.substr(9);
      if (shards > 1) {
        if (target.rfind("tcp:", 0) != 0) {
          std::fprintf(stderr,
                       "--shards needs --listen=tcp:PORT (SO_REUSEPORT)\n");
          return 2;
        }
        return RunListenSharded(
            static_cast<uint16_t>(
                std::strtoul(target.c_str() + 4, nullptr, 10)),
            serve, shards, stats_every, trace_slow_ns, poller);
      }
      return RunListen(target, serve, stats_every, trace_slow_ns, poller);
    }
  }
  return RunLoopbackDemo();
}

namespace {

int RunLoopbackDemo() {

  // --- Server state: one parent set all set-sessions sync against. ---
  SsrWorkloadSpec spec;
  spec.num_children = 64;
  spec.child_size = 8;
  spec.changes = 2;
  spec.seed = 20260730;
  SsrWorkload base = MakeSsrWorkload(spec);
  auto server_set = std::make_shared<SetOfSets>(base.alice);

  SsrParams params;
  params.max_child_size = spec.child_size + 6;
  params.max_children = spec.num_children + 6;
  params.seed = 99;

  SyncServiceOptions options;
  options.max_inflight = 512;
  options.keep_recovered = false;
  SyncService service(options);
  service.RegisterSharedSet(server_set);

  // --- 10k set-of-sets client sessions (mixed protocol families). ---
  const size_t kSetSessions = 10'000;
  Rng rng(7);
  auto mirror_client = std::make_shared<Endpoint>();
  for (size_t i = 0; i < kSetSessions; ++i) {
    SetOfSets bob = *server_set;
    size_t victim = rng.NextU64() % bob.size();
    if (bob[victim].size() > 1) bob[victim].pop_back();
    bob[rng.NextU64() % bob.size()].push_back((1ull << 42) +
                                              (rng.NextU64() & 0xffff));
    SessionSpec session;
    session.protocol = static_cast<SsrProtocolKind>(rng.NextU64() % 4);
    session.params = params;
    session.alice = server_set;
    session.bob = std::make_shared<SetOfSets>(Canonicalize(std::move(bob)));
    session.known_d = 6;
    if (i == 0) {
      // Mirror the first session onto a loopback endpoint pair: its
      // protocol messages become wire frames a remote client would read.
      auto [server_end, client_end] = Endpoint::LoopbackPair();
      session.mirror = std::make_shared<Endpoint>(std::move(server_end));
      *mirror_client = std::move(client_end);
    }
    service.Submit(std::move(session));
  }

  // --- Opaque sessions: graph, forest and shingle workloads share the
  // scheduler (single-step sessions; no planner coalescing). ---
  SeparatedInstanceSpec graph_spec;
  graph_spec.seed = 5;
  Result<Graph> graph_base = MakeSeparatedGraph(graph_spec);
  if (graph_base.ok()) {
    Rng grng(77);
    auto alice = std::make_shared<Graph>(graph_base.value());
    auto bob = std::make_shared<Graph>(graph_base.value());
    alice->Perturb(1, &grng);
    bob->Perturb(1, &grng);
    SessionSpec session;
    session.label = "graph";
    session.opaque = [alice, bob, graph_spec](Channel* channel) {
      Result<GraphReconcileOutcome> outcome = DegreeOrderingReconcile(
          *alice, *bob, graph_spec.d, graph_spec.h, 9, channel);
      return outcome.ok() ? Status::Ok() : outcome.status();
    };
    service.Submit(std::move(session));
  }
  {
    Rng frng(4242);
    auto alice = std::make_shared<RootedForest>(
        RootedForest::Random(3000, 5, 0.12, &frng));
    auto bob = std::make_shared<RootedForest>(*alice);
    size_t d = bob->Perturb(2, 5, &frng);
    size_t sigma = std::max(alice->MaxDepth(), bob->MaxDepth());
    SessionSpec session;
    session.label = "forest";
    session.opaque = [alice, bob, d, sigma](Channel* channel) {
      Result<ForestReconcileOutcome> outcome =
          ForestReconcile(*alice, *bob, std::max<size_t>(d, 1), sigma, 11,
                          channel);
      return outcome.ok() ? Status::Ok() : outcome.status();
    };
    service.Submit(std::move(session));
  }
  {
    auto alice = std::make_shared<SetOfSets>(base.alice);
    auto bob = std::make_shared<SetOfSets>(base.bob);
    auto shingle_params = std::make_shared<SsrParams>(params);
    SessionSpec session;
    session.label = "shingles";
    session.opaque = [alice, bob, shingle_params](Channel* channel) {
      Result<CollectionReconcileOutcome> outcome = ReconcileCollections(
          *alice, *bob, /*per_doc_diff=*/8, *shingle_params, channel);
      return outcome.ok() ? Status::Ok() : outcome.status();
    };
    service.Submit(std::move(session));
  }

  // --- Run everything and report. ---
  const double seconds = [&] {
    const auto start = std::chrono::steady_clock::now();
    service.RunToCompletion();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }();

  const ServiceStats& stats = service.stats();
  std::printf("sessions: %zu submitted, %zu completed, %zu failed\n",
              stats.sessions_submitted, stats.sessions_completed,
              stats.sessions_failed);
  std::printf("throughput: %.0f sessions/sec (%.2fs total)\n",
              static_cast<double>(stats.sessions_completed) / seconds,
              seconds);
  std::printf("traffic: %zu bytes over %zu rounds\n", stats.total_bytes,
              stats.total_rounds);
  std::printf("planner: %zu flushes, mean occupancy %.0f keys, max %zu "
              "(sharded threshold %zu crossed %zu times)\n",
              stats.flushes, stats.mean_flush_occupancy(),
              stats.max_flush_keys, Iblt::batch_options().sharded_min_keys,
              stats.sharded_flushes);
  std::printf("alice-message cache: %zu hits / %zu lookups\n",
              stats.cache_hits, stats.cache_hits + stats.cache_misses);

  // Drain the mirrored session through the framed stream codec.
  ByteWriter stream;
  size_t frames = mirror_client->DrainToStream(&stream);
  FrameDecoder decoder;
  decoder.Feed(stream.bytes());
  size_t decoded = 0;
  Channel::Message m;
  while (decoder.Next(&m)) ++decoded;
  std::printf("mirrored session: %zu frames, %zu bytes on the wire, "
              "%zu decoded back\n",
              frames, stream.bytes().size(), decoded);

  return stats.sessions_failed == 0 ? 0 : 1;
}

}  // namespace
