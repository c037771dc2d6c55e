#include "loops.h"

#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/stream_party.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace setrec::perf {
namespace {

/// Sessions still unfinished this long after the deadline count as
/// failed; the loop never waits longer.
constexpr uint64_t kDrainLimitNs = 30'000'000'000;

CpuTimes Minus(const CpuTimes& a, const CpuTimes& b) {
  return CpuTimes{a.user_s - b.user_s, a.sys_s - b.sys_s};
}

/// Self-test corruption: flips one element of the first recovered set.
void MaybeCorrupt(bool* pending, SetOfSets* recovered) {
  if (!*pending || recovered->empty() || (*recovered)[0].empty()) return;
  (*recovered)[0][0] ^= 1;
  *pending = false;
}

/// Counts one finished session into `out` and checks it against the
/// direct run's reference for its member.
void Check(const Reference& ref, bool status_ok, const SetOfSets& recovered,
           const SetOfSets& server, uint64_t bytes, uint64_t rounds,
           uint64_t latency_ns, LoopResult* out) {
  ++out->finished;
  out->latency_sum_ns += latency_ns;
  if (status_ok && ref.ok && bytes == ref.bytes && rounds == ref.rounds &&
      recovered == server) {
    ++out->passed;
    out->bytes += bytes;
    out->rounds += rounds;
  }
}

LoopResult RunInProcess(const Population& pop, size_t inflight, Rig* rig,
                        const LoopOptions& options) {
  SyncService& service = *rig->service;
  LoopResult out;
  struct Pending {
    uint32_t member = 0;
    uint64_t submit_ns = 0;
  };
  std::unordered_map<uint64_t, Pending> pending;
  pending.reserve(2 * inflight);
  size_t next_member = 0;
  size_t live = 0;
  bool corrupt_pending = options.corrupt_one;

  const auto submit = [&](uint64_t now) {
    const size_t m = next_member++ % pop.members.size();
    const Member& member = pop.members[m];
    SessionSpec spec;
    spec.protocol = member.kind;
    spec.params = pop.params;
    spec.alice = pop.servers[member.server];
    spec.bob = member.client;
    spec.known_d = pop.known_d;
    pending[service.Submit(std::move(spec))] =
        Pending{static_cast<uint32_t>(m), now};
    ++live;
    ++out.attempted;
  };

  const CpuTimes cpu_start = ProcessCpu();
  const uint64_t start = obs::NowNanos();
  const uint64_t deadline =
      start + static_cast<uint64_t>(options.seconds * 1e9);
  const uint64_t window_ns = (deadline - start) / kWindows;
  Window window;
  uint64_t window_start = start;
  CpuTimes window_cpu = cpu_start;
  for (size_t i = 0; i < inflight; ++i) submit(start);
  if (options.traced) out.own_ns += obs::NowNanos() - start;

  // Traced, the bench thread's time is Step plus its own named spans:
  // TakeResults, checking the results, and submitting. The loop's own
  // bookkeeping (the loop test, window roll-ups with their getrusage) lies
  // between the spans and is left unattributed.
  uint64_t now = start;
  while (live > 0 && now < deadline + kDrainLimitNs) {
    const uint64_t step_start = options.traced ? obs::NowNanos() : 0;
    const bool more = service.Step();
    const uint64_t step_end = options.traced ? obs::NowNanos() : 0;
    std::vector<SessionResult> results = service.TakeResults();
    now = obs::NowNanos();
    if (options.traced) out.step_ns.push_back(step_end - step_start);
    // The check runs after the sessions' end stamp, outside their spans.
    for (SessionResult& result : results) {
      const auto it = pending.find(result.id);
      if (it == pending.end()) continue;
      const Pending p = it->second;
      pending.erase(it);
      MaybeCorrupt(&corrupt_pending, &result.recovered);
      Check((*options.refs)[p.member], result.status.ok(), result.recovered,
            *pop.servers[pop.members[p.member].server], result.stats.bytes,
            result.stats.rounds, now - p.submit_ns, &out);
      window.latency_ns.push_back(now - p.submit_ns);
      ++window.sessions;
      --live;
    }
    if (options.traced) out.own_ns += obs::NowNanos() - step_end;
    if (out.windows.size() < kWindows &&
        now >= start + (out.windows.size() + 1) * window_ns) {
      const CpuTimes cpu = ProcessCpu();
      window.seconds = static_cast<double>(now - window_start) / 1e9;
      window.cpu_s = Minus(cpu, window_cpu).total();
      out.windows.push_back(std::move(window));
      window = Window{};
      window_start = now;
      window_cpu = cpu;
    }
    if (now < deadline && live < inflight) {
      const uint64_t submit_start = options.traced ? obs::NowNanos() : 0;
      while (live < inflight) submit(now);
      if (options.traced) out.own_ns += obs::NowNanos() - submit_start;
    }
    if (!more && results.empty()) break;
  }
  out.wall_s = static_cast<double>(obs::NowNanos() - start) / 1e9;
  out.cpu = Minus(ProcessCpu(), cpu_start);
  out.stats = service.stats();
  out.flush_ns = service.metrics().flush_latency.sum();
  return out;
}

/// Client-side spans of one traced session, from the SessionTracer's
/// completed trace. Send-wait nests inside compute.
struct ClientSpans {
  uint64_t compute = 0;
  uint64_t send_wait = 0;
  uint64_t recv_wait = 0;
};

ClientSpans SumSpans(const obs::CompletedTrace& trace) {
  ClientSpans spans;
  uint64_t open[obs::kTracePhaseCount] = {};
  for (const obs::CompletedTraceEvent& event : trace.events) {
    const size_t phase = static_cast<size_t>(event.phase);
    if (event.enter) {
      open[phase] = event.ns;
      continue;
    }
    const uint64_t dur = event.ns - open[phase];
    switch (event.phase) {
      case obs::TracePhase::kCompute: spans.compute += dur; break;
      case obs::TracePhase::kSendWait: spans.send_wait += dur; break;
      case obs::TracePhase::kRecvWait: spans.recv_wait += dur; break;
      default: break;
    }
  }
  return spans;
}

/// One TCP client thread's share of the loop.
struct ClientShare {
  LoopResult counts;  ///< attempted, finished, passed, bytes, rounds.
  std::vector<std::vector<uint64_t>> window_latency_ns;
  std::vector<uint64_t> connect_ns;
  uint64_t hello_ns = 0;
  uint64_t close_ns = 0;
  ClientSpans spans;
  uint64_t traced_sessions = 0;
};

void RunTcpClient(const Population& pop, const Rig& rig, size_t thread_index,
                  uint64_t start, uint64_t deadline,
                  const LoopOptions& options, std::atomic<size_t>* next_member,
                  std::atomic<size_t>* finished, ClientShare* share) {
  const uint64_t window_ns = (deadline - start) / kWindows;
  share->window_latency_ns.resize(kWindows);
  std::unique_ptr<SetsOfSetsProtocol> protocols[kSsrProtocolKindCount];
  for (int k = 0; k < kSsrProtocolKindCount; ++k) {
    protocols[k] =
        MakeSsrProtocol(static_cast<SsrProtocolKind>(k), pop.params);
  }
  obs::SessionTracer tracer;
  if (options.traced) tracer.EnableCapture(8192);
  const uint64_t trace_base = (static_cast<uint64_t>(thread_index) + 1) << 40;
  uint64_t trace_seq = 0;
  uint64_t harvested = 0;  // Highest trace id folded into share->spans.
  const auto harvest = [&] {
    for (const obs::CompletedTrace& trace : tracer.SnapshotCompleted()) {
      if (trace.trace_id <= harvested) continue;
      const ClientSpans s = SumSpans(trace);
      share->spans.compute += s.compute - s.send_wait;
      share->spans.send_wait += s.send_wait;
      share->spans.recv_wait += s.recv_wait;
      ++share->traced_sessions;
      harvested = trace.trace_id;
    }
  };
  bool corrupt_pending = options.corrupt_one && thread_index == 0;
  // Destinations rotate over 127.0.0.1-64 (the pump listens on every
  // address). A run opens ~10^5 connections; against one destination the
  // TIME_WAIT tuples they leave cover the whole ephemeral port range, and
  // back-to-back runs connected slower (p99 up to 2x). Rotating spreads
  // them over 64 times the tuple space.
  std::vector<std::string> hosts;
  for (int i = 1; i <= 64; ++i) hosts.push_back("127.0.0." + std::to_string(i));

  while (obs::NowNanos() < deadline) {
    const size_t m = next_member->fetch_add(1) % pop.members.size();
    const Member& member = pop.members[m];
    const SetOfSets& server = *pop.servers[member.server];
    HelloSpec hello;
    hello.protocol = member.kind;
    hello.set_id = rig.set_id;
    hello.params = pop.params;
    hello.known_d = pop.known_d;
    const uint64_t trace_id = options.traced ? trace_base + ++trace_seq : 0;
    Channel channel;
    ++share->counts.attempted;

    const uint64_t session_start = obs::NowNanos();
    Result<int> fd = ConnectTcp(hosts[m % hosts.size()], rig.port);
    Result<SsrOutcome> outcome = Unavailable("connect failed");
    uint64_t connected = obs::NowNanos();
    uint64_t hello_done = connected;
    uint64_t bob_done = connected;
    if (fd.ok()) {
      // A wedged server fails the read instead of hanging the thread.
      timeval timeout{30, 0};
      ::setsockopt(fd.value(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof timeout);
      connected = obs::NowNanos();
      const Status sent = SendHello(fd.value(), hello);
      hello_done = obs::NowNanos();
      if (sent.ok()) {
        outcome = RunBobHalfOverFd(
            *protocols[static_cast<int>(member.kind)], *member.client,
            pop.known_d, fd.value(), &channel,
            options.traced ? &tracer : nullptr, trace_id);
      } else {
        outcome = sent;
      }
      bob_done = obs::NowNanos();
      ::close(fd.value());
    }
    const uint64_t end = obs::NowNanos();

    finished->fetch_add(1, std::memory_order_relaxed);
    const uint64_t window = (end - start) / window_ns;
    if (window < kWindows) {
      share->window_latency_ns[window].push_back(end - session_start);
    }
    // Checked after the session's end stamp, outside its span.
    const SetOfSets none;
    if (outcome.ok()) {
      MaybeCorrupt(&corrupt_pending, &outcome.value().recovered);
    }
    Check((*options.refs)[m], outcome.ok(),
          outcome.ok() ? outcome.value().recovered : none, server,
          channel.total_bytes(), channel.rounds(), end - session_start,
          &share->counts);
    if (options.traced) {
      share->connect_ns.push_back(connected - session_start);
      share->hello_ns += hello_done - connected;
      share->close_ns += end - bob_done;
      tracer.OnSessionEnd(trace_id, trace_id, end - session_start, "client",
                          stderr);
      // The tracer keeps its 32 most recent traces; harvest well before
      // any is dropped.
      if (trace_seq % 16 == 0) harvest();
    }
  }
  if (options.traced) harvest();
}

/// Pins the calling thread, and the threads it starts while this lives,
/// to the CPU it runs on; restores the thread's CPU set when destroyed.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToCurrentCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

LoopResult RunTcp(const Population& pop, size_t clients, Rig* rig,
                  const LoopOptions& options) {
  // The pump and the clients share one CPU. Spread over the vCPUs of a
  // shared VM, every hand-off between them waited whenever the host had
  // descheduled the other side's vCPU: in a busy phase of the host, p99
  // read 9.5, 2.3 and 1.5 ms in three runs a minute apart, against 1.29,
  // 1.14 and 1.16 ms pinned. Hand-offs on one CPU are run-queue switches.
  const PinToCurrentCpu pin;
  NetPump& pump = *rig->pump;
  LoopResult out;
  std::atomic<bool> stop{false};
  std::atomic<size_t> server_finished{0};
  std::atomic<size_t> server_failed{0};
  std::thread pump_thread([&] {
    const CpuTimes cpu_start = ThreadCpu();
    const auto pump_once = [&](int timeout_ms) {
      pump.PumpOnce(timeout_ms);
      for (const SessionResult& result : pump.TakeResults()) {
        server_finished.fetch_add(1, std::memory_order_relaxed);
        if (!result.status.ok()) {
          server_failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    while (!stop.load(std::memory_order_acquire)) pump_once(20);
    // Reap the last closed connections so the rig ends with none.
    for (int pass = 0; pass < 200 && pump.connection_count() > 0; ++pass) {
      pump_once(5);
    }
    out.pump_cpu = Minus(ThreadCpu(), cpu_start);
  });

  std::atomic<size_t> next_member{0};
  std::atomic<size_t> finished{0};
  std::vector<ClientShare> shares(clients);
  const CpuTimes cpu_start = ProcessCpu();
  const uint64_t start = obs::NowNanos();
  const uint64_t deadline =
      start + static_cast<uint64_t>(options.seconds * 1e9);
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (size_t t = 0; t < clients; ++t) {
    client_threads.emplace_back(RunTcpClient, std::cref(pop), std::cref(*rig),
                                t, start, deadline, std::cref(options),
                                &next_member, &finished, &shares[t]);
  }
  // Window boundaries: this thread only samples the counters.
  const uint64_t window_ns = (deadline - start) / kWindows;
  uint64_t window_start = start;
  size_t window_finished = 0;
  CpuTimes window_cpu = cpu_start;
  for (size_t w = 1; w <= kWindows; ++w) {
    const uint64_t boundary = start + w * window_ns;
    for (uint64_t now = obs::NowNanos(); now < boundary;
         now = obs::NowNanos()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(boundary - now));
    }
    const uint64_t now = obs::NowNanos();
    const size_t done = finished.load(std::memory_order_relaxed);
    const CpuTimes cpu = ProcessCpu();
    Window window;
    window.seconds = static_cast<double>(now - window_start) / 1e9;
    window.sessions = done - window_finished;
    window.cpu_s = Minus(cpu, window_cpu).total();
    out.windows.push_back(std::move(window));
    window_start = now;
    window_finished = done;
    window_cpu = cpu;
  }
  for (std::thread& thread : client_threads) thread.join();
  out.wall_s = static_cast<double>(obs::NowNanos() - start) / 1e9;
  out.cpu = Minus(ProcessCpu(), cpu_start);

  for (ClientShare& share : shares) out.attempted += share.counts.attempted;
  // Every client session has ended; let the pump see the last closes and
  // hand over the last server-side results, then stop it.
  const uint64_t drain_deadline = obs::NowNanos() + kDrainLimitNs;
  while (obs::NowNanos() < drain_deadline &&
         server_finished.load(std::memory_order_relaxed) < out.attempted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  pump.Wake();
  pump_thread.join();

  const size_t server_done = server_finished.load();
  out.server_failed =
      server_failed.load() +
      (out.attempted > server_done ? out.attempted - server_done : 0);
  for (ClientShare& share : shares) {
    out.finished += share.counts.finished;
    out.passed += share.counts.passed;
    out.bytes += share.counts.bytes;
    out.rounds += share.counts.rounds;
    out.latency_sum_ns += share.counts.latency_sum_ns;
    out.connect_ns.insert(out.connect_ns.end(), share.connect_ns.begin(),
                          share.connect_ns.end());
    for (size_t w = 0; w < out.windows.size(); ++w) {
      std::vector<uint64_t>& dst = out.windows[w].latency_ns;
      dst.insert(dst.end(), share.window_latency_ns[w].begin(),
                 share.window_latency_ns[w].end());
    }
    out.hello_ns += share.hello_ns;
    out.close_ns += share.close_ns;
    out.compute_ns += share.spans.compute;
    out.send_wait_ns += share.spans.send_wait;
    out.recv_wait_ns += share.spans.recv_wait;
    out.traced_sessions += share.traced_sessions;
  }
  out.stats = rig->service->stats();
  out.flush_ns = rig->service->metrics().flush_latency.sum();
  out.pump_stats = pump.stats();
  const obs::PumpMetrics& metrics = pump.pump_metrics();
  out.pump_away_ns = metrics.away_from_poll.sum();
  out.poll_wakeups = metrics.poll_wakeups;
  out.ready_sum = metrics.ready_per_wakeup.sum();
  out.ready_count = metrics.ready_per_wakeup.count();
  return out;
}

}  // namespace

std::unique_ptr<Rig> BuildRig(const WorkloadSpec& spec, const Population& pop,
                              std::string* error) {
  auto rig = std::make_unique<Rig>();
  rig->service = std::make_unique<SyncService>();
  if (spec.servers == 1) {
    for (const std::shared_ptr<const SetOfSets>& server : pop.servers) {
      rig->set_id = rig->service->RegisterSharedSet(server);
    }
  }
  if (spec.tcp_clients > 0) {
    rig->pump = std::make_unique<NetPump>(rig->service.get());
    Result<uint16_t> port = rig->pump->ListenTcp(0);
    if (!port.ok()) {
      *error = "listen: " + port.status().ToString();
      return nullptr;
    }
    rig->port = port.value();
  }
  return rig;
}

LoopResult RunLoop(const WorkloadSpec& spec, const Population& pop, Rig* rig,
                   const LoopOptions& options) {
  if (spec.tcp_clients > 0) {
    return RunTcp(pop, spec.tcp_clients, rig, options);
  }
  return RunInProcess(pop, spec.inflight, rig, options);
}

}  // namespace setrec::perf
