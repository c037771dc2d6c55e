#ifndef SETREC_PERFBENCH_LOOPS_H_
#define SETREC_PERFBENCH_LOOPS_H_

// The closed loops: the in-process SyncService loop (mixed-inproc,
// fresh-ssru) and the TCP loop against one NetPump thread (mixed-tcp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "net/net_pump.h"
#include "obs/metrics.h"
#include "population.h"
#include "report.h"
#include "service/sync_service.h"

namespace setrec::perf {

/// The system under test for one loop: the service, and for TCP
/// workloads the pump with its loopback listener. Built during set-up.
struct Rig {
  std::unique_ptr<SyncService> service;
  std::unique_ptr<NetPump> pump;
  uint16_t port = 0;
  /// RegisterSharedSet id of the server set (registered workloads).
  uint64_t set_id = 0;
};

/// Builds the service (library defaults), registers the server set when
/// the workload has one shared set, and for TCP workloads starts listening
/// on an ephemeral loopback port. Returns null and sets `error` on failure.
std::unique_ptr<Rig> BuildRig(const WorkloadSpec& spec, const Population& pop,
                              std::string* error);

/// The measured time is cut into this many equal windows; the end-to-end
/// rates are medians over windows, so a burst of outside load moves one
/// window, not the result.
constexpr size_t kWindows = 10;

struct LoopOptions {
  /// The direct run's outcome per member: every finished session is
  /// checked against it (see LoopResult::passed).
  const std::vector<Reference>* refs = nullptr;
  double seconds = 1;
  /// Record the benchmark's own spans: each Step and the bench thread's own
  /// work in-process, the client SessionTracer spans over TCP.
  bool traced = false;
  /// Self-test: flip one element of the first recovered set before it is
  /// checked, so that session must count as failed.
  bool corrupt_one = false;
};

/// One window of the measured time.
struct Window {
  double seconds = 0;
  size_t sessions = 0;  ///< Sessions that finished inside the window.
  double cpu_s = 0;     ///< Process CPU spent inside the window.
  std::vector<uint64_t> latency_ns;
};

struct LoopResult {
  double wall_s = 0;
  /// Full windows only: sessions that end after the deadline, while the
  /// loop drains, are counted in the totals but in no window.
  std::vector<Window> windows;
  CpuTimes cpu;  ///< Process CPU over the loop.
  size_t attempted = 0;
  size_t finished = 0;
  /// Finished sessions that passed the check, run after each session's end
  /// stamp: status OK, Bob's recovery equals the canonical server set, and
  /// bytes and rounds equal the direct run's for the same member (so the
  /// totals equal too).
  size_t passed = 0;
  uint64_t bytes = 0;   ///< Summed over passed sessions.
  uint64_t rounds = 0;  ///< Summed over passed sessions.
  /// Submit (or connect) until outcome, summed over finished sessions.
  uint64_t latency_sum_ns = 0;
  /// TCP: sessions the server side failed or never finished.
  size_t server_failed = 0;

  // In-process, traced: each Step, and the bench thread's own named spans
  // (Submit, TakeResults, checking). Loop and window bookkeeping is in
  // neither.
  std::vector<uint64_t> step_ns;
  uint64_t own_ns = 0;

  // Service counters at the end of the loop (the rig is fresh per loop).
  ServiceStats stats;
  uint64_t flush_ns = 0;  ///< Sum of the service's flush_latency.

  // TCP.
  CpuTimes pump_cpu;  ///< RUSAGE_THREAD of the pump thread.
  NetPumpStats pump_stats;
  uint64_t pump_away_ns = 0;
  uint64_t poll_wakeups = 0;
  uint64_t ready_sum = 0;
  uint64_t ready_count = 0;
  /// Traced TCP: per-session connect times and summed client spans.
  std::vector<uint64_t> connect_ns;
  uint64_t hello_ns = 0;
  uint64_t close_ns = 0;
  uint64_t compute_ns = 0;  ///< Self time: compute minus nested send-wait.
  uint64_t send_wait_ns = 0;
  uint64_t recv_wait_ns = 0;
  uint64_t traced_sessions = 0;
};

/// Runs the workload's closed loop on `rig` for `options.seconds`, then
/// drains the sessions still in flight.
LoopResult RunLoop(const WorkloadSpec& spec, const Population& pop, Rig* rig,
                   const LoopOptions& options);

}  // namespace setrec::perf

#endif  // SETREC_PERFBENCH_LOOPS_H_
