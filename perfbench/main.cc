// setrec_perf: the repo benchmark. One workload per process:
//
//   setrec_perf --workload mixed-inproc|mixed-tcp|fresh-ssru --seed N
//               --seconds S --trace 0|1
//   setrec_perf --selftest
//
// --trace 0 runs the closed loop untraced and reports the end-to-end
// metrics; --trace 1 runs an untraced and a traced loop (half the time
// each), the instrumented direct run and the layer replays, and reports
// the per-layer metrics. Every session is checked against the direct run.
// Human-readable lines come first; the last stdout line is the JSON result.
// perfbench/README.md describes the workloads and the metrics.

#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "loops.h"
#include "obs/clock.h"
#include "population.h"
#include "report.h"

namespace setrec::perf {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"sessions_per_s", "1/s"},     {"session_p50_ms", "ms"},
    {"session_p99_ms", "ms"},      {"bytes_per_session", "B"},
    {"rounds_per_session", "1"},   {"cpu_us_per_session", "us"},
    {"session_ok_ratio", "1"},     {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.compute_us_per_session", "us"},
    {"core.attempts_per_session", "1"},
    {"core.decode_failures_per_session", "1"},
    {"core.retry_rounds_per_session", "1"},
    {"iblt.build_us_per_session", "us"},
    {"iblt.build_keys_per_session", "count"},
    {"iblt.build_ns_per_key", "ns/key"},
    {"iblt.cells_per_session", "count"},
    {"iblt.decode_ns_per_key", "ns/key"},
    {"iblt.encode_ns_per_byte", "ns/B"},
    {"iblt.parse_ns_per_byte", "ns/B"},
    {"estimator.updates_per_session", "count"},
    {"estimator.update_us_per_session", "us"},
    {"service.step_ms_p50", "ms"},
    {"service.step_ms_p99", "ms"},
    {"service.step_share", "1"},
    {"service.flush_us_per_session", "us"},
    {"service.flush_keys_mean", "count"},
    {"service.sharded_flush_ratio", "1"},
    {"service.cache_hit_ratio", "1"},
    {"service.resumes_per_session", "count"},
    {"service.cpu_per_wall", "1"},
    {"transport.frames_per_session", "count"},
    {"transport.frame_parse_ns_per_byte", "ns/B"},
    {"net.server_user_us_per_session", "us"},
    {"net.server_sys_us_per_session", "us"},
    {"net.pump_away_us_per_session", "us"},
    {"net.wakeups_per_session", "count"},
    {"net.ready_per_wakeup", "count"},
    {"net.connect_us_p50", "us"},
    {"net.client_compute_us_per_session", "us"},
    {"net.client_send_wait_us_per_session", "us"},
    {"net.client_recv_wait_us_per_session", "us"},
    {"net.bytes_per_frame", "B"},
    {"trace.unattributed_frac", "1"},
    {"trace.overhead_frac", "1"},
};

/// Adds a metric named in one of the tables above, with that table's unit.
template <size_t N>
void Emit(Report* report, const MetricSpec (&table)[N], const char* name,
          double value, size_t samples) {
  for (const MetricSpec& spec : table) {
    if (std::strcmp(spec.name, name) == 0) {
      report->Add(name, value, spec.unit, samples);
      return;
    }
  }
  std::fprintf(stderr, "setrec_perf: metric %s is not declared\n", name);
  std::abort();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_one = false;
  size_t setup_reps = 11;
};

struct RunOutcome {
  Report report;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// A loop's outcome: a session fails when it failed, did not finish, or
/// did not pass the check against the direct run (LoopResult::passed).
struct Verdict {
  size_t attempted = 0;
  size_t ok = 0;
  size_t failed = 0;
};

Verdict Tally(const LoopResult& loop) {
  Verdict v;
  v.attempted = loop.attempted;
  // Over TCP the server's failures cannot be matched to client sessions,
  // so the larger count is taken: a failure on either side shows, and a
  // session that failed on both (a refused connect) counts once.
  v.failed = std::max(loop.attempted - loop.passed, loop.server_failed);
  v.ok = v.attempted - v.failed;
  return v;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double D(uint64_t x) { return static_cast<double>(x); }

void PrintLoop(const char* label, const LoopResult& loop, const Verdict& v) {
  std::printf("# %s loop: %.3f s wall, %zu attempted, %zu ok, %zu failed, "
              "cpu %.3f s (user %.3f sys %.3f)\n",
              label, loop.wall_s, v.attempted, v.ok, v.failed,
              loop.cpu.total(), loop.cpu.user_s, loop.cpu.sys_s);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void EmitEndToEnd(const LoopResult& loop, const Verdict& v,
                  const std::vector<double>& setup_s, RunOutcome* out) {
  Report& r = out->report;
  // Rates and latency quantiles are medians over the loop's windows (the
  // samples count is the sessions inside them); bytes, rounds and the ok
  // ratio cover every session.
  std::vector<double> rate, cpu_us, p50, p99;
  size_t windowed = 0;
  for (const Window& w : loop.windows) {
    std::vector<uint64_t> latency = w.latency_ns;
    rate.push_back(Ratio(D(w.sessions), w.seconds));
    cpu_us.push_back(Ratio(w.cpu_s * 1e6, D(w.sessions)));
    p50.push_back(Ms(ExactQuantile(&latency, 0.50)));
    p99.push_back(Ms(ExactQuantile(&latency, 0.99)));
    windowed += w.sessions;
  }
  std::printf("# sessions/s per window:");
  for (double x : rate) std::printf(" %.0f", x);
  std::printf("\n");
  Emit(&r, kEndToEnd, "sessions_per_s", Median(rate), windowed);
  Emit(&r, kEndToEnd, "session_p50_ms", Median(p50), windowed);
  Emit(&r, kEndToEnd, "session_p99_ms", Median(p99), windowed);
  Emit(&r, kEndToEnd, "bytes_per_session",
       Ratio(D(loop.bytes), D(loop.passed)), loop.passed);
  Emit(&r, kEndToEnd, "rounds_per_session",
       Ratio(D(loop.rounds), D(loop.passed)), loop.passed);
  Emit(&r, kEndToEnd, "cpu_us_per_session", Median(cpu_us), windowed);
  Emit(&r, kEndToEnd, "session_ok_ratio", Ratio(D(v.ok), D(v.attempted)),
       v.attempted);
  Emit(&r, kEndToEnd, "setup_s", Median(setup_s), setup_s.size());
  Emit(&r, kEndToEnd, "peak_rss_mb", PeakRssMb(), 1);
  std::printf("# session_fail_ratio %.6f (%zu of %zu attempted)\n",
              Ratio(D(v.failed), D(v.attempted)), v.failed, v.attempted);
}

void EmitPerLayer(const WorkloadSpec& spec, const LoopResult& untraced,
                  const LoopResult& traced, const Verdict& vu,
                  const Verdict& vt, const DirectRun& direct,
                  const IbltReplay& iblt, const FrameReplay& frames,
                  RunOutcome* out) {
  Report& r = out->report;
  const CoreCounters& c = direct.counters;
  const double sessions = D(c.sessions);
  Emit(&r, kPerLayer, "core.compute_us_per_session",
       Ratio(Us(c.compute_ns), sessions), c.sessions);
  Emit(&r, kPerLayer, "core.attempts_per_session",
       Ratio(D(c.attempts), sessions), c.sessions);
  Emit(&r, kPerLayer, "core.decode_failures_per_session",
       Ratio(D(c.decode_failures), sessions), c.sessions);
  Emit(&r, kPerLayer, "core.retry_rounds_per_session",
       Ratio(D(c.retry_rounds), sessions), c.sessions);

  Emit(&r, kPerLayer, "iblt.build_us_per_session",
       Ratio(Us(c.build_ns), sessions), c.sessions);
  Emit(&r, kPerLayer, "iblt.build_keys_per_session",
       Ratio(D(c.build_keys), sessions), c.sessions);
  Emit(&r, kPerLayer, "iblt.build_ns_per_key",
       Ratio(D(c.build_ns), D(c.build_keys)), c.build_keys);
  Emit(&r, kPerLayer, "iblt.cells_per_session",
       Ratio(D(c.build_cells), sessions), c.sessions);
  Emit(&r, kPerLayer, "iblt.decode_ns_per_key",
       Ratio(D(iblt.decode_ns), D(iblt.decoded_keys)), iblt.decoded_keys);
  Emit(&r, kPerLayer, "iblt.encode_ns_per_byte",
       Ratio(D(iblt.encode_ns), D(iblt.encoded_bytes)), iblt.encoded_bytes);
  Emit(&r, kPerLayer, "iblt.parse_ns_per_byte",
       Ratio(D(iblt.parse_ns), D(iblt.parsed_bytes)), iblt.parsed_bytes);

  Emit(&r, kPerLayer, "estimator.updates_per_session",
       Ratio(D(c.estimator_updates), sessions), c.sessions);
  Emit(&r, kPerLayer, "estimator.update_us_per_session",
       Ratio(Us(c.estimator_ns), sessions), c.sessions);

  // Service layer, from the traced loop. Over TCP the pump calls Step
  // itself, so step times are only observable in-process.
  const ServiceStats& st = traced.stats;
  std::vector<uint64_t> steps = traced.step_ns;
  uint64_t step_total = 0;
  for (uint64_t s : steps) step_total += s;
  const double service_sessions = D(st.sessions_completed + st.sessions_failed);
  Emit(&r, kPerLayer, "service.step_ms_p50", Ms(ExactQuantile(&steps, 0.50)),
       steps.size());
  Emit(&r, kPerLayer, "service.step_ms_p99", Ms(ExactQuantile(&steps, 0.99)),
       steps.size());
  Emit(&r, kPerLayer, "service.step_share",
       Ratio(D(step_total) / 1e9, traced.wall_s), steps.size());
  Emit(&r, kPerLayer, "service.flush_us_per_session",
       Ratio(Us(traced.flush_ns), service_sessions), st.flushes);
  Emit(&r, kPerLayer, "service.flush_keys_mean", st.mean_flush_occupancy(),
       st.flushes);
  Emit(&r, kPerLayer, "service.sharded_flush_ratio",
       Ratio(D(st.sharded_flushes), D(st.flushes)), st.flushes);
  Emit(&r, kPerLayer, "service.cache_hit_ratio",
       Ratio(D(st.cache_hits), D(st.cache_hits + st.cache_misses)),
       st.cache_hits + st.cache_misses);
  Emit(&r, kPerLayer, "service.resumes_per_session",
       Ratio(D(st.resumes), service_sessions),
       static_cast<size_t>(service_sessions));
  Emit(&r, kPerLayer, "service.cpu_per_wall",
       Ratio(traced.cpu.total(), traced.wall_s), 1);

  uint64_t transcript_frames = 0;
  for (const CapturedSession& session : direct.captured) {
    transcript_frames += session.transcript.size();
  }
  Emit(&r, kPerLayer, "transport.frames_per_session",
       Ratio(D(transcript_frames), D(direct.captured.size())),
       direct.captured.size());
  Emit(&r, kPerLayer, "transport.frame_parse_ns_per_byte",
       Ratio(D(frames.ns), D(frames.bytes)), frames.bytes);

  const double tcp_sessions = D(traced.pump_stats.accepted);
  std::vector<uint64_t> connect = traced.connect_ns;
  const double client_sessions = D(traced.traced_sessions);
  Emit(&r, kPerLayer, "net.server_user_us_per_session",
       Ratio(traced.pump_cpu.user_s * 1e6, tcp_sessions),
       traced.pump_stats.accepted);
  Emit(&r, kPerLayer, "net.server_sys_us_per_session",
       Ratio(traced.pump_cpu.sys_s * 1e6, tcp_sessions),
       traced.pump_stats.accepted);
  Emit(&r, kPerLayer, "net.pump_away_us_per_session",
       Ratio(Us(traced.pump_away_ns), tcp_sessions),
       traced.pump_stats.accepted);
  Emit(&r, kPerLayer, "net.wakeups_per_session",
       Ratio(D(traced.poll_wakeups), tcp_sessions), traced.poll_wakeups);
  Emit(&r, kPerLayer, "net.ready_per_wakeup",
       Ratio(D(traced.ready_sum), D(traced.ready_count)), traced.ready_count);
  Emit(&r, kPerLayer, "net.connect_us_p50",
       Us(ExactQuantile(&connect, 0.50)), connect.size());
  Emit(&r, kPerLayer, "net.client_compute_us_per_session",
       Ratio(Us(traced.compute_ns), client_sessions), traced.traced_sessions);
  Emit(&r, kPerLayer, "net.client_send_wait_us_per_session",
       Ratio(Us(traced.send_wait_ns), client_sessions),
       traced.traced_sessions);
  Emit(&r, kPerLayer, "net.client_recv_wait_us_per_session",
       Ratio(Us(traced.recv_wait_ns), client_sessions),
       traced.traced_sessions);
  const NetPumpStats& ps = traced.pump_stats;
  Emit(&r, kPerLayer, "net.bytes_per_frame",
       Ratio(D(ps.bytes_in + ps.bytes_out), D(ps.frames_in + ps.frames_out)),
       ps.frames_in + ps.frames_out);

  // Sum-to-wall: the named spans must cover the measured time.
  double covered = 0;
  double total = 0;
  if (spec.tcp_clients > 0) {
    uint64_t connect_total = 0;
    for (uint64_t x : traced.connect_ns) connect_total += x;
    total = D(traced.latency_sum_ns);
    covered = D(connect_total + traced.hello_ns + traced.compute_ns +
                traced.send_wait_ns + traced.recv_wait_ns + traced.close_ns);
  } else {
    total = traced.wall_s * 1e9;
    covered = D(step_total + traced.own_ns);
  }
  Emit(&r, kPerLayer, "trace.unattributed_frac",
       total > 0 ? 1.0 - covered / total : 0.0, traced.finished);
  const double rate_u = Ratio(D(vu.ok), untraced.wall_s);
  const double rate_t = Ratio(D(vt.ok), traced.wall_s);
  Emit(&r, kPerLayer, "trace.overhead_frac", Ratio(rate_u - rate_t, rate_u),
       vu.ok + vt.ok);
}

/// The properties each workload was chosen for (BENCHMARK.json "why").
void CheckProperties(const WorkloadSpec& spec, RunOutcome* out) {
  const Report& r = out->report;
  const double hit = r.Find("service.cache_hit_ratio")->value;
  const double est = r.Find("estimator.updates_per_session")->value;
  if (spec.name == "mixed-inproc" && hit < 0.99) {
    out->problems.push_back("mixed-inproc: service.cache_hit_ratio " +
                            std::to_string(hit) + " < 0.99");
  }
  if (spec.name == "fresh-ssru" && hit != 0) {
    out->problems.push_back("fresh-ssru: service.cache_hit_ratio " +
                            std::to_string(hit) + " != 0");
  }
  if ((spec.name == "fresh-ssru") != (est > 0)) {
    out->problems.push_back(spec.name + ": estimator.updates_per_session " +
                            std::to_string(est) +
                            " (must be > 0 only on fresh-ssru)");
  }
  const double unattributed = r.Find("trace.unattributed_frac")->value;
  if (unattributed > 0.10) {
    out->problems.push_back(spec.name + ": trace.unattributed_frac " +
                            std::to_string(unattributed) + " > 0.10");
  }
}

/// One set-up: the population, the service, pump and listener, and the
/// set registration. Returns its duration in seconds.
double SetUp(const WorkloadSpec& spec, uint64_t seed,
             std::unique_ptr<Population>* pop, std::unique_ptr<Rig>* rig,
             std::string* error) {
  rig->reset();
  pop->reset();
  const uint64_t start = obs::NowNanos();
  *pop = std::make_unique<Population>(MakePopulation(spec, seed));
  *rig = BuildRig(spec, **pop, error);
  return static_cast<double>(obs::NowNanos() - start) / 1e9;
}

/// One set-up rep: set-ups back to back until they add up to at least
/// kSetUpRepS; appends each one's duration to `setup_s`.
void SetUpRep(const WorkloadSpec& spec, uint64_t seed,
              std::unique_ptr<Population>* pop, std::unique_ptr<Rig>* rig,
              std::string* error, std::vector<double>* setup_s) {
  constexpr double kSetUpRepS = 0.1;
  double total = 0;
  do {
    setup_s->push_back(SetUp(spec, seed, pop, rig, error));
    total += setup_s->back();
  } while (*rig != nullptr && total < kSetUpRepS);
}

RunOutcome RunWorkload(const WorkloadSpec& spec, const RunOptions& opt) {
  RunOutcome out;
  // Set-up is timed in `setup_reps` reps of at least 0.1 s each, and
  // setup_s is the median of every set-up in them; the loop runs on the
  // last one. On a shared box this allocation-heavy work switches between
  // speeds up to ~1.7x apart (5 vs 9 ms per mixed set-up) every few tenths
  // of a second, for reasons outside the process. A mixed set-up is short,
  // so a rep holds ~15 of them, and reps start kSetUpSpacingNs apart so
  // the median spans the switching instead of landing in one phase.
  constexpr uint64_t kSetUpSpacingNs = 300'000'000;
  std::vector<double> setup_s;
  std::unique_ptr<Population> pop;
  std::unique_ptr<Rig> rig;
  std::string error;
  const size_t reps = opt.trace ? 1 : std::max<size_t>(1, opt.setup_reps);
  uint64_t next_rep = obs::NowNanos();
  for (size_t i = 0; i < reps; ++i) {
    for (uint64_t now = obs::NowNanos(); now < next_rep;
         now = obs::NowNanos()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next_rep - now));
    }
    next_rep = obs::NowNanos() + kSetUpSpacingNs;
    SetUpRep(spec, opt.seed, &pop, &rig, &error, &setup_s);
    if (rig == nullptr) {
      out.problems.push_back("set-up failed: " + error);
      return out;
    }
  }
  std::printf("# set-up: %zu members, %zu server sets\n",
              pop->members.size(), pop->servers.size());

  // The direct run is the reference every session is checked against;
  // instrumented, it also gives the core, iblt and estimator layers.
  // Whole 10-member cycles of the protocol mix, so the replays and
  // transport.frames_per_session weigh the protocols as the loops do.
  const size_t capture = spec.known_d ? 40 : 20;
  const DirectRun direct =
      RunDirect(*pop, /*instrument=*/opt.trace, opt.trace ? capture : 0);
  LoopOptions loop_opt;
  loop_opt.refs = &direct.refs;
  loop_opt.corrupt_one = opt.corrupt_one;
  if (!opt.trace) {
    loop_opt.seconds = opt.seconds;
    const LoopResult loop = RunLoop(spec, *pop, rig.get(), loop_opt);
    const Verdict v = Tally(loop);
    PrintLoop("untraced", loop, v);
    std::printf("# set-ups: %zu in %zu reps, fastest %.5f s, median "
                "%.5f s, slowest %.5f s\n",
                setup_s.size(), reps,
                *std::min_element(setup_s.begin(), setup_s.end()),
                Median(setup_s),
                *std::max_element(setup_s.begin(), setup_s.end()));
    EmitEndToEnd(loop, v, setup_s, &out);
    out.attempted = v.attempted;
    out.failed = v.failed;
    return out;
  }

  loop_opt.seconds = opt.seconds / 2;
  const LoopResult untraced = RunLoop(spec, *pop, rig.get(), loop_opt);
  rig = BuildRig(spec, *pop, &error);
  if (rig == nullptr) {
    out.problems.push_back("set-up failed: " + error);
    return out;
  }
  loop_opt.traced = true;
  loop_opt.corrupt_one = false;
  const LoopResult traced = RunLoop(spec, *pop, rig.get(), loop_opt);
  const Verdict vu = Tally(untraced);
  const Verdict vt = Tally(traced);
  PrintLoop("untraced", untraced, vu);
  PrintLoop("traced", traced, vt);

  const IbltReplay iblt =
      ReplayIblt(direct.captured, pop->params.wire_codec, 200'000'000);
  const FrameReplay frames = ReplayFrames(direct.captured, 50'000'000);
  if (!iblt.parse_ok) out.problems.push_back("iblt replay: re-parse mismatch");
  if (!frames.ok) out.problems.push_back("frame replay: parse mismatch");

  EmitPerLayer(spec, untraced, traced, vu, vt, direct, iblt, frames, &out);
  CheckProperties(spec, &out);
  out.attempted = vu.attempted + vt.attempted;
  out.failed = vu.failed + vt.failed;
  return out;
}

void PrintBox() {
  utsname uts{};
  uname(&uts);
#ifdef __clang__
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf("# box: nproc=%u machine=%s kernel=%s compiler=\"%s %s\" "
              "build=%s\n",
              std::thread::hardware_concurrency(), uts.machine, uts.release,
              compiler, __VERSION__, SETREC_PERF_BUILD_TYPE);
}

/// Self-test: tiny sizes; every metric emitted with its unit and a sample
/// count, the workload properties hold, a corrupted outcome is a failure.
int SelfTest() {
  std::vector<std::string> failures;
  const auto expect_metrics = [&](const std::string& what, const Report& r,
                                  const auto& table, bool need_samples) {
    for (const MetricSpec& spec : table) {
      const Metric* m = r.Find(spec.name);
      if (m == nullptr || m->unit != spec.unit) {
        failures.push_back(what + ": " + spec.name + " missing or unit");
      } else if (need_samples && m->samples == 0) {
        failures.push_back(what + ": " + spec.name + " has no samples");
      }
    }
    if (r.metrics().size() != std::size(table)) {
      failures.push_back(what + ": unexpected metric count");
    }
  };
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec spec = *FindWorkload(name, /*tiny=*/true);
    RunOptions opt;
    opt.workload = name;
    opt.seconds = 1.0;
    opt.setup_reps = 2;
    RunOutcome e2e = RunWorkload(spec, opt);
    expect_metrics(name + " e2e", e2e.report, kEndToEnd, true);
    if (!e2e.correct()) failures.push_back(name + " e2e: not correct");
    opt.trace = true;
    RunOutcome layers = RunWorkload(spec, opt);
    expect_metrics(name + " trace", layers.report, kPerLayer, false);
    for (const std::string& p : layers.problems) failures.push_back(p);
    if (!layers.correct()) failures.push_back(name + " trace: not correct");
    std::printf("# selftest %s: e2e %zu/%zu ok, trace %zu/%zu ok\n",
                name.c_str(), e2e.attempted - e2e.failed, e2e.attempted,
                layers.attempted - layers.failed, layers.attempted);
  }
  for (const char* name : {"mixed-inproc", "mixed-tcp"}) {
    RunOptions opt;
    opt.workload = name;
    opt.seconds = 0.3;
    opt.setup_reps = 1;
    opt.corrupt_one = true;
    RunOutcome corrupted = RunWorkload(*FindWorkload(name, true), opt);
    if (corrupted.failed != 1 || corrupted.correct()) {
      failures.push_back(std::string(name) +
                         ": corrupted outcome not counted as one failure "
                         "(failed=" +
                         std::to_string(corrupted.failed) + ")");
    }
  }
  for (const std::string& f : failures) {
    std::printf("selftest FAIL: %s\n", f.c_str());
  }
  std::printf("selftest %s\n", failures.empty() ? "PASS" : "FAIL");
  return failures.empty() ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mixed-inproc|mixed-tcp|fresh-ssru "
               "--seed N --seconds S --trace 0|1\n       %s --selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace setrec::perf

int main(int argc, char** argv) {
  using namespace setrec::perf;
  RunOptions opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage(argv[0]);
    }
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  PrintBox();
  if (selftest) return SelfTest();
  const std::optional<WorkloadSpec> spec = FindWorkload(opt.workload, false);
  if (!spec.has_value() || opt.seconds <= 0) return Usage(argv[0]);
  std::printf("# workload %s seed %llu seconds %.3f trace %d\n",
              spec->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  RunOutcome out = RunWorkload(*spec, opt);
  out.report.Print(stdout);
  for (const std::string& p : out.problems) {
    std::printf("# problem: %s\n", p.c_str());
  }
  if (out.attempted == 0) return 1;
  std::printf("%s\n", ResultJson(out.correct(), out.attempted, out.failed,
                                 out.report)
                          .c_str());
  return 0;
}
