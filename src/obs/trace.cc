#include "obs/trace.h"

#include <utility>

namespace setrec::obs {

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kSession: return "session";
    case TracePhase::kRoundWait: return "round-wait";
    case TracePhase::kLeaseWait: return "lease-wait";
    case TracePhase::kRecvWait: return "recv-wait";
    case TracePhase::kConnect: return "connect";
    case TracePhase::kHello: return "hello";
    case TracePhase::kSendWait: return "send-wait";
    case TracePhase::kCompute: return "compute";
  }
  return "?";
}

void SessionTracer::Configure(size_t capacity, uint64_t slow_ns) {
  ring_ = capacity > 0 ? std::make_unique<TraceEvent[]>(capacity) : nullptr;
  capacity_ = capacity;
  next_.store(0, std::memory_order_relaxed);
  slow_ns_ = slow_ns;
  dumps_ = 0;
}

void SessionTracer::EnableCapture(size_t capacity_if_unconfigured) {
  if (capacity_ == 0 && capacity_if_unconfigured > 0) {
    ring_ = std::make_unique<TraceEvent[]>(capacity_if_unconfigured);
    capacity_ = capacity_if_unconfigured;
    next_.store(0, std::memory_order_relaxed);
  }
  capture_ = capacity_ > 0;
}

void SessionTracer::OnSessionEnd(uint64_t session_id, uint64_t trace_id,
                                 uint64_t latency_ns, const char* label,
                                 std::FILE* out) {
  if (session_id == 0 || capacity_ == 0) return;
  const bool slow = slow_ns_ > 0 && latency_ns >= slow_ns_;
  const bool captured = capture_ && (trace_id != 0 || slow);
  if (!slow && !captured) return;

  // Gather the session's surviving events oldest-first (the slot the ring
  // writes next holds the oldest) and blank them, so a duplicate end — or
  // a second consumer — stays silent.
  std::vector<CompletedTraceEvent> events;
  const size_t start = next_.load(std::memory_order_relaxed);
  for (size_t step = 0; step < capacity_; ++step) {
    TraceEvent& ev = ring_[(start + step) % capacity_];
    if (ev.session_id.load(std::memory_order_relaxed) != session_id) continue;
    CompletedTraceEvent e;
    e.ns = ev.ns.load(std::memory_order_relaxed);
    e.phase = static_cast<TracePhase>(ev.phase.load(std::memory_order_relaxed));
    e.enter = ev.enter.load(std::memory_order_relaxed);
    events.push_back(e);
    ev.session_id.store(0, std::memory_order_relaxed);
  }
  // No surviving events: either the ring wrapped past this session (size
  // the ring up — see docs/OBSERVABILITY.md) or this session already
  // dumped. Either way stay silent.
  if (events.empty()) return;

  if (captured) {
    CompletedTrace trace;
    trace.trace_id = trace_id;
    trace.session_id = session_id;
    trace.latency_ns = latency_ns;
    trace.slow = slow;
    trace.label = label;
    trace.events = events;
    std::lock_guard<std::mutex> lock(completed_mu_);
    if (completed_.size() >= kMaxCompletedTraces) {
      completed_.erase(completed_.begin());
    }
    completed_.push_back(std::move(trace));
  }

  if (slow && out != nullptr) {
    if (trace_id != 0) {
      std::fprintf(out,
                   "[setrec-trace] session %llu trace %016llx (%s) took "
                   "%.3f ms (threshold %.3f ms)\n",
                   static_cast<unsigned long long>(session_id),
                   static_cast<unsigned long long>(trace_id), label,
                   static_cast<double>(latency_ns) / 1e6,
                   static_cast<double>(slow_ns_) / 1e6);
    } else {
      std::fprintf(out,
                   "[setrec-trace] session %llu (%s) took %.3f ms "
                   "(threshold %.3f ms)\n",
                   static_cast<unsigned long long>(session_id), label,
                   static_cast<double>(latency_ns) / 1e6,
                   static_cast<double>(slow_ns_) / 1e6);
    }
    const uint64_t base_ns = events.front().ns;
    int depth = 0;
    for (const CompletedTraceEvent& ev : events) {
      if (!ev.enter && depth > 0) --depth;
      std::fprintf(out, "  %*s%c %-10s +%.3f ms\n", depth * 2, "",
                   ev.enter ? '>' : '<', TracePhaseName(ev.phase),
                   static_cast<double>(ev.ns - base_ns) / 1e6);
      if (ev.enter) ++depth;
    }
    ++dumps_;
  }
}

std::vector<CompletedTrace> SessionTracer::SnapshotCompleted() const {
  std::lock_guard<std::mutex> lock(completed_mu_);
  return completed_;
}

size_t SessionTracer::DumpRing(std::FILE* out) const {
  size_t printed = 0;
  uint64_t base_ns = 0;
  const size_t start = next_.load(std::memory_order_relaxed);
  for (size_t step = 0; step < capacity_; ++step) {
    const TraceEvent& ev = ring_[(start + step) % capacity_];
    const uint64_t session_id = ev.session_id.load(std::memory_order_relaxed);
    if (session_id == 0) continue;
    const uint64_t ns = ev.ns.load(std::memory_order_relaxed);
    if (printed == 0) base_ns = ns;
    std::fprintf(out,
                 "  session %llu trace %016llx %c %-10s +%.3f ms\n",
                 static_cast<unsigned long long>(session_id),
                 static_cast<unsigned long long>(
                     ev.trace_id.load(std::memory_order_relaxed)),
                 ev.enter.load(std::memory_order_relaxed) ? '>' : '<',
                 TracePhaseName(static_cast<TracePhase>(
                     ev.phase.load(std::memory_order_relaxed))),
                 static_cast<double>(ns - base_ns) / 1e6);
    ++printed;
  }
  return printed;
}

}  // namespace setrec::obs
