// Tests for the obs SessionTracer ring: wraparound at capacity, the
// dump-exactly-once contract for slow sessions, and the zero-heap-allocation
// guarantee on the Record path (measured with the same replaced operator new
// that backs the decode_allocs_warm bench claim).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/alloc_counter.h"
#include "obs/trace.h"

namespace setrec::obs {
namespace {

// Runs `fn(out)` against an in-memory FILE* and returns what it printed.
template <typename Fn>
std::string CaptureDump(Fn&& fn) {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  EXPECT_NE(out, nullptr);
  fn(out);
  std::fclose(out);
  std::string text(buf, len);
  std::free(buf);
  return text;
}

size_t CountLines(const std::string& text) {
  size_t n = 0;
  for (char c : text) {
    if (c == '\n') ++n;
  }
  return n;
}

TEST(SessionTracerTest, DisabledUntilConfigured) {
  SessionTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.Configure(16, 0);  // Threshold 0 keeps it disabled.
  EXPECT_FALSE(tracer.enabled());
  tracer.Configure(0, 1000);  // So does an empty ring.
  EXPECT_FALSE(tracer.enabled());
  tracer.Configure(16, 1000);
  EXPECT_TRUE(tracer.enabled());
}

TEST(SessionTracerTest, DumpContainsSpanTree) {
  SessionTracer tracer;
  tracer.Configure(64, 1000);
  tracer.Record(42, TracePhase::kSession, true, 10'000);
  tracer.Record(42, TracePhase::kRoundWait, true, 11'000);
  tracer.Record(42, TracePhase::kRoundWait, false, 15'000);
  tracer.Record(42, TracePhase::kSession, false, 20'000);
  const std::string text = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(42, /*trace_id=*/0, 10'000, "iblt2/dense", out);
  });
  EXPECT_NE(text.find("session 42"), std::string::npos);
  EXPECT_NE(text.find("iblt2/dense"), std::string::npos);
  EXPECT_NE(text.find("> session"), std::string::npos);
  EXPECT_NE(text.find("> round-wait"), std::string::npos);
  EXPECT_NE(text.find("< round-wait"), std::string::npos);
  // Header + 4 events.
  EXPECT_EQ(CountLines(text), 5u);
  EXPECT_EQ(tracer.dumps(), 1u);
}

TEST(SessionTracerTest, BelowThresholdDoesNotDump) {
  SessionTracer tracer;
  tracer.Configure(64, 1'000'000);
  tracer.Record(7, TracePhase::kSession, true, 0);
  tracer.Record(7, TracePhase::kSession, false, 500);
  const std::string text = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(7, /*trace_id=*/0, 500, "naive/dense", out);
  });
  EXPECT_TRUE(text.empty());
  EXPECT_EQ(tracer.dumps(), 0u);
}

TEST(SessionTracerTest, RingWrapsAtCapacity) {
  SessionTracer tracer;
  tracer.Configure(8, 1);
  // 20 events for session 5: only the newest 8 survive the ring.
  for (uint64_t i = 0; i < 20; ++i) {
    tracer.Record(5, TracePhase::kRoundWait, i % 2 == 0, 1'000'000 * i);
  }
  const std::string text = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(5, /*trace_id=*/0, 1'000'000, "cascade/sparse", out);
  });
  // Header + exactly capacity events, oldest first.
  EXPECT_EQ(CountLines(text), 1u + 8u);
  // The first surviving event is number 12 (ns=12000) — relative +0.000 and
  // the last is number 19 at +7.000 ms.
  EXPECT_NE(text.find("+0.000 ms"), std::string::npos);
  EXPECT_NE(text.find("+7.000 ms"), std::string::npos);
}

TEST(SessionTracerTest, DumpFiresExactlyOncePerSession) {
  SessionTracer tracer;
  tracer.Configure(32, 1);
  tracer.Record(9, TracePhase::kSession, true, 0);
  tracer.Record(9, TracePhase::kSession, false, 5'000'000);
  const std::string first = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(9, /*trace_id=*/0, 5'000'000, "multiround/dense", out);
  });
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(tracer.dumps(), 1u);
  // A duplicate end for the same session finds its events blanked.
  const std::string second = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(9, /*trace_id=*/0, 5'000'000, "multiround/dense", out);
  });
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(tracer.dumps(), 1u);
  // Other sessions' events are untouched by the blanking.
  tracer.Record(10, TracePhase::kSession, true, 0);
  tracer.Record(10, TracePhase::kSession, false, 2'000'000);
  const std::string other = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(10, /*trace_id=*/0, 2'000'000, "multiround/dense", out);
  });
  EXPECT_FALSE(other.empty());
  EXPECT_EQ(tracer.dumps(), 2u);
}

TEST(SessionTracerTest, ArmedWithCaptureOnly) {
  SessionTracer tracer;
  EXPECT_FALSE(tracer.armed());
  tracer.EnableCapture(16);  // TRACE? retention without a slow threshold.
  EXPECT_TRUE(tracer.armed());
  EXPECT_FALSE(tracer.enabled());  // Slow dumping stays off.
  EXPECT_EQ(tracer.capacity(), 16u);

  SessionTracer configured;
  configured.Configure(8, 1000);
  configured.EnableCapture(16);  // Keeps the configured ring size.
  EXPECT_EQ(configured.capacity(), 8u);
  EXPECT_TRUE(configured.armed());
  EXPECT_TRUE(configured.enabled());
}

TEST(SessionTracerTest, CaptureRetainsTracedSessions) {
  SessionTracer tracer;
  tracer.EnableCapture(64);
  tracer.Record(3, TracePhase::kSession, true, 1'000, /*trace_id=*/0xab);
  tracer.Record(3, TracePhase::kRecvWait, true, 2'000, 0xab);
  tracer.Record(3, TracePhase::kRecvWait, false, 3'000, 0xab);
  tracer.Record(3, TracePhase::kSession, false, 4'000, 0xab);
  tracer.OnSessionEnd(3, /*trace_id=*/0xab, 3'000, "iblt2/dense", nullptr);

  // A fast untraced session is not retained.
  tracer.Record(4, TracePhase::kSession, true, 5'000);
  tracer.Record(4, TracePhase::kSession, false, 6'000);
  tracer.OnSessionEnd(4, /*trace_id=*/0, 1'000, "iblt2/dense", nullptr);

  std::vector<CompletedTrace> got = tracer.SnapshotCompleted();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].trace_id, 0xabu);
  EXPECT_EQ(got[0].session_id, 3u);
  EXPECT_EQ(got[0].latency_ns, 3'000u);
  EXPECT_FALSE(got[0].slow);
  EXPECT_EQ(got[0].label, "iblt2/dense");
  ASSERT_EQ(got[0].events.size(), 4u);
  EXPECT_EQ(got[0].events[0].phase, TracePhase::kSession);
  EXPECT_TRUE(got[0].events[0].enter);
  EXPECT_EQ(got[0].events[2].phase, TracePhase::kRecvWait);
  EXPECT_FALSE(got[0].events[2].enter);

  // A duplicate end finds its ring events blanked: no second entry.
  tracer.OnSessionEnd(3, 0xab, 3'000, "iblt2/dense", nullptr);
  EXPECT_EQ(tracer.SnapshotCompleted().size(), 1u);
}

TEST(SessionTracerTest, CaptureKeepsSlowUntracedSessions) {
  SessionTracer tracer;
  tracer.Configure(64, 1'000);
  tracer.EnableCapture(64);
  tracer.Record(5, TracePhase::kSession, true, 0);
  tracer.Record(5, TracePhase::kSession, false, 9'000);
  const std::string text = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(5, /*trace_id=*/0, 9'000, "naive/dense", out);
  });
  EXPECT_FALSE(text.empty());  // Slow: dumped...
  std::vector<CompletedTrace> got = tracer.SnapshotCompleted();
  ASSERT_EQ(got.size(), 1u);  // ...and retained for TRACE?.
  EXPECT_EQ(got[0].trace_id, 0u);
  EXPECT_TRUE(got[0].slow);
}

TEST(SessionTracerTest, CompletedStoreDropsOldest) {
  SessionTracer tracer;
  tracer.EnableCapture(16);
  for (uint64_t i = 1; i <= 40; ++i) {
    tracer.Record(i, TracePhase::kSession, true, i * 10);
    tracer.Record(i, TracePhase::kSession, false, i * 10 + 5);
    tracer.OnSessionEnd(i, /*trace_id=*/i + 100, 5, "iblt2/dense", nullptr);
  }
  std::vector<CompletedTrace> got = tracer.SnapshotCompleted();
  ASSERT_EQ(got.size(), 32u);  // Bounded: the oldest 8 were dropped.
  EXPECT_EQ(got.front().session_id, 9u);
  EXPECT_EQ(got.back().session_id, 40u);
}

TEST(SessionTracerTest, SlowDumpIncludesTraceId) {
  SessionTracer tracer;
  tracer.Configure(64, 1'000);
  tracer.Record(6, TracePhase::kSession, true, 0);
  tracer.Record(6, TracePhase::kSession, false, 5'000);
  const std::string text = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(6, /*trace_id=*/0xab, 5'000, "iblt2/dense", out);
  });
  EXPECT_NE(text.find("trace 00000000000000ab"), std::string::npos);
}

TEST(SessionTracerTest, DumpRingDoesNotBlank) {
  SessionTracer tracer;
  tracer.Configure(32, 1);
  tracer.Record(11, TracePhase::kSession, true, 0, /*trace_id=*/0xcd);
  tracer.Record(11, TracePhase::kLeaseWait, true, 1'000, 0xcd);
  const std::string first = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(tracer.DumpRing(out), 2u);
  });
  EXPECT_NE(first.find("session 11"), std::string::npos);
  EXPECT_NE(first.find("trace 00000000000000cd"), std::string::npos);
  EXPECT_NE(first.find("> lease-wait"), std::string::npos);
  // The watchdog's view is read-only: a second dump sees the same events,
  // and the driver's own OnSessionEnd still finds them afterwards.
  const std::string second = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(tracer.DumpRing(out), 2u);
  });
  EXPECT_EQ(first, second);
  tracer.Record(11, TracePhase::kLeaseWait, false, 2'000, 0xcd);
  tracer.Record(11, TracePhase::kSession, false, 3'000, 0xcd);
  const std::string dump = CaptureDump([&](std::FILE* out) {
    tracer.OnSessionEnd(11, 0xcd, 3'000, "iblt2/dense", out);
  });
  EXPECT_NE(dump.find("> session"), std::string::npos);
  EXPECT_EQ(CountLines(dump), 5u);
}

TEST(SessionTracerTest, RecordDoesNotAllocate) {
  SessionTracer tracer;
  tracer.Configure(1024, 1'000'000);  // The ring is the only allocation.
  const size_t allocs = CountAllocs([&] {
    for (uint64_t i = 0; i < 10'000; ++i) {
      tracer.Record(i % 17 + 1,
                    i % 2 == 0 ? TracePhase::kRoundWait
                               : TracePhase::kLeaseWait,
                    i % 2 == 0, i * 100);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace setrec::obs
