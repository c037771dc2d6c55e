// Tests for the stall watchdog, driven deterministically through CheckOnce
// with synthetic clocks: never-started shards are skipped, idle-but-quiet
// shards never fire, a stale beat with queued work dumps the tracer ring
// exactly once per stall episode, and a fresh beat re-arms the dump.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "obs/watchdog.h"

namespace setrec::obs {
namespace {

constexpr uint64_t kMs = 1'000'000;

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

TEST(StallWatchdogTest, NeverStartedShardIsSkipped) {
  Heartbeat hb;  // Beat 0: the driver has not run yet.
  StallWatchdog dog;
  dog.Watch({"shard-0", &hb, [] { return true; }, nullptr, {}});
  const std::string text = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(10'000 * kMs, 100 * kMs, out), 0u);
  });
  EXPECT_TRUE(text.empty());
  EXPECT_EQ(dog.stall_dumps(), 0u);
}

TEST(StallWatchdogTest, FreshBeatDoesNotFire) {
  Heartbeat hb;
  hb.Beat(1'000 * kMs);
  StallWatchdog dog;
  dog.Watch({"shard-0", &hb, [] { return true; }, nullptr, {}});
  const std::string text = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(1'050 * kMs, 100 * kMs, out), 0u);
  });
  EXPECT_TRUE(text.empty());
}

TEST(StallWatchdogTest, StaleBeatWithoutQueuedWorkIsIdleNotStalled) {
  Heartbeat hb;
  hb.Beat(1'000 * kMs);
  StallWatchdog dog;
  dog.Watch({"shard-0", &hb, [] { return false; }, nullptr, {}});
  const std::string text = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(9'999 * kMs, 100 * kMs, out), 0u);
  });
  EXPECT_TRUE(text.empty());
}

TEST(StallWatchdogTest, StallDumpsRingOncePerEpisode) {
  Heartbeat hb;
  hb.Beat(1'000 * kMs);
  SessionTracer tracer;
  tracer.Configure(32, 1);
  tracer.Record(7, TracePhase::kLeaseWait, true, 999 * kMs, /*trace_id=*/0xe);
  StallWatchdog dog;
  bool queued = true;
  dog.Watch({"shard-3", &hb, [&queued] { return queued; }, &tracer, {}});

  const std::string first = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(2'000 * kMs, 100 * kMs, out), 1u);
  });
  EXPECT_NE(first.find("shard shard-3 stalled"), std::string::npos);
  EXPECT_NE(first.find("> lease-wait"), std::string::npos);
  EXPECT_NE(first.find("trace 000000000000000e"), std::string::npos);
  EXPECT_EQ(dog.stall_dumps(), 1u);

  // Still stalled at the same beat: one dump per episode, not per poll.
  const std::string second = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(3'000 * kMs, 100 * kMs, out), 0u);
  });
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(dog.stall_dumps(), 1u);

  // The driver recovers (fresh beat), then wedges again: a new episode.
  hb.Beat(3'500 * kMs);
  const std::string recovered = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(3'501 * kMs, 100 * kMs, out), 0u);
  });
  EXPECT_TRUE(recovered.empty());
  const std::string third = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(5'000 * kMs, 100 * kMs, out), 1u);
  });
  EXPECT_NE(third.find("stalled"), std::string::npos);
  EXPECT_EQ(dog.stall_dumps(), 2u);
}

TEST(StallWatchdogTest, EmptyRingSaysSo) {
  Heartbeat hb;
  hb.Beat(1'000 * kMs);
  SessionTracer tracer;  // Unconfigured: nothing to dump.
  StallWatchdog dog;
  dog.Watch({"shard-0", &hb, [] { return true; }, &tracer, {}});
  const std::string text = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(2'000 * kMs, 100 * kMs, out), 1u);
  });
  EXPECT_NE(text.find("(tracer ring empty)"), std::string::npos);
}

TEST(StallWatchdogTest, ChecksEveryShardIndependently) {
  Heartbeat stalled_hb;
  stalled_hb.Beat(1'000 * kMs);
  Heartbeat fresh_hb;
  fresh_hb.Beat(1'999 * kMs);
  StallWatchdog dog;
  dog.Watch({"stalled", &stalled_hb, [] { return true; }, nullptr, {}});
  dog.Watch({"fresh", &fresh_hb, [] { return true; }, nullptr, {}});
  const std::string text = CaptureDump([&](std::FILE* out) {
    EXPECT_EQ(dog.CheckOnce(2'000 * kMs, 100 * kMs, out), 1u);
  });
  EXPECT_NE(text.find("shard stalled stalled"), std::string::npos);
  EXPECT_EQ(text.find("shard fresh"), std::string::npos);
}

}  // namespace
}  // namespace setrec::obs
