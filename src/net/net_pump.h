#ifndef SETREC_NET_NET_PUMP_H_
#define SETREC_NET_NET_PUMP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/poller.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "service/sync_service.h"
#include "transport/endpoint.h"
#include "util/mpsc_queue.h"
#include "util/status.h"
#include "util/timer_wheel.h"

namespace setrec {

struct NetPumpOptions {
  /// Per-frame size ceiling fed to each connection's FrameDecoder.
  size_t max_frame_bytes = 64u << 20;
  /// Backpressure: once a connection's outgoing buffer holds this many
  /// unwritten bytes, the pump stops reading from that fd (so the session
  /// stops advancing) and stops draining the session's mirror endpoint
  /// (frames queue there, bounded by the protocol's one-in-flight-message
  /// ping-pong) until the client drains its socket.
  size_t max_outbuf_bytes = 1u << 20;
  /// Read granularity per readable wakeup.
  size_t read_chunk_bytes = 64u << 10;
  int listen_backlog = 64;
  /// Frames a connection may send before its hello completes a session —
  /// anything above 1 pre-hello is a protocol violation.
  size_t max_frames_before_session = 1;
  /// Sets SO_REUSEPORT on TCP listeners, so N pumps (one per service
  /// shard) can bind the same port and let the kernel spread accepted
  /// connections across them (the multi-pump listener distribution).
  bool reuse_port = false;
  /// Readiness backend (net/poller.h). kAuto = SETREC_POLLER env var if
  /// set, else epoll on Linux, else poll(2).
  PollerKind poller = PollerKind::kAuto;
  /// A connection must complete its hello within this window or it is
  /// reaped (counted in handshake_timeouts). 0 disables — half-open
  /// connections then live until EOF, the pre-PR-10 lifecycle.
  uint32_t handshake_timeout_ms = 10'000;
  /// An established session's connection is reaped after this much
  /// byte-level silence (no reads, no writes). 0 disables.
  uint32_t idle_timeout_ms = 120'000;
  /// Accept-rate ceiling per pump (token bucket over 100ms windows);
  /// while exhausted the listeners' read interest is paused and the
  /// timer wheel re-enables it at the window boundary, so a connect storm
  /// queues in the kernel backlog instead of monopolizing the pump.
  /// 0 = unlimited.
  uint32_t accept_rate_per_sec = 0;
  /// Load-aware admission cap: at most this many concurrently admitted
  /// (non-shed) connections per pump. Connections beyond the cap are shed
  /// with a protocol-level busy frame carrying `busy_retry_after_ms` and
  /// closed once it flushes — clients see an explicit "busy, retry-after"
  /// instead of an accept-queue stall. 0 = unbounded.
  size_t admission_max_sessions = 0;
  /// Retry hint carried by the busy frame (wire.h kBusyLabel).
  uint32_t busy_retry_after_ms = 1'000;
};

struct NetPumpStats {
  size_t accepted = 0;
  size_t closed = 0;
  /// Connections dropped for malformed traffic (bad frame, bad hello,
  /// unknown set id, frames for a finished session).
  size_t protocol_errors = 0;
  /// Connections that disconnected with a live session (cancelled).
  size_t disconnects = 0;
  size_t frames_in = 0;
  size_t frames_out = 0;
  size_t bytes_in = 0;
  size_t bytes_out = 0;
  /// Passes where a connection was input-gated by outbuf size.
  size_t backpressure_stalls = 0;
  /// Connections reaped for never completing a hello in time.
  size_t handshake_timeouts = 0;
  /// Established connections reaped for byte-level silence.
  size_t idle_timeouts = 0;
  /// Connections shed with a busy frame by the admission cap.
  size_t admissions_rejected = 0;
};

/// A non-blocking event loop that turns remote byte streams into
/// SyncService half-sessions:
///
///   socket bytes → FrameDecoder → hello: Submit(kAliceHalf session)
///                               → frames: DeliverRemote(session, message)
///   session ctx->Send → mirror Endpoint → DrainToStream → socket bytes
///
/// Readiness comes through the Poller interface (epoll by default — cost
/// O(ready fds), so 10k idle connections are free; poll(2) as the portable
/// fallback). Per-pass work is proportional to touched
/// connections (fd events + live sessions + fired timers), never to the
/// total connection count. Connection lifecycle is timer-driven: a hashed
/// timer wheel reaps handshake stragglers and idle sessions and paces
/// accepts, replacing the old "EOF or never" model.
///
/// One session per connection; the server side runs Alice's half of the
/// chosen protocol against the registered shared set named by the client's
/// hello. The pump and service are a single-threaded pair: PumpOnce feeds
/// input, steps the service until it settles, then drains output. See
/// src/net/README.md for the loop, backpressure, and admission model.
class NetPump {
 public:
  explicit NetPump(SyncService* service, NetPumpOptions options = {});
  ~NetPump();

  NetPump(const NetPump&) = delete;
  NetPump& operator=(const NetPump&) = delete;

  /// Listens on 0.0.0.0:`port` (0 = ephemeral); returns the bound port.
  Result<uint16_t> ListenTcp(uint16_t port);
  /// Listens on a Unix-domain socket at `path` (unlinked first, and again
  /// on destruction).
  Status ListenUnix(const std::string& path);
  /// Takes ownership of an already-connected stream fd (socketpair tests,
  /// inherited sockets). The fd is switched to non-blocking. Pump thread
  /// only. Admission control applies: over the cap the fd is adopted only
  /// to carry a busy frame and close.
  Status AdoptConnection(int fd);

  /// Thread-safe adoption hand-off: queues the fd and interrupts the
  /// pump's poller; the pump adopts it at the top of its next pass. This
  /// is how a multi-pump distributes externally-accepted connections to
  /// the pump that owns the target shard. Any thread.
  void AdoptConnectionAsync(int fd);

  /// Interrupts a blocking Wait from another thread (mailbox pushed to the
  /// shard, fd queued, shutdown requested). Any thread.
  void Wake();

  /// One wait + process pass; returns the number of fd events handled
  /// (0 on timeout). `timeout_ms` < 0 blocks until an event or the next
  /// wheel deadline.
  size_t PumpOnce(int timeout_ms);

  /// Pumps until no connections remain (listeners stay open; returns when
  /// every accepted connection has finished). Meant for tests/examples
  /// serving a known client count.
  void DrainConnections(int poll_timeout_ms = 100);

  size_t connection_count() const { return connections_.size(); }
  size_t listener_count() const { return listeners_.size(); }
  const NetPumpStats& stats() const { return stats_; }

  /// The readiness backend actually in use (after kAuto resolution and
  /// availability fallback).
  PollerKind poller_kind() const { return poller_->kind(); }

  /// Stamped every time the poller returns — the stall watchdog's
  /// liveness signal for the pump thread. Any thread may read.
  const obs::Heartbeat& heartbeat() const { return heartbeat_; }

  /// Live pump metric block. Pump thread only (single-writer, unlocked);
  /// cross-thread readers use SnapshotPumpMetrics().
  const obs::PumpMetrics& pump_metrics() const { return pump_metrics_; }

  /// Copy of the published pump-metric snapshot (refreshed by the pump at
  /// the end of each pass, throttled). Any thread.
  obs::PumpMetrics SnapshotPumpMetrics() const;

  /// Overrides the text returned to a "STAT?" admin frame. By default the
  /// pump exposes its own service's metrics plus its own pump block (safe
  /// live reads: the pump thread IS the service's driving thread); a
  /// multi-pump installs a merged-across-shards builder here. The hook
  /// runs on the pump thread.
  void set_stat_exposition(std::function<std::string()> hook) {
    stat_exposition_ = std::move(hook);
  }

  /// Overrides the text returned to a "TRACE?" admin frame. Default: this
  /// pump's own service tracer, formatted as `# setrec-trace v1` text; a
  /// multi-pump installs a merged-across-shards builder. Pump thread.
  void set_trace_exposition(std::function<std::string()> hook) {
    trace_exposition_ = std::move(hook);
  }

  /// Results drained from the service while pumping, in completion order
  /// (includes any non-remote sessions the shared service finished).
  std::vector<SessionResult> TakeResults();

 private:
  struct Connection;

  void StepService();
  void HandleReadable(Connection* conn);
  void HandleFrame(Connection* conn, Channel::Message message);
  void HandleStatQuery(Connection* conn);
  void HandleTraceQuery(Connection* conn);
  /// Serializes an admin reply frame into `conn`'s outbuf.
  void SendAdminReply(Connection* conn, const char* label,
                      const std::string& text);
  void MaybePublishPumpMetrics();
  void DrainMirror(Connection* conn);
  void FlushWrites(Connection* conn);
  void FailConnection(Connection* conn, bool protocol_error);
  void CloseConnection(Connection* conn);
  void CollectResults();

  /// Adds `conn` to this pass's work list (idempotent). Only touched
  /// connections pay per-pass processing.
  void Touch(Connection* conn);
  /// Accept loop for listener `index`, bounded by the accept budget.
  void AcceptFrom(size_t index);
  bool AcceptBudgetOk(uint64_t now_ns);
  void PauseListeners();
  void ResumeListeners();
  /// Re-registers desired poller interest after a pass touched `conn`.
  void UpdateInterest(Connection* conn);
  /// Marks `conn` for shedding: busy frame queued, write-only, closed
  /// once flushed (or when the linger timer fires).
  void StartShed(Connection* conn);
  void ArmHandshakeTimer(Connection* conn);
  void RearmIdleTimer(Connection* conn);
  /// Timer-wheel fire dispatch (user_data = token<<2 | timer type).
  void OnTimer(uint64_t data);

  /// Creates the self-pipe wakeup interruptor (called once, from the
  /// constructor — the fds must be immutable before the pump is shared
  /// across threads, so creation is never deferred to a cross-thread
  /// path).
  Status EnsureWakePipe();

  SyncService* service_;
  NetPumpOptions options_;
  NetPumpStats stats_;
  std::unique_ptr<Poller> poller_;
  TimerWheel wheel_;
  /// Self-pipe: [0] watched by the poller, [1] written by Wake(). Created
  /// eagerly in the constructor; stays {-1, -1} only if pipe(2) failed
  /// (wakes then degrade to the caller's poll timeout).
  int wake_pipe_[2] = {-1, -1};
  /// Fds handed off by other threads, adopted at the top of PumpOnce.
  MpscQueue<int> adopt_queue_;
  std::vector<int> listeners_;
  std::vector<std::string> unix_paths_;
  bool listeners_paused_ = false;
  /// Accept token bucket (see accept_rate_per_sec).
  uint64_t accept_budget_ = 0;
  uint64_t accept_window_start_ns_ = 0;
  /// Connections keyed by poller token (monotonic, never reused — a
  /// recycled fd number can't alias a stale registration or timer).
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_token_;
  /// Connections currently shed (admission): counted so the cap applies
  /// to admitted connections only.
  size_t shed_live_ = 0;
  std::unordered_map<uint64_t, Connection*> by_session_;
  /// This pass's work list (fd events, fired timers, live sessions).
  std::vector<Connection*> touched_;
  std::vector<PollerEvent> events_;
  std::vector<SessionResult> results_;
  /// Reusable read buffer (the pump is single-threaded).
  std::vector<uint8_t> read_buf_;
  /// Live metric block, written only by the pump thread (same single-writer
  /// discipline as stats_); published copies serve cross-thread readers.
  obs::PumpMetrics pump_metrics_;
  obs::Heartbeat heartbeat_;
  /// Instant the poller last returned; the gap to the next Wait entry is
  /// the away_from_poll histogram (recorded for EVERY pass — the stall
  /// accounting fix).
  uint64_t away_mark_ns_ = 0;
  uint64_t last_metrics_publish_ns_ = 0;
  bool metrics_dirty_ = false;
  mutable std::mutex published_mu_;
  obs::PumpMetrics published_metrics_;
  std::function<std::string()> stat_exposition_;
  std::function<std::string()> trace_exposition_;
};

}  // namespace setrec

#endif  // SETREC_NET_NET_PUMP_H_
