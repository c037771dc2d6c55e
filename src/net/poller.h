#ifndef SETREC_NET_POLLER_H_
#define SETREC_NET_POLLER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace setrec {

/// Which readiness backend a Poller runs on. kAuto resolves at
/// construction: SETREC_POLLER if set (how the ctest `net` label runs
/// every suite once per backend without recompiling), else epoll on
/// Linux, else poll.
enum class PollerKind : uint8_t {
  kAuto = 0,
  kPoll = 1,   ///< Portable ::poll(2): O(watched fds) per wakeup.
  kEpoll = 2,  ///< Linux epoll, level-triggered: O(ready fds) per wakeup.
};

/// One readiness report. `token` is the caller's opaque registration tag
/// (the pump keys connections by token, never by fd, so a recycled fd
/// number can't alias a stale registration).
struct PollerEvent {
  uint64_t token = 0;
  bool readable = false;
  bool writable = false;
  /// Peer hangup or fd error. Backends fold POLLERR/POLLHUP here; the
  /// caller reads to EOF to learn which.
  bool hangup = false;
};

/// Readiness-notification interface behind NetPump. One instance per pump
/// thread; not thread-safe (the pump's cross-thread wakeup is an fd
/// registered like any other, so no backend needs cross-thread state).
///
/// Contract shared by all backends:
///  * Add registers `fd` with an interest mask (kRead|kWrite) and a token;
///    registering an already-registered fd is an error (use Modify).
///  * Modify re-arms interest and may retarget the token. Interest 0 is
///    valid: the fd stays registered but reports nothing (the pump parks
///    backpressured connections this way).
///  * Remove unregisters; the caller closes the fd itself, always AFTER
///    Remove.
///  * Wait blocks up to timeout_ms (-1 = forever, 0 = poll-and-return) and
///    appends ready events to `out` (which the caller clears); it returns
///    the number appended. Hangup-only events are reported even when the
///    interest mask is 0 on backends that can't mask them (poll); callers
///    must tolerate spurious events — level-triggered semantics.
class Poller {
 public:
  static constexpr uint32_t kRead = 1u << 0;
  static constexpr uint32_t kWrite = 1u << 1;

  virtual ~Poller() = default;

  /// The backend actually running (never kAuto).
  virtual PollerKind kind() const = 0;

  virtual Status Add(int fd, uint32_t interest, uint64_t token) = 0;
  virtual Status Modify(int fd, uint32_t interest, uint64_t token) = 0;
  virtual Status Remove(int fd) = 0;
  virtual Result<size_t> Wait(int timeout_ms,
                              std::vector<PollerEvent>* out) = 0;
};

/// Stable lowercase backend name ("poll", "epoll"); kAuto maps
/// to "auto". Used in flags, STAT? exposition, and BENCH_service.json.
const char* PollerKindName(PollerKind kind);

/// Parses a backend name as accepted by --poller= and SETREC_POLLER
/// ("auto", "poll" or "epoll").
Result<PollerKind> ParsePollerKind(std::string_view name);

/// True if `kind` can actually run here (epoll: Linux build, probed once
/// and cached). kAuto and kPoll are always available.
bool PollerBackendAvailable(PollerKind kind);

/// Builds the backend for `requested`. kAuto consults SETREC_POLLER, then
/// defaults to epoll. An unavailable epoll degrades to poll rather than
/// failing: the caller reads the achieved backend from kind(). Never
/// returns null.
std::unique_ptr<Poller> MakePoller(PollerKind requested);

namespace internal {
/// Backend constructors, exposed for MakePoller and the backend-matrix
/// tests. The epoll factory returns null when the kernel refuses.
std::unique_ptr<Poller> MakePollPoller();
std::unique_ptr<Poller> MakeEpollPoller();
}  // namespace internal

}  // namespace setrec

#endif  // SETREC_NET_POLLER_H_
