#include "net/poller.h"

#include <cstdlib>
#include <string>

namespace setrec {

const char* PollerKindName(PollerKind kind) {
  switch (kind) {
    case PollerKind::kAuto:
      return "auto";
    case PollerKind::kPoll:
      return "poll";
    case PollerKind::kEpoll:
      return "epoll";
  }
  return "unknown";
}

Result<PollerKind> ParsePollerKind(std::string_view name) {
  if (name == "auto") return PollerKind::kAuto;
  if (name == "poll") return PollerKind::kPoll;
  if (name == "epoll") return PollerKind::kEpoll;
  return InvalidArgument("unknown poller backend: " + std::string(name) +
                         " (want auto|poll|epoll)");
}

bool PollerBackendAvailable(PollerKind kind) {
  switch (kind) {
    case PollerKind::kAuto:
    case PollerKind::kPoll:
      return true;
    case PollerKind::kEpoll: {
      // Construction is the probe; cached so tests and MakePoller can ask
      // repeatedly without burning fds.
      static const bool available = internal::MakeEpollPoller() != nullptr;
      return available;
    }
  }
  return false;
}

namespace {

/// SETREC_POLLER steers kAuto only — an explicit --poller= flag wins.
/// Unparseable values are ignored (a typo'd env var must not change which
/// backend a production server boots with).
PollerKind EnvSteer() {
  const char* env = std::getenv("SETREC_POLLER");
  if (env == nullptr || *env == '\0') return PollerKind::kAuto;
  Result<PollerKind> parsed = ParsePollerKind(env);
  return parsed.ok() ? parsed.value() : PollerKind::kAuto;
}

}  // namespace

std::unique_ptr<Poller> MakePoller(PollerKind requested) {
  if (requested == PollerKind::kAuto) requested = EnvSteer();
  // Degradation chain: epoll (Linux default) -> poll (always works).
  if (requested != PollerKind::kPoll) {
    if (auto poller = internal::MakeEpollPoller()) return poller;
  }
  return internal::MakePollPoller();
}

}  // namespace setrec
