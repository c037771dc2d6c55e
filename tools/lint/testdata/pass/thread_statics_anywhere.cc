// LINT-TEST-PATH: src/service/sync_service.h
// LINT-TEST: expect-clean
//
// The std::thread statics start nothing, so any file may use them: the
// service records its owner thread id and sizes work by core count.

#include <thread>

struct Owner {
  std::thread::id owner_thread_{};
  unsigned cores = std::thread::hardware_concurrency();
};
