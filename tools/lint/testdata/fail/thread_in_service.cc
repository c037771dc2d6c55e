// LINT-TEST-PATH: src/service/sync_service.cc
// LINT-TEST: expect thread-spawn
//
// A SyncService is driven by one thread and never starts others: a worker
// here could resume a coroutine frame on a foreign thread.

#include <thread>

void StartHelper() {
  std::thread helper([] {});
  helper.join();
}
