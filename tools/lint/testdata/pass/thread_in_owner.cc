// LINT-TEST-PATH: src/service/sharded_service.h
// LINT-TEST: expect-clean
//
// The shard drivers own one thread per shard by design; a whitelist entry
// covers both the header and the .cc of its unit.

#include <thread>

struct Shard {
  std::thread thread;
};
