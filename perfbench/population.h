#ifndef SETREC_PERFBENCH_POPULATION_H_
#define SETREC_PERFBENCH_POPULATION_H_

// The one population generator every workload draws from. The code under
// test receives only the sets and parameters built here; the workload seed
// decides every element and the public coins.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "service/sync_service.h"

namespace setrec::perf {

/// Shape of one workload's population and of its closed loop.
struct WorkloadSpec {
  std::string name;
  /// Distinct server sets. 1 = one set registered with the service (the
  /// memo read path); >1 = a fresh unregistered set per client.
  size_t servers = 1;
  /// Client sets per server set.
  size_t clients_per_server = 1;
  size_t children = 64;    ///< s
  size_t child_size = 8;   ///< h
  size_t drift = 2;        ///< d: element edits from server to client.
  bool known_d = true;     ///< SSRK when true, SSRU (estimators) when false.
  /// In-process loop: sessions the bench thread keeps in flight.
  size_t inflight = 512;
  /// TCP loop: client threads, each holding one connection at a time
  /// (0 = in-process workload).
  size_t tcp_clients = 0;
};

/// The named workloads (mixed-inproc, mixed-tcp, fresh-ssru); `tiny`
/// shrinks sizes for the self-test.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);
std::vector<std::string> WorkloadNames();

/// One population member: a client set, the server set it reconciles
/// against, and the protocol it runs.
struct Member {
  size_t server = 0;
  std::shared_ptr<const SetOfSets> client;
  SsrProtocolKind kind = SsrProtocolKind::kNaive;
};

struct Population {
  /// Canonical server sets (Alice): the expected recovery of every member.
  std::vector<std::shared_ptr<const SetOfSets>> servers;
  std::vector<Member> members;
  SsrParams params;
  std::optional<size_t> known_d;
};

/// Builds the population for `spec` from `seed`. The protocol mix is
/// naive:3, iblt2:4, cascade:2, multiround:1, assigned by member index so
/// every seed runs the same mix.
Population MakePopulation(const WorkloadSpec& spec, uint64_t seed);

}  // namespace setrec::perf

#endif  // SETREC_PERFBENCH_POPULATION_H_
