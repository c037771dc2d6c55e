#include "population.h"

#include <utility>

#include "core/workload.h"
#include "hashing/random.h"

namespace setrec::perf {
namespace {

// Population sizes. Members are reused round-robin by the closed loops:
// reuse cannot hit any cache, because the memo keys on the server set and
// the fresh-ssru server sets are never registered.
constexpr size_t kMixedClients = 1000;
constexpr size_t kFreshServers = 512;

/// Bob's copy of `server`: `d` single-element edits alternating between
/// dropping an existing element and adding one from a range the server's
/// universe never uses, so no edit cancels another.
SetOfSets Drift(const SetOfSets& server, size_t d, Rng* rng) {
  SetOfSets bob = server;
  for (size_t edit = 0; edit < d; ++edit) {
    ChildSet& victim = bob[rng->NextU64() % bob.size()];
    if (edit % 2 == 0 && victim.size() > 1) {
      victim.erase(victim.begin() +
                   static_cast<ptrdiff_t>(rng->NextU64() % victim.size()));
    } else {
      victim.push_back((1ull << 42) + (rng->NextU64() & 0xfffff));
    }
  }
  return Canonicalize(std::move(bob));
}

SsrProtocolKind MixKind(size_t index) {
  static constexpr SsrProtocolKind kMix[10] = {
      SsrProtocolKind::kNaive,      SsrProtocolKind::kNaive,
      SsrProtocolKind::kNaive,      SsrProtocolKind::kIblt2,
      SsrProtocolKind::kIblt2,      SsrProtocolKind::kIblt2,
      SsrProtocolKind::kIblt2,      SsrProtocolKind::kCascade,
      SsrProtocolKind::kCascade,    SsrProtocolKind::kMultiRound};
  return kMix[index % 10];
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"mixed-inproc", "mixed-tcp", "fresh-ssru"};
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "mixed-inproc" || name == "mixed-tcp") {
    spec.servers = 1;
    spec.clients_per_server = tiny ? 40 : kMixedClients;
    spec.children = 64;
    spec.child_size = 8;
    spec.drift = 2;
    spec.known_d = true;
    spec.inflight = tiny ? 16 : 256;
    spec.tcp_clients = name == "mixed-tcp" ? 2 : 0;
    return spec;
  }
  if (name == "fresh-ssru") {
    spec.servers = tiny ? 8 : kFreshServers;
    spec.clients_per_server = 1;
    spec.children = tiny ? 64 : 256;
    spec.child_size = tiny ? 8 : 16;
    spec.drift = tiny ? 4 : 8;
    spec.known_d = false;
    spec.inflight = tiny ? 8 : 64;
    return spec;
  }
  return std::nullopt;
}

Population MakePopulation(const WorkloadSpec& spec, uint64_t seed) {
  Population pop;
  pop.params.max_child_size = spec.child_size + spec.drift + 2;
  pop.params.max_children = spec.children + spec.drift;
  pop.params.seed = Mix64(seed ^ 0x7075626c6963ull);  // "public"
  if (spec.known_d) pop.known_d = spec.drift + 2;

  Rng rng(Mix64(seed ^ 0x706f70756cull));  // "popul"
  pop.servers.reserve(spec.servers);
  pop.members.reserve(spec.servers * spec.clients_per_server);
  for (size_t s = 0; s < spec.servers; ++s) {
    SsrWorkloadSpec base;
    base.num_children = spec.children;
    base.child_size = spec.child_size;
    base.changes = 0;
    base.seed = rng.NextU64();
    auto server = std::make_shared<const SetOfSets>(
        Canonicalize(MakeSsrWorkload(base).alice));
    for (size_t c = 0; c < spec.clients_per_server; ++c) {
      Member member;
      member.server = s;
      member.client = std::make_shared<const SetOfSets>(
          Drift(*server, spec.drift, &rng));
      member.kind = MixKind(pop.members.size());
      pop.members.push_back(std::move(member));
    }
    pop.servers.push_back(std::move(server));
  }
  return pop;
}

}  // namespace setrec::perf
