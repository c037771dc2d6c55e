#ifndef SETREC_PERFBENCH_LAYERS_H_
#define SETREC_PERFBENCH_LAYERS_H_

// The direct run and the layer replays. The direct run drives every
// population member through SetsOfSetsProtocol::ReconcileAsync under a
// benchmark-owned InlineContext subclass; it is both the reference the
// closed loops are checked against (transcripts are bit-identical across
// the direct, service and socket paths for fixed seeds) and, when
// instrumented, the source of the core / iblt / estimator layer counters.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "iblt/iblt.h"
#include "population.h"
#include "transport/channel.h"

namespace setrec::perf {

/// What one member's session must produce on every path.
struct Reference {
  /// Status OK and Bob's recovery equals the canonical server set.
  bool ok = false;
  uint64_t bytes = 0;
  uint64_t rounds = 0;
};

/// Layer counters summed over the direct run's sessions.
struct CoreCounters {
  size_t sessions = 0;
  uint64_t compute_ns = 0;
  uint64_t attempts = 0;
  uint64_t decode_failures = 0;
  uint64_t retry_rounds = 0;
  /// Time and keys inside Queue{Insert,Erase}{U64,Bytes}, and the cells of
  /// the tables those ops built.
  uint64_t build_ns = 0;
  uint64_t build_keys = 0;
  uint64_t build_cells = 0;
  /// Elements and time inside QueueL0Update / QueueStrataUpdate.
  uint64_t estimator_updates = 0;
  uint64_t estimator_ns = 0;
};

/// One table a session built through the context: its geometry and the
/// keys of the op that built it. Every protocol builds each table with a
/// single Queue op (an insert on the sender's side, an erase of the
/// receiver's keys from the parsed peer table), so one op is one table.
struct CapturedTable {
  IbltConfig config;
  int32_t delta = +1;
  size_t n = 0;
  std::vector<uint64_t> u64_keys;  ///< Set for U64 ops.
  std::vector<uint8_t> byte_keys;  ///< Set for byte-key ops.
};

struct CapturedSession {
  std::vector<CapturedTable> tables;
  std::vector<Channel::Message> transcript;
};

struct DirectRun {
  std::vector<Reference> refs;  ///< Indexed like Population::members.
  CoreCounters counters;        ///< Zero unless instrumented.
  std::vector<CapturedSession> captured;
};

/// Runs every member once, in member order, for the references. With
/// `instrument`, that bare pass also gives the compute time, a second pass
/// times the context hooks, and a third records the tables and transcripts
/// of the first `capture_sessions` members for the replays.
DirectRun RunDirect(const Population& pop, bool instrument,
                    size_t capture_sessions);

struct IbltReplay {
  uint64_t decode_ns = 0;
  uint64_t decoded_keys = 0;
  uint64_t encode_ns = 0;
  uint64_t encoded_bytes = 0;
  uint64_t parse_ns = 0;
  uint64_t parsed_bytes = 0;
  bool parse_ok = true;  ///< Every table re-parsed to itself.
};

/// Rebuilds the captured tables and times Subtract + Decode(DecodeScratch*)
/// on the differences the protocols decode, and SerializeWith /
/// DeserializeWith under `codec`; whole passes repeat until `min_ns` of
/// wall time has passed (at most 20).
///
/// Pairing: within a session, tables of one geometry are split in capture
/// order into a first and a second half (Alice builds before Bob in the
/// direct run), and table i is subtracted from table i + half. An erase
/// (Bob erasing his keys from Alice's parsed table) is rebuilt as an
/// insert, so the pair's difference is the one Bob decoded. Pairs whose
/// difference is empty are skipped, as the protocols skip them; only
/// decodes that succeed are counted.
IbltReplay ReplayIblt(const std::vector<CapturedSession>& sessions,
                      WireCodec codec, uint64_t min_ns);

struct FrameReplay {
  uint64_t ns = 0;
  uint64_t bytes = 0;
  uint64_t frames = 0;
  bool ok = true;  ///< Every written frame parsed back, nothing left over.
};

/// Writes the captured transcripts with WriteMessageFrame and times
/// FrameDecoder::Feed/Next over them in 64 KiB chunks (the client's read
/// size), repeating until `min_ns` has been measured.
FrameReplay ReplayFrames(const std::vector<CapturedSession>& sessions,
                         uint64_t min_ns);

}  // namespace setrec::perf

#endif  // SETREC_PERFBENCH_LAYERS_H_
