// Golden transcripts: pins the exact wire bytes of every set-of-sets
// protocol. Each row is one direct (inline-context) session: 4 protocols x
// SSRK/SSRU x dense/sparse wire codec x 12 workload seeds = 192 sessions on
// small MakeSsrWorkload shapes (s 50..100, h 8..16, d 1..9). A row records
// HashTranscript (senders, labels and payload bytes of every message) and
// the channel's total_bytes, and every session must recover Alice's set.
//
// Any change to a table layout, hash derivation, sizing rule, seed schedule
// or message order shows up here as a hash mismatch. Regenerate the table
// ONLY for an intended wire change: run
//   ./transcript_golden_test --gtest_also_run_disabled_tests
//   --gtest_filter='*DISABLED_PrintTable'
// (one command) and paste its output over kGolden below. A refactor or
// speed-up that claims bit-identical output must pass against the existing
// table unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/cascading_protocol.h"
#include "core/iblt_of_iblts.h"
#include "core/multiround_protocol.h"
#include "core/naive_protocol.h"
#include "core/protocol.h"
#include "core/workload.h"
#include "service/sync_service.h"

namespace setrec {
namespace {

constexpr int kProtocols = 4;  // naive, iblt2, cascade, multiround.
constexpr int kSeeds = 12;

struct GoldenRow {
  int protocol;
  bool known_d;
  WireCodec codec;
  uint64_t seed;
  uint64_t transcript_hash;
  size_t total_bytes;
};

std::unique_ptr<SetsOfSetsProtocol> MakeProtocol(int protocol,
                                                 const SsrParams& params) {
  switch (protocol) {
    case 0: return std::make_unique<NaiveProtocol>(params);
    case 1: return std::make_unique<IbltOfIbltsProtocol>(params);
    case 2: return std::make_unique<CascadingProtocol>(params);
    default: return std::make_unique<MultiRoundProtocol>(params);
  }
}

struct SessionResult {
  bool recovered_alice = false;
  uint64_t transcript_hash = 0;
  size_t total_bytes = 0;
};

/// Workload shape of each seed's row: children s, child size h, element
/// changes d, and children the changes are concentrated on (0 = spread).
struct Shape {
  size_t s, h, d, touched;
};
constexpr Shape kShapes[kSeeds] = {
    {50, 8, 1, 0},  {64, 12, 3, 0}, {100, 16, 9, 0}, {72, 8, 9, 0},
    {90, 10, 5, 2}, {56, 16, 2, 1}, {80, 9, 9, 0},   {60, 14, 6, 3},
    {96, 11, 4, 0}, {50, 16, 7, 0}, {75, 8, 9, 2},   {100, 13, 1, 1},
};

/// Runs one session of the grid; `seed` is 1..kSeeds.
SessionResult RunSession(int protocol, bool known_d, WireCodec codec,
                         uint64_t seed) {
  const Shape& shape = kShapes[seed - 1];
  SsrWorkloadSpec spec;
  spec.num_children = shape.s;
  spec.child_size = shape.h;
  spec.changes = shape.d;
  spec.touched_children = shape.touched;
  spec.seed = 0x676f6c64ull + seed;  // "gold"
  SsrWorkload w = MakeSsrWorkload(spec);

  // h is the tightest valid bound, the largest child on either side, so
  // rows with d >= h make the cascade append its direct table T*.
  SsrParams params;
  for (const SetOfSets* side : {&w.alice, &w.bob}) {
    for (const ChildSet& child : *side) {
      params.max_child_size = std::max(params.max_child_size, child.size());
    }
  }
  params.max_children = spec.num_children + spec.changes;
  params.seed = spec.seed * 3 + 1;
  params.wire_codec = codec;
  std::unique_ptr<SetsOfSetsProtocol> p = MakeProtocol(protocol, params);

  Channel channel;
  std::optional<size_t> d =
      known_d ? std::optional<size_t>(w.applied_changes) : std::nullopt;
  Result<SsrOutcome> outcome = p->Reconcile(w.alice, w.bob, d, &channel);
  SessionResult result;
  result.recovered_alice =
      outcome.ok() && outcome.value().recovered == Canonicalize(w.alice);
  result.transcript_hash = HashTranscript(channel);
  result.total_bytes = channel.total_bytes();
  return result;
}

// {protocol, SSRK, codec, seed, HashTranscript, total_bytes}. Generated on
// the tree that still built a per-child Iblt and serialized it with
// SerializeFixed, before child encodings were written in place, so it pins
// the wire format that change had to preserve.
constexpr GoldenRow kGolden[] = {
    {0, true, WireCodec::kDense, 1, 0x3c2599ece5226acbull, 1369},
    {0, true, WireCodec::kDense, 2, 0xe715688e1a3480e2ull, 2349},
    {0, true, WireCodec::kDense, 3, 0x323099998ccb0f0eull, 6565},
    {0, true, WireCodec::kDense, 4, 0x2de459d73ccfbfbaull, 3749},
    {0, true, WireCodec::kDense, 5, 0x40db5a84c5bbe8a4ull, 3285},
    {0, true, WireCodec::kDense, 6, 0xaac7f453a1e01da6ull, 2265},
    {0, true, WireCodec::kDense, 7, 0x50a05c6c38b90dd3ull, 4453},
    {0, true, WireCodec::kDense, 8, 0xa01b9b953358a929ull, 4009},
    {0, true, WireCodec::kDense, 9, 0x22cfe267ac373dd7ull, 2625},
    {0, true, WireCodec::kDense, 10, 0x91ef6e40f98a68f2ull, 5373},
    {0, true, WireCodec::kDense, 11, 0x7112c3173a4f89ecull, 3749},
    {0, true, WireCodec::kDense, 12, 0x9b4547e99b6a9a9cull, 1881},
    {0, true, WireCodec::kSparse, 1, 0x51694ef982d19df6ull, 877},
    {0, true, WireCodec::kSparse, 2, 0xe16b096c93570938ull, 1488},
    {0, true, WireCodec::kSparse, 3, 0x064b28bfce62b2beull, 4152},
    {0, true, WireCodec::kSparse, 4, 0xe965f4afe0b1c0e5ull, 2407},
    {0, true, WireCodec::kSparse, 5, 0x30abff23e2bbc0a7ull, 1877},
    {0, true, WireCodec::kSparse, 6, 0x995d19ad825bbf6bull, 1478},
    {0, true, WireCodec::kSparse, 7, 0x16ef95eee29d3b53ull, 2672},
    {0, true, WireCodec::kSparse, 8, 0xa5c61e19c3a86af3ull, 2626},
    {0, true, WireCodec::kSparse, 9, 0xd2e23cf4538790ccull, 1656},
    {0, true, WireCodec::kSparse, 10, 0x5f8e427fa22442b5ull, 3387},
    {0, true, WireCodec::kSparse, 11, 0xea191a705d2ab7d3ull, 2358},
    {0, true, WireCodec::kSparse, 12, 0x6b3ce716189df34dull, 1240},
    {0, false, WireCodec::kDense, 1, 0x7a5bd2fd7e245187ull, 10330},
    {0, false, WireCodec::kDense, 2, 0x8d9f3f8e62bd5bd1ull, 12714},
    {0, false, WireCodec::kDense, 3, 0x3701e0b16882fa19ull, 20890},
    {0, false, WireCodec::kDense, 4, 0x3ae873fb0037cfe7ull, 16110},
    {0, false, WireCodec::kDense, 5, 0x0cc3a93577085c8bull, 11778},
    {0, false, WireCodec::kDense, 6, 0x3b228089d96435e2ull, 11226},
    {0, false, WireCodec::kDense, 7, 0x08257007255b61a2ull, 16242},
    {0, false, WireCodec::kDense, 8, 0x35ce7a2a0da76932ull, 11970},
    {0, false, WireCodec::kDense, 9, 0x6bc60adefdeaf46eull, 13330},
    {0, false, WireCodec::kDense, 10, 0xe1507fea36eaddbeull, 17314},
    {0, false, WireCodec::kDense, 11, 0x2dec7807f6c9edd3ull, 11010},
    {0, false, WireCodec::kDense, 12, 0xb24424f362349e27ull, 10842},
    {0, false, WireCodec::kSparse, 1, 0xa49ce5ab8365e000ull, 9838},
    {0, false, WireCodec::kSparse, 2, 0xc2b7cc3b07c1c2a6ull, 11322},
    {0, false, WireCodec::kSparse, 3, 0x8c65ca23a464681eull, 16356},
    {0, false, WireCodec::kSparse, 4, 0xd1e202d50eb95474ull, 13281},
    {0, false, WireCodec::kSparse, 5, 0x49b3cbaadb71ff53ull, 10575},
    {0, false, WireCodec::kSparse, 6, 0xde3db115b2ae081aull, 10439},
    {0, false, WireCodec::kSparse, 7, 0x84df2124b431c138ull, 13154},
    {0, false, WireCodec::kSparse, 8, 0x871927cb0cd7ec1dull, 10936},
    {0, false, WireCodec::kSparse, 9, 0xd6d68b08c289fa06ull, 11703},
    {0, false, WireCodec::kSparse, 10, 0x7e24a5b36c128378ull, 13991},
    {0, false, WireCodec::kSparse, 11, 0x48440e5c99544f11ull, 10258},
    {0, false, WireCodec::kSparse, 12, 0x301086060c2d5b5full, 10201},
    {1, true, WireCodec::kDense, 1, 0x644ad993ad3897e2ull, 5401},
    {1, true, WireCodec::kDense, 2, 0x390638e7fff05308ull, 6749},
    {1, true, WireCodec::kDense, 3, 0x6d8024799eb770c9ull, 25397},
    {1, true, WireCodec::kDense, 4, 0x20226a6fccd18b30ull, 25397},
    {1, true, WireCodec::kDense, 5, 0xc609a20f241f1a67ull, 11685},
    {1, true, WireCodec::kDense, 6, 0x6f904b3fac034d59ull, 5401},
    {1, true, WireCodec::kDense, 7, 0x8ee4a26f05a9f390ull, 25397},
    {1, true, WireCodec::kDense, 8, 0x5bc7e85204227570ull, 13353},
    {1, true, WireCodec::kDense, 9, 0x9d91852f61e2461eull, 8097},
    {1, true, WireCodec::kDense, 10, 0x9490fe021aefcba9ull, 17901},
    {1, true, WireCodec::kDense, 11, 0x93a984962cc3d246ull, 25397},
    {1, true, WireCodec::kDense, 12, 0xc121547eaca8d4e8ull, 5401},
    {1, true, WireCodec::kSparse, 1, 0xf4b1c43660df3e7eull, 4236},
    {1, true, WireCodec::kSparse, 2, 0xf92d6dc7b69f78bbull, 5304},
    {1, true, WireCodec::kSparse, 3, 0x42b63860553bfc07ull, 19750},
    {1, true, WireCodec::kSparse, 4, 0x5eca78dee091bf85ull, 19474},
    {1, true, WireCodec::kSparse, 5, 0x4852711cf3b67348ull, 9126},
    {1, true, WireCodec::kSparse, 6, 0x39c55efefdb07127ull, 4251},
    {1, true, WireCodec::kSparse, 7, 0xd7ad78a87c476c6aull, 19635},
    {1, true, WireCodec::kSparse, 8, 0x81ec5f27171df435ull, 10440},
    {1, true, WireCodec::kSparse, 9, 0xb0c75222305c27b6ull, 6363},
    {1, true, WireCodec::kSparse, 10, 0xaaa96f557a202f86ull, 13540},
    {1, true, WireCodec::kSparse, 11, 0xf7451378fc6a18e1ull, 19504},
    {1, true, WireCodec::kSparse, 12, 0x7875eeee1bb09f28ull, 4240},
    {1, false, WireCodec::kDense, 1, 0xedcd0318cb270facull, 5401},
    {1, false, WireCodec::kDense, 2, 0xa0f3f994a1d3ffd3ull, 5401},
    {1, false, WireCodec::kDense, 3, 0xa3379c99608f6639ull, 38917},
    {1, false, WireCodec::kDense, 4, 0x426ca3dcbc90e98full, 38917},
    {1, false, WireCodec::kDense, 5, 0xbe88b482ab64288eull, 5401},
    {1, false, WireCodec::kDense, 6, 0x5de4205429292f57ull, 5401},
    {1, false, WireCodec::kDense, 7, 0x8ca3a6b92dd0720aull, 18985},
    {1, false, WireCodec::kDense, 8, 0xb737062bcb49a0b5ull, 5401},
    {1, false, WireCodec::kDense, 9, 0x66b60ee25f94e8f5ull, 10845},
    {1, false, WireCodec::kDense, 10, 0x689dfc873d06c445ull, 18985},
    {1, false, WireCodec::kDense, 11, 0xa1d92660bb63a45dull, 5401},
    {1, false, WireCodec::kDense, 12, 0x6b057d517fecc65eull, 5401},
    {1, false, WireCodec::kSparse, 1, 0x61c81ca9096fcb7aull, 4250},
    {1, false, WireCodec::kSparse, 2, 0xb5de7c5bd63e5333ull, 4242},
    {1, false, WireCodec::kSparse, 3, 0xb3e15f119f423db6ull, 30508},
    {1, false, WireCodec::kSparse, 4, 0xcac68d3462d4e847ull, 30365},
    {1, false, WireCodec::kSparse, 5, 0x3e79ac7e0a1f81a1ull, 4246},
    {1, false, WireCodec::kSparse, 6, 0x73aeb18fda12ebcfull, 4263},
    {1, false, WireCodec::kSparse, 7, 0x51e64e155e019ebbull, 14918},
    {1, false, WireCodec::kSparse, 8, 0xe5c48b76b1bad8e2ull, 4253},
    {1, false, WireCodec::kSparse, 9, 0x7a238dba47adb734ull, 8529},
    {1, false, WireCodec::kSparse, 10, 0x5ad0ad9a5f83c394ull, 14957},
    {1, false, WireCodec::kSparse, 11, 0xa844a3ee742ac601ull, 4246},
    {1, false, WireCodec::kSparse, 12, 0x07d539382ece4276ull, 4243},
    {2, true, WireCodec::kDense, 1, 0x0e55046bc7a23c7full, 2888},
    {2, true, WireCodec::kDense, 2, 0xaacea65f685def41ull, 4965},
    {2, true, WireCodec::kDense, 3, 0x0fb256cf0b913a27ull, 24681},
    {2, true, WireCodec::kDense, 4, 0x73a1f6811f360ee0ull, 26381},
    {2, true, WireCodec::kDense, 5, 0x57943a2a37d6dec7ull, 11841},
    {2, true, WireCodec::kDense, 6, 0x3ae3f8640ab17cecull, 2133},
    {2, true, WireCodec::kDense, 7, 0x5350c4fc907dcc9dull, 24681},
    {2, true, WireCodec::kDense, 8, 0xfe3edb4e64cc6858ull, 12549},
    {2, true, WireCodec::kDense, 9, 0xbbdd0dcd856e748full, 6381},
    {2, true, WireCodec::kDense, 10, 0x67ef9796b9787f75ull, 16593},
    {2, true, WireCodec::kDense, 11, 0x784cf3e58518766bull, 26381},
    {2, true, WireCodec::kDense, 12, 0xba00301334ce0c5full, 1425},
    {2, true, WireCodec::kSparse, 1, 0x77cb4025c2c39ccaull, 2328},
    {2, true, WireCodec::kSparse, 2, 0x03195d969db69109ull, 3998},
    {2, true, WireCodec::kSparse, 3, 0xe5fa3ed3ced6f650ull, 19560},
    {2, true, WireCodec::kSparse, 4, 0xfe6f82f556c657cdull, 20644},
    {2, true, WireCodec::kSparse, 5, 0x68538fdd3c809ae7ull, 9464},
    {2, true, WireCodec::kSparse, 6, 0x58f5fcbe8abb1d10ull, 1717},
    {2, true, WireCodec::kSparse, 7, 0xe2c5512c80ab2e3aull, 19535},
    {2, true, WireCodec::kSparse, 8, 0x885614bd4645336bull, 10029},
    {2, true, WireCodec::kSparse, 9, 0xe0b915dba1c390a8ull, 5149},
    {2, true, WireCodec::kSparse, 10, 0xc6e79c92bb177844ull, 13224},
    {2, true, WireCodec::kSparse, 11, 0xe814cc9261e1aed5ull, 20628},
    {2, true, WireCodec::kSparse, 12, 0xc15d8d0aa2c3ab49ull, 1145},
    {2, false, WireCodec::kDense, 1, 0xe56b8ec918934fcfull, 2133},
    {2, false, WireCodec::kDense, 2, 0xf5a9430566810275ull, 2133},
    {2, false, WireCodec::kDense, 3, 0xf35f359d9582a9d4ull, 25891},
    {2, false, WireCodec::kDense, 4, 0xbe2a07a5f8d4bb64ull, 25891},
    {2, false, WireCodec::kDense, 5, 0xf99e1c65e13f174dull, 2133},
    {2, false, WireCodec::kDense, 6, 0xa91ed99dafe8ec97ull, 2133},
    {2, false, WireCodec::kDense, 7, 0x9e2d830f234b9ca2ull, 25891},
    {2, false, WireCodec::kDense, 8, 0x9bbd1b75d38e6040ull, 2133},
    {2, false, WireCodec::kDense, 9, 0x179846e27173af44ull, 2133},
    {2, false, WireCodec::kDense, 10, 0x14256a0f4f6f1c72ull, 8552},
    {2, false, WireCodec::kDense, 11, 0x7540b851bb475c8aull, 25891},
    {2, false, WireCodec::kDense, 12, 0x18d78f770cb7f63full, 2133},
    {2, false, WireCodec::kSparse, 1, 0x405a84e4f7a8242cull, 1714},
    {2, false, WireCodec::kSparse, 2, 0x6efe1b222693ded4ull, 1718},
    {2, false, WireCodec::kSparse, 3, 0x107ff403c3744279ull, 20733},
    {2, false, WireCodec::kSparse, 4, 0x6de390eb2e28af23ull, 20671},
    {2, false, WireCodec::kSparse, 5, 0xa587fce530bfe9d8ull, 1723},
    {2, false, WireCodec::kSparse, 6, 0xede0890d1b66121full, 1718},
    {2, false, WireCodec::kSparse, 7, 0x84e09df04a4971e6ull, 20676},
    {2, false, WireCodec::kSparse, 8, 0xa442229cfee13019ull, 1725},
    {2, false, WireCodec::kSparse, 9, 0xa55ca530f3381dc5ull, 1719},
    {2, false, WireCodec::kSparse, 10, 0x3f9e91217cd0ecaaull, 6894},
    {2, false, WireCodec::kSparse, 11, 0x4add86559f6b6826ull, 20631},
    {2, false, WireCodec::kSparse, 12, 0xd91cbbe66f7856b7ull, 1719},
    {3, true, WireCodec::kDense, 1, 0x1da4ccf9aa511048ull, 1072},
    {3, true, WireCodec::kDense, 2, 0x6392cffb73280b06ull, 2719},
    {3, true, WireCodec::kDense, 3, 0x102c55f884270a99ull, 7859},
    {3, true, WireCodec::kDense, 4, 0xec801c77f5c2d01eull, 7862},
    {3, true, WireCodec::kDense, 5, 0x4a63657969738297ull, 2134},
    {3, true, WireCodec::kDense, 6, 0x4bac998a3ccd4f4full, 1072},
    {3, true, WireCodec::kDense, 7, 0x1cea5089340ea385ull, 7073},
    {3, true, WireCodec::kDense, 8, 0xbd3999febdef9edcull, 2271},
    {3, true, WireCodec::kDense, 9, 0x05ba67fb779ce72cull, 3577},
    {3, true, WireCodec::kDense, 10, 0x3b1d53dc1ebd4abaull, 5359},
    {3, true, WireCodec::kDense, 11, 0xc763389fa4585838ull, 2112},
    {3, true, WireCodec::kDense, 12, 0x4a6d07c61452484dull, 1074},
    {3, true, WireCodec::kSparse, 1, 0x10fa2d8aa255358full, 1024},
    {3, true, WireCodec::kSparse, 2, 0xc6f88c0f1e3fe9edull, 2556},
    {3, true, WireCodec::kSparse, 3, 0x43f079d0e0755403ull, 7614},
    {3, true, WireCodec::kSparse, 4, 0x304a03428be496d9ull, 7369},
    {3, true, WireCodec::kSparse, 5, 0xf32730ab11071193ull, 2018},
    {3, true, WireCodec::kSparse, 6, 0xed93ac5b96c2f52bull, 1046},
    {3, true, WireCodec::kSparse, 7, 0xe3539c6a05fc7171ull, 6664},
    {3, true, WireCodec::kSparse, 8, 0x6247df73c5ab50a7ull, 2146},
    {3, true, WireCodec::kSparse, 9, 0x6a1887952d61cc9cull, 3432},
    {3, true, WireCodec::kSparse, 10, 0xac6eba50a41a69b9ull, 5204},
    {3, true, WireCodec::kSparse, 11, 0x2cb4d1962ca033b0ull, 2016},
    {3, true, WireCodec::kSparse, 12, 0xbc1de96ea8fef95eull, 1032},
    {3, false, WireCodec::kDense, 1, 0x7366a9df5ce76e4bull, 10033},
    {3, false, WireCodec::kDense, 2, 0x1d746c44470100bfull, 11884},
    {3, false, WireCodec::kDense, 3, 0x09e95f17a2e939f3ull, 15344},
    {3, false, WireCodec::kDense, 4, 0xa9e19f47a3b189bdull, 15347},
    {3, false, WireCodec::kDense, 5, 0x23cfc92c88fb5d02ull, 11027},
    {3, false, WireCodec::kDense, 6, 0x4a11638032efbf8full, 10033},
    {3, false, WireCodec::kDense, 7, 0x3a69057a4d109a60ull, 14858},
    {3, false, WireCodec::kDense, 8, 0xa12675df62837e74ull, 11096},
    {3, false, WireCodec::kDense, 9, 0x25aa2d28028fae65ull, 12810},
    {3, false, WireCodec::kDense, 10, 0x28520588df53d1eeull, 13268},
    {3, false, WireCodec::kDense, 11, 0x5fedb59ce6890defull, 10501},
    {3, false, WireCodec::kDense, 12, 0xfe473cda217a77a0ull, 10035},
    {3, false, WireCodec::kSparse, 1, 0x65df0c04288aa613ull, 9985},
    {3, false, WireCodec::kSparse, 2, 0x299dbe1b15e1713full, 11721},
    {3, false, WireCodec::kSparse, 3, 0xbd05da280917cc4eull, 15345},
    {3, false, WireCodec::kSparse, 4, 0x1f27916a09807287ull, 15348},
    {3, false, WireCodec::kSparse, 5, 0x29e5636109d148bdull, 10911},
    {3, false, WireCodec::kSparse, 6, 0x9d82fb0729ee9fa6ull, 10007},
    {3, false, WireCodec::kSparse, 7, 0xaac293eaa961459full, 14859},
    {3, false, WireCodec::kSparse, 8, 0x550bed5dce44bdd9ull, 10971},
    {3, false, WireCodec::kSparse, 9, 0x3cd2c9f6334f832eull, 12665},
    {3, false, WireCodec::kSparse, 10, 0x41f69a5dc02ddfd7ull, 13269},
    {3, false, WireCodec::kSparse, 11, 0xa254e6e86a5a6fc0ull, 10502},
    {3, false, WireCodec::kSparse, 12, 0x5ecc3b3467f40323ull, 9993},
};

TEST(TranscriptGoldenTest, TableCoversTheWholeGrid) {
  EXPECT_EQ(std::size(kGolden),
            static_cast<size_t>(kProtocols * 2 * 2 * kSeeds));
}

TEST(TranscriptGoldenTest, EverySessionMatchesItsPinnedTranscript) {
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(testing::Message()
                 << "protocol " << row.protocol
                 << (row.known_d ? " SSRK" : " SSRU")
                 << (row.codec == WireCodec::kSparse ? " sparse" : " dense")
                 << " seed " << row.seed);
    SessionResult got =
        RunSession(row.protocol, row.known_d, row.codec, row.seed);
    EXPECT_TRUE(got.recovered_alice);
    EXPECT_EQ(got.transcript_hash, row.transcript_hash);
    EXPECT_EQ(got.total_bytes, row.total_bytes);
  }
}

// Prints kGolden's rows for the current code (see the header comment).
TEST(TranscriptGoldenTest, DISABLED_PrintTable) {
  for (int protocol = 0; protocol < kProtocols; ++protocol) {
    for (bool known_d : {true, false}) {
      for (WireCodec codec : {WireCodec::kDense, WireCodec::kSparse}) {
        for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
          SessionResult got = RunSession(protocol, known_d, codec, seed);
          ASSERT_TRUE(got.recovered_alice);
          std::printf("{%d, %s, WireCodec::%s, %" PRIu64 ", 0x%016" PRIx64
                      "ull, %zu},\n",
                      protocol, known_d ? "true" : "false",
                      codec == WireCodec::kSparse ? "kSparse" : "kDense",
                      seed, got.transcript_hash, got.total_bytes);
        }
      }
    }
  }
}

}  // namespace
}  // namespace setrec
