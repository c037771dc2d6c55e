#ifndef SETREC_CORE_ENCODING_H_
#define SETREC_CORE_ENCODING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "iblt/iblt.h"
#include "util/status.h"

namespace setrec {

/// Fixed-width byte encodings of child sets and of (child IBLT, hash)
/// pairs. Outer IBLTs treat these blobs as keys, so every child encoding
/// under the same protocol parameters must have identical width.

/// Width of a direct child-set blob for child sets of up to `h` elements:
/// a u32 count, h little-endian u64 elements (zero padded).
size_t ChildBlobWidth(size_t h);

/// Writes `child` (sorted, size <= h) as a ChildBlobWidth(h) blob to `out`.
void WriteChildBlob(const ChildSet& child, size_t h, uint8_t* out);

/// Owning form of WriteChildBlob.
std::vector<uint8_t> EncodeChildBlob(const ChildSet& child, size_t h);

/// Inverse of EncodeChildBlob; validates count, ordering and padding. The
/// (data, size) form parses straight out of a decode-view arena without an
/// owning copy; the convenience overloads delegate to it.
Result<ChildSet> DecodeChildBlob(const uint8_t* data, size_t size, size_t h);
inline Result<ChildSet> DecodeChildBlob(const std::vector<uint8_t>& blob,
                                        size_t h) {
  return DecodeChildBlob(blob.data(), blob.size(), h);
}
inline Result<ChildSet> DecodeChildBlob(const IbltKeyView& blob, size_t h) {
  return DecodeChildBlob(blob.data, blob.size, h);
}

/// Width of an (IBLT, fingerprint) encoding blob for the given child IBLT
/// config: the fixed IBLT serialization plus 8 fingerprint bytes.
size_t ChildIbltBlobWidth(const IbltConfig& child_config);

/// A parsed child encoding: the child's IBLT sketch plus its fingerprint.
struct ChildEncoding {
  Iblt sketch;
  uint64_t fingerprint;
};

/// Writes the (child IBLT, hash) encoding of Algorithms 1 and 2 to `out`
/// (ChildIbltBlobWidth bytes): the child's elements in a fixed-width IBLT
/// with `child_config`, then its fingerprint. No table is built, so the
/// protocols write each level's encodings in place into one packed buffer
/// outside the service planner; only the outer-table update goes through it.
void WriteChildIbltBlob(const ChildSet& child, const IbltConfig& child_config,
                        uint64_t fingerprint, uint8_t* out);

/// Owning form of WriteChildIbltBlob.
std::vector<uint8_t> EncodeChildIbltBlob(const ChildSet& child,
                                         const IbltConfig& child_config,
                                         uint64_t fingerprint);

/// Recovers Alice's child behind `encoding` by decoding it against
/// `partner_sketch` (the sketch of `partner_set`: a differing child of
/// Bob's, or the empty set) and applying the difference to `partner_set`;
/// fails unless the result matches the encoding's fingerprint.
Result<ChildSet> RecoverChild(const ChildEncoding& encoding,
                              const Iblt& partner_sketch,
                              const ChildSet& partner_set,
                              const HashFamily& fp_family,
                              DecodeScratch* scratch);

/// Parses a blob produced by WriteChildIbltBlob. The (data, size) form
/// reads straight out of a decode-view arena.
Result<ChildEncoding> ParseChildIbltBlob(const uint8_t* data, size_t size,
                                         const IbltConfig& child_config);
inline Result<ChildEncoding> ParseChildIbltBlob(
    const std::vector<uint8_t>& blob, const IbltConfig& child_config) {
  return ParseChildIbltBlob(blob.data(), blob.size(), child_config);
}
inline Result<ChildEncoding> ParseChildIbltBlob(
    const IbltKeyView& blob, const IbltConfig& child_config) {
  return ParseChildIbltBlob(blob.data, blob.size, child_config);
}

}  // namespace setrec

#endif  // SETREC_CORE_ENCODING_H_
