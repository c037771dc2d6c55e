#include "core/encoding.h"

#include <cassert>
#include <cstring>

#include "setrec/set_reconciler.h"
#include "util/serialization.h"

namespace setrec {

size_t ChildBlobWidth(size_t h) { return 4 + 8 * h; }

void WriteChildBlob(const ChildSet& child, size_t h, uint8_t* out) {
  assert(child.size() <= h);
  uint32_t count = static_cast<uint32_t>(child.size());
  std::memcpy(out, &count, 4);
  if (!child.empty()) std::memcpy(out + 4, child.data(), 8 * child.size());
  std::memset(out + 4 + 8 * child.size(), 0, 8 * (h - child.size()));
}

std::vector<uint8_t> EncodeChildBlob(const ChildSet& child, size_t h) {
  std::vector<uint8_t> blob(ChildBlobWidth(h));
  WriteChildBlob(child, h, blob.data());
  return blob;
}

Result<ChildSet> DecodeChildBlob(const uint8_t* data, size_t size, size_t h) {
  if (size != ChildBlobWidth(h)) {
    return ParseError("child blob has unexpected width");
  }
  uint32_t count = 0;
  std::memcpy(&count, data, 4);
  if (count > h) return ParseError("child blob count exceeds h");
  ChildSet child(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&child[i], data + 4 + 8 * i, 8);
    if (i > 0 && child[i] <= child[i - 1]) {
      return ParseError("child blob not sorted/unique");
    }
  }
  for (size_t i = 4 + 8 * static_cast<size_t>(count); i < size; ++i) {
    if (data[i] != 0) return ParseError("child blob has nonzero padding");
  }
  return child;
}

size_t ChildIbltBlobWidth(const IbltConfig& child_config) {
  return child_config.FixedSerializedSize() + 8;
}

void WriteChildIbltBlob(const ChildSet& child, const IbltConfig& child_config,
                        uint64_t fingerprint, uint8_t* out) {
  Iblt::WriteFixedU64(child_config, child.data(), child.size(), out);
  std::memcpy(out + child_config.FixedSerializedSize(), &fingerprint, 8);
}

std::vector<uint8_t> EncodeChildIbltBlob(const ChildSet& child,
                                         const IbltConfig& child_config,
                                         uint64_t fingerprint) {
  std::vector<uint8_t> blob(ChildIbltBlobWidth(child_config));
  WriteChildIbltBlob(child, child_config, fingerprint, blob.data());
  return blob;
}

Result<ChildEncoding> ParseChildIbltBlob(const uint8_t* data, size_t size,
                                         const IbltConfig& child_config) {
  if (size != ChildIbltBlobWidth(child_config)) {
    return ParseError("child IBLT blob has unexpected width");
  }
  ByteReader reader(data, size);
  Result<Iblt> sketch = Iblt::DeserializeFixed(&reader, child_config);
  if (!sketch.ok()) return sketch.status();
  uint64_t fingerprint = 0;
  if (!reader.GetU64(&fingerprint)) {
    return ParseError("child IBLT blob truncated (fingerprint)");
  }
  return ChildEncoding{std::move(sketch).value(), fingerprint};
}

Result<ChildSet> RecoverChild(const ChildEncoding& encoding,
                              const Iblt& partner_sketch,
                              const ChildSet& partner_set,
                              const HashFamily& fp_family,
                              DecodeScratch* scratch) {
  // ApplyDifference sorts its own copies: the views are used as decoded.
  Iblt diff = encoding.sketch;
  if (Status s = diff.Subtract(partner_sketch); !s.ok()) return s;
  Result<IbltDecodeView64> decoded = diff.DecodeU64View(scratch);
  if (!decoded.ok()) return decoded.status();
  ChildSet candidate = ApplyDifference(partner_set, decoded.value().positive,
                                       decoded.value().negative);
  if (ChildFingerprint(candidate, fp_family) != encoding.fingerprint) {
    return VerificationFailure("child fingerprint mismatch");
  }
  return candidate;
}

}  // namespace setrec
