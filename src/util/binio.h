#ifndef SCIBORQ_UTIL_BINIO_H_
#define SCIBORQ_UTIL_BINIO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace sciborq {

/// True on little-endian hosts, where a fixed-width LE array can be bulk
/// memcpy'd instead of assembled byte by byte. The encodings themselves are
/// LE everywhere; this only selects the fast path.
inline constexpr bool kHostLittleEndian =
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;

// ---------------------------------------------------------------------------
// Binary encoding primitives shared by the wire protocol (server/wire.h) and
// the on-disk storage formats (storage/). All integers are little-endian and
// fixed-width; doubles are IEEE-754 bit patterns (NaN/Inf round-trip
// exactly); strings are u32 length + raw bytes. The encoding is bijective:
// encode(decode(encode(x))) == encode(x), which both the wire tests and the
// storage tests assert byte-for-byte.
// ---------------------------------------------------------------------------

/// Appends primitive values to a growing byte buffer.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  /// u32 length + raw bytes (embedded NULs are fine).
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix (bulk fixed-width payloads whose size the
  /// reader derives from a preceding count).
  void PutRaw(const void* data, size_t n);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked sequential reads over one decoded buffer. Every read fails
/// with InvalidArgument instead of walking off the end, so truncated or
/// hostile input surfaces as Status, never as UB.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<bool> ReadBool();  ///< rejects bytes other than 0/1
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadF64();
  Result<std::string> ReadString();
  /// A bounds-checked view of the next `n` raw bytes (the PutRaw inverse);
  /// valid while the underlying buffer lives.
  Result<std::string_view> ReadRaw(size_t n);

  /// Reads a u32 element count and rejects it unless the remaining bytes
  /// could hold that many elements of at least `min_bytes_each` bytes — the
  /// guard before reserving storage for a count a peer or a file supplies,
  /// so a hostile count fails as InvalidArgument instead of allocating.
  /// `what` names the element in the error.
  Result<uint32_t> ReadCount(int64_t min_bytes_each, const char* what);
  /// The ReadCount check for a count obtained some other way (a wider or
  /// derived count). Also rejects negative counts; `min_bytes_each` 0 checks
  /// only the sign.
  Status CheckCount(int64_t count, int64_t min_bytes_each,
                    const char* what) const;

  int64_t remaining() const {
    return static_cast<int64_t>(data_.size() - pos_);
  }
  /// InvalidArgument unless the whole buffer was consumed — trailing garbage
  /// means a framing bug or a tampered message.
  Status ExpectEnd() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace sciborq

#endif  // SCIBORQ_UTIL_BINIO_H_
