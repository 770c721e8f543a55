#include "util/binio.h"

#include <cstring>

#include "util/string_util.h"

namespace sciborq {

// -- BinaryWriter -----------------------------------------------------------

void BinaryWriter::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(bytes, 4);
}

void BinaryWriter::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(bytes, 8);
}

void BinaryWriter::PutF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void BinaryWriter::PutRaw(const void* data, size_t n) {
  // Empty vectors hand their (possibly null) data() straight here; append
  // with a null pointer is formally UB even for n == 0.
  if (n == 0) return;
  buf_.append(static_cast<const char*>(data), n);
}

// -- BinaryReader -----------------------------------------------------------

Result<uint8_t> BinaryReader::ReadU8() {
  if (remaining() < 1) {
    return Status::InvalidArgument("wire: truncated message (need 1 byte)");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<bool> BinaryReader::ReadBool() {
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t b, ReadU8());
  if (b > 1) {
    return Status::InvalidArgument(
        StrFormat("wire: bool byte must be 0/1, got %u", b));
  }
  return b == 1;
}

Result<uint32_t> BinaryReader::ReadU32() {
  if (remaining() < 4) {
    return Status::InvalidArgument("wire: truncated message (need 4 bytes)");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  if (remaining() < 8) {
    return Status::InvalidArgument("wire: truncated message (need 8 bytes)");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> BinaryReader::ReadI64() {
  SCIBORQ_ASSIGN_OR_RETURN(const uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> BinaryReader::ReadF64() {
  SCIBORQ_ASSIGN_OR_RETURN(const uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t len, ReadU32());
  if (static_cast<int64_t>(len) > remaining()) {
    return Status::InvalidArgument(
        StrFormat("wire: string length %u exceeds the %lld remaining bytes",
                  len, static_cast<long long>(remaining())));
  }
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

Result<std::string_view> BinaryReader::ReadRaw(size_t n) {
  if (static_cast<int64_t>(n) > remaining()) {
    return Status::InvalidArgument(
        StrFormat("wire: %zu raw bytes requested, %lld remain", n,
                  static_cast<long long>(remaining())));
  }
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

Result<uint32_t> BinaryReader::ReadCount(int64_t min_bytes_each,
                                         const char* what) {
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t count, ReadU32());
  SCIBORQ_RETURN_NOT_OK(CheckCount(count, min_bytes_each, what));
  return count;
}

Status BinaryReader::CheckCount(int64_t count, int64_t min_bytes_each,
                                const char* what) const {
  if (count < 0) {
    return Status::InvalidArgument(StrFormat(
        "decode: negative %s count %lld", what, static_cast<long long>(count)));
  }
  if (min_bytes_each > 0 && count > remaining() / min_bytes_each) {
    return Status::InvalidArgument(StrFormat(
        "decode: %s count %lld exceeds what the %lld remaining bytes could "
        "hold",
        what, static_cast<long long>(count),
        static_cast<long long>(remaining())));
  }
  return Status::OK();
}

Status BinaryReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("wire: %lld trailing byte(s) after message",
                  static_cast<long long>(remaining())));
  }
  return Status::OK();
}

}  // namespace sciborq
