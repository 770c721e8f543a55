#include "column/serde.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "column/encoding/encoding.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

constexpr uint8_t kValueTagNull = 0;
constexpr uint8_t kValueTagInt64 = 1;
constexpr uint8_t kValueTagDouble = 2;
constexpr uint8_t kValueTagString = 3;

Result<DataType> DataTypeFromWire(uint8_t tag) {
  switch (tag) {
    case 0:
      return DataType::kInt64;
    case 1:
      return DataType::kDouble;
    case 2:
      return DataType::kString;
    default:
      return Status::InvalidArgument(
          StrFormat("wire: unknown data type tag %u", tag));
  }
}

uint8_t DataTypeToWire(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return 0;
    case DataType::kDouble:
      return 1;
    case DataType::kString:
      return 2;
  }
  return 0;  // unreachable: enum is exhaustive
}

}  // namespace

// -- Value ------------------------------------------------------------------

void EncodeValue(const Value& v, BinaryWriter* w) {
  if (v.is_null()) {
    w->PutU8(kValueTagNull);
  } else if (v.is_int64()) {
    w->PutU8(kValueTagInt64);
    w->PutI64(v.int64());
  } else if (v.is_double()) {
    w->PutU8(kValueTagDouble);
    w->PutF64(v.dbl());
  } else {
    w->PutU8(kValueTagString);
    w->PutString(v.str());
  }
}

// GCC 12 (-O2 with sanitizers) reports a spurious maybe-uninitialized on the
// string alternative inside Result<Value>'s variant when the string was
// produced by a ReadString defined in another TU; the value is always
// initialized before use (guarded by ok()).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

Result<Value> DecodeValue(BinaryReader* r) {
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t tag, r->ReadU8());
  switch (tag) {
    case kValueTagNull:
      return Value::Null();
    case kValueTagInt64: {
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t v, r->ReadI64());
      return Value(v);
    }
    case kValueTagDouble: {
      SCIBORQ_ASSIGN_OR_RETURN(const double v, r->ReadF64());
      return Value(v);
    }
    case kValueTagString: {
      SCIBORQ_ASSIGN_OR_RETURN(std::string v, r->ReadString());
      return Value(std::move(v));
    }
    default:
      return Status::InvalidArgument(
          StrFormat("wire: unknown value tag %u", tag));
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// -- Schema -----------------------------------------------------------------

void EncodeSchema(const Schema& schema, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(schema.num_fields()));
  for (const Field& field : schema.fields()) {
    w->PutString(field.name);
    w->PutU8(DataTypeToWire(field.type));
    w->PutBool(field.nullable);
  }
}

Result<Schema> DecodeSchema(BinaryReader* r) {
  // Each field needs at least a 4-byte name length + type + nullable.
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, r->ReadCount(6, "schema field"));
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Field field;
    SCIBORQ_ASSIGN_OR_RETURN(field.name, r->ReadString());
    SCIBORQ_ASSIGN_OR_RETURN(const uint8_t tag, r->ReadU8());
    SCIBORQ_ASSIGN_OR_RETURN(field.type, DataTypeFromWire(tag));
    SCIBORQ_ASSIGN_OR_RETURN(field.nullable, r->ReadBool());
    fields.push_back(std::move(field));
  }
  return Schema(std::move(fields));
}

// -- Column -----------------------------------------------------------------

void EncodeColumn(const Column& col, BinaryWriter* w) {
  w->PutU8(DataTypeToWire(col.type()));
  w->PutI64(col.size());
  const bool has_nulls = col.has_nulls();
  w->PutBool(has_nulls);
  if (has_nulls) {
    for (int64_t row = 0; row < col.size(); ++row) {
      w->PutBool(!col.IsNull(row));
    }
  }
  // Null-free numeric columns (the common science-data shape) are written
  // with one bulk copy on little-endian hosts — byte-identical to the
  // element loop, an order of magnitude faster for checkpoint throughput.
  if (kHostLittleEndian && !has_nulls && col.type() == DataType::kInt64) {
    w->PutRaw(col.data_int64().data(),
              static_cast<size_t>(col.size()) * sizeof(int64_t));
    return;
  }
  if (kHostLittleEndian && !has_nulls && col.type() == DataType::kDouble) {
    w->PutRaw(col.data_double().data(),
              static_cast<size_t>(col.size()) * sizeof(double));
    return;
  }
  for (int64_t row = 0; row < col.size(); ++row) {
    if (col.IsNull(row)) continue;
    switch (col.type()) {
      case DataType::kInt64:
        w->PutI64(col.GetInt64(row));
        break;
      case DataType::kDouble:
        w->PutF64(col.GetDouble(row));
        break;
      case DataType::kString:
        w->PutString(col.GetString(row));
        break;
    }
  }
}

Result<Column> DecodeColumn(BinaryReader* r) {
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t tag, r->ReadU8());
  SCIBORQ_ASSIGN_OR_RETURN(const DataType type, DataTypeFromWire(tag));
  SCIBORQ_ASSIGN_OR_RETURN(const int64_t size, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const bool has_nulls, r->ReadBool());
  // Minimum bytes per row: 1 validity byte when nulls are present, else the
  // smallest possible value (a 4-byte string length).
  SCIBORQ_RETURN_NOT_OK(
      r->CheckCount(size, has_nulls ? 1 : 4, "column row"));
  // Bulk fast path, mirroring EncodeColumn: a null-free numeric column is
  // one contiguous LE array.
  if (kHostLittleEndian && !has_nulls && type != DataType::kString) {
    SCIBORQ_ASSIGN_OR_RETURN(
        const std::string_view raw,
        r->ReadRaw(static_cast<size_t>(size) * sizeof(int64_t)));
    if (type == DataType::kInt64) {
      std::vector<int64_t> values(static_cast<size_t>(size));
      if (!raw.empty()) std::memcpy(values.data(), raw.data(), raw.size());
      return Column::FromInt64Vector(std::move(values));
    }
    std::vector<double> values(static_cast<size_t>(size));
    if (!raw.empty()) std::memcpy(values.data(), raw.data(), raw.size());
    return Column::FromDoubleVector(std::move(values));
  }
  Column col(type);
  col.Reserve(size);
  std::vector<uint8_t> valid;
  if (has_nulls) {
    valid.resize(static_cast<size_t>(size));
    for (int64_t row = 0; row < size; ++row) {
      SCIBORQ_ASSIGN_OR_RETURN(const bool v, r->ReadBool());
      valid[static_cast<size_t>(row)] = v ? 1 : 0;
    }
  }
  for (int64_t row = 0; row < size; ++row) {
    if (has_nulls && valid[static_cast<size_t>(row)] == 0) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kInt64: {
        SCIBORQ_ASSIGN_OR_RETURN(const int64_t v, r->ReadI64());
        col.AppendInt64(v);
        break;
      }
      case DataType::kDouble: {
        SCIBORQ_ASSIGN_OR_RETURN(const double v, r->ReadF64());
        col.AppendDouble(v);
        break;
      }
      case DataType::kString: {
        SCIBORQ_ASSIGN_OR_RETURN(std::string v, r->ReadString());
        col.AppendString(std::move(v));
        break;
      }
    }
  }
  return col;
}

// -- Column, v2 encoded pages -----------------------------------------------

namespace {

void EncodePlainChunk(const Column& col, int64_t begin, int64_t end,
                      BinaryWriter* w) {
  switch (col.type()) {
    case DataType::kInt64:
      if (kHostLittleEndian) {
        w->PutRaw(col.data_int64().data() + begin,
                  static_cast<size_t>(end - begin) * sizeof(int64_t));
        return;
      }
      for (int64_t row = begin; row < end; ++row) {
        w->PutI64(col.GetInt64(row));
      }
      return;
    case DataType::kDouble:
      if (kHostLittleEndian) {
        w->PutRaw(col.data_double().data() + begin,
                  static_cast<size_t>(end - begin) * sizeof(double));
        return;
      }
      for (int64_t row = begin; row < end; ++row) {
        w->PutF64(col.GetDouble(row));
      }
      return;
    case DataType::kString:
      for (int64_t row = begin; row < end; ++row) {
        w->PutString(col.GetString(row));
      }
      return;
  }
}

void EncodeColumnChunk(const Column& col, int64_t begin, int64_t end,
                       BinaryWriter* w) {
  const EncodedMorsel m = EncodeMorsel(col, begin, end);
  w->PutU8(static_cast<uint8_t>(m.encoding));
  switch (m.encoding) {
    case ColumnEncoding::kPlain:
      EncodePlainChunk(col, begin, end, w);
      return;
    case ColumnEncoding::kRle:
      w->PutU32(static_cast<uint32_t>(m.rle_values.size()));
      for (size_t run = 0; run < m.rle_values.size(); ++run) {
        w->PutI64(m.rle_values[run]);
        w->PutU32(static_cast<uint32_t>(m.rle_lengths[run]));
      }
      return;
    case ColumnEncoding::kFor:
      w->PutI64(m.for_reference);
      w->PutU8(m.for_bits);
      w->PutU32(static_cast<uint32_t>(m.for_words.size()));
      if (kHostLittleEndian) {
        w->PutRaw(m.for_words.data(), m.for_words.size() * sizeof(uint64_t));
      } else {
        for (const uint64_t word : m.for_words) w->PutU64(word);
      }
      return;
    case ColumnEncoding::kDict:
      w->PutU32(static_cast<uint32_t>(m.dict_values.size()));
      for (const std::string& v : m.dict_values) w->PutString(v);
      for (const uint32_t code : m.dict_codes) w->PutU32(code);
      return;
  }
}

/// Decodes one chunk's `rows` int64 values into `out`.
Status DecodeInt64Chunk(BinaryReader* r, uint8_t tag, int64_t rows,
                        int64_t* out) {
  switch (static_cast<ColumnEncoding>(tag)) {
    case ColumnEncoding::kPlain: {
      if (kHostLittleEndian) {
        SCIBORQ_ASSIGN_OR_RETURN(
            const std::string_view raw,
            r->ReadRaw(static_cast<size_t>(rows) * sizeof(int64_t)));
        if (!raw.empty()) std::memcpy(out, raw.data(), raw.size());
        return Status::OK();
      }
      for (int64_t i = 0; i < rows; ++i) {
        SCIBORQ_ASSIGN_OR_RETURN(out[i], r->ReadI64());
      }
      return Status::OK();
    }
    case ColumnEncoding::kRle: {
      SCIBORQ_ASSIGN_OR_RETURN(const uint32_t runs,
                               r->ReadCount(12, "RLE run"));
      int64_t pos = 0;
      for (uint32_t run = 0; run < runs; ++run) {
        SCIBORQ_ASSIGN_OR_RETURN(const int64_t value, r->ReadI64());
        SCIBORQ_ASSIGN_OR_RETURN(const uint32_t len, r->ReadU32());
        if (len == 0 || pos + static_cast<int64_t>(len) > rows) {
          return Status::InvalidArgument(
              "serde: RLE run lengths do not tile the chunk");
        }
        for (uint32_t i = 0; i < len; ++i) out[pos + i] = value;
        pos += len;
      }
      if (pos != rows) {
        return Status::InvalidArgument(
            "serde: RLE runs cover fewer rows than the chunk holds");
      }
      return Status::OK();
    }
    case ColumnEncoding::kFor: {
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t reference, r->ReadI64());
      SCIBORQ_ASSIGN_OR_RETURN(const uint8_t bits, r->ReadU8());
      SCIBORQ_ASSIGN_OR_RETURN(const uint32_t words, r->ReadU32());
      if (bits > 63) {
        return Status::InvalidArgument(
            StrFormat("serde: FOR bit width %u out of range", bits));
      }
      const int64_t expected_words =
          (rows * static_cast<int64_t>(bits) + 63) / 64;
      if (static_cast<int64_t>(words) != expected_words) {
        return Status::InvalidArgument(StrFormat(
            "serde: FOR word count %u does not match %lld packed rows", words,
            static_cast<long long>(rows)));
      }
      std::vector<uint64_t> packed(words);
      if (kHostLittleEndian) {
        SCIBORQ_ASSIGN_OR_RETURN(
            const std::string_view raw,
            r->ReadRaw(static_cast<size_t>(words) * sizeof(uint64_t)));
        if (!raw.empty()) std::memcpy(packed.data(), raw.data(), raw.size());
      } else {
        for (uint32_t i = 0; i < words; ++i) {
          SCIBORQ_ASSIGN_OR_RETURN(packed[i], r->ReadU64());
        }
      }
      const uint64_t ref = static_cast<uint64_t>(reference);
      for (int64_t i = 0; i < rows; ++i) {
        out[i] = static_cast<int64_t>(ref + UnpackBit(packed, i, bits));
      }
      return Status::OK();
    }
    case ColumnEncoding::kDict:
      break;
  }
  return Status::InvalidArgument(
      StrFormat("serde: unknown int64 chunk encoding tag %u", tag));
}

/// Decodes one chunk's `rows` strings, appending to `out`.
Status DecodeStringChunk(BinaryReader* r, uint8_t tag, int64_t rows,
                         std::vector<std::string>* out) {
  switch (static_cast<ColumnEncoding>(tag)) {
    case ColumnEncoding::kPlain:
      for (int64_t i = 0; i < rows; ++i) {
        SCIBORQ_ASSIGN_OR_RETURN(std::string v, r->ReadString());
        out->push_back(std::move(v));
      }
      return Status::OK();
    case ColumnEncoding::kDict: {
      SCIBORQ_ASSIGN_OR_RETURN(const uint32_t dict_n,
                               r->ReadCount(4, "dictionary value"));
      std::vector<std::string> dict;
      dict.reserve(dict_n);
      for (uint32_t i = 0; i < dict_n; ++i) {
        SCIBORQ_ASSIGN_OR_RETURN(std::string v, r->ReadString());
        dict.push_back(std::move(v));
      }
      for (int64_t i = 0; i < rows; ++i) {
        SCIBORQ_ASSIGN_OR_RETURN(const uint32_t code, r->ReadU32());
        if (code >= dict_n) {
          return Status::InvalidArgument(StrFormat(
              "serde: dictionary code %u out of range (%u values)", code,
              dict_n));
        }
        out->push_back(dict[code]);
      }
      return Status::OK();
    }
    case ColumnEncoding::kRle:
    case ColumnEncoding::kFor:
      break;
  }
  return Status::InvalidArgument(
      StrFormat("serde: unknown string chunk encoding tag %u", tag));
}

}  // namespace

void EncodeColumnEncoded(const Column& col, BinaryWriter* w) {
  w->PutU8(DataTypeToWire(col.type()));
  w->PutI64(col.size());
  const bool has_nulls = col.has_nulls();
  w->PutBool(has_nulls);
  if (has_nulls) {
    for (int64_t row = 0; row < col.size(); ++row) {
      w->PutBool(!col.IsNull(row));
    }
  }
  const int64_t chunks =
      (col.size() + kEncodingMorselRows - 1) / kEncodingMorselRows;
  w->PutU32(static_cast<uint32_t>(chunks));
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t begin = c * kEncodingMorselRows;
    const int64_t end = std::min(col.size(), begin + kEncodingMorselRows);
    EncodeColumnChunk(col, begin, end, w);
  }
}

Result<Column> DecodeColumnEncoded(BinaryReader* r) {
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t tag, r->ReadU8());
  SCIBORQ_ASSIGN_OR_RETURN(const DataType type, DataTypeFromWire(tag));
  SCIBORQ_ASSIGN_OR_RETURN(const int64_t size, r->ReadI64());
  SCIBORQ_ASSIGN_OR_RETURN(const bool has_nulls, r->ReadBool());
  SCIBORQ_RETURN_NOT_OK(
      r->CheckCount(size, has_nulls ? 1 : 0, "encoded column row"));
  std::vector<uint8_t> valid;
  if (has_nulls) {
    valid.resize(static_cast<size_t>(size));
    for (int64_t row = 0; row < size; ++row) {
      SCIBORQ_ASSIGN_OR_RETURN(const bool v, r->ReadBool());
      valid[static_cast<size_t>(row)] = v ? 1 : 0;
    }
  }
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t chunks, r->ReadU32());
  const int64_t expected_chunks =
      (size + kEncodingMorselRows - 1) / kEncodingMorselRows;
  if (static_cast<int64_t>(chunks) != expected_chunks) {
    return Status::InvalidArgument(StrFormat(
        "serde: encoded column declares %u chunks, %lld rows need %lld",
        chunks, static_cast<long long>(size),
        static_cast<long long>(expected_chunks)));
  }
  // The smallest well-formed chunk (a bits=0 FOR frame) is 14 bytes, so a
  // hostile row count cannot claim more chunks than the buffer could back.
  // Value storage below still grows chunk-by-chunk, keeping the peak
  // allocation proportional to bytes actually decoded.
  SCIBORQ_RETURN_NOT_OK(
      r->CheckCount(expected_chunks, 14, "encoded column chunk"));

  if (type == DataType::kString) {
    std::vector<std::string> values;
    for (int64_t c = 0; c < expected_chunks; ++c) {
      const int64_t begin = c * kEncodingMorselRows;
      const int64_t end = std::min(size, begin + kEncodingMorselRows);
      SCIBORQ_ASSIGN_OR_RETURN(const uint8_t chunk_tag, r->ReadU8());
      SCIBORQ_RETURN_NOT_OK(
          DecodeStringChunk(r, chunk_tag, end - begin, &values));
    }
    Column col(DataType::kString);
    col.Reserve(size);
    for (int64_t row = 0; row < size; ++row) {
      if (has_nulls && valid[static_cast<size_t>(row)] == 0) {
        col.AppendNull();
      } else {
        col.AppendString(std::move(values[static_cast<size_t>(row)]));
      }
    }
    return col;
  }

  // Numeric: every chunk materializes into one contiguous int64 buffer (the
  // double layout is the same 8 bytes, reinterpreted below).
  std::vector<int64_t> values;
  for (int64_t c = 0; c < expected_chunks; ++c) {
    const int64_t begin = c * kEncodingMorselRows;
    const int64_t end = std::min(size, begin + kEncodingMorselRows);
    values.resize(static_cast<size_t>(end));
    SCIBORQ_ASSIGN_OR_RETURN(const uint8_t chunk_tag, r->ReadU8());
    if (type == DataType::kDouble &&
        static_cast<ColumnEncoding>(chunk_tag) != ColumnEncoding::kPlain) {
      return Status::InvalidArgument(StrFormat(
          "serde: double chunk carries non-plain encoding tag %u", chunk_tag));
    }
    SCIBORQ_RETURN_NOT_OK(
        DecodeInt64Chunk(r, chunk_tag, end - begin, values.data() + begin));
  }
  if (type == DataType::kInt64) {
    if (!has_nulls) return Column::FromInt64Vector(std::move(values));
    Column col(DataType::kInt64);
    col.Reserve(size);
    for (int64_t row = 0; row < size; ++row) {
      if (valid[static_cast<size_t>(row)] == 0) {
        col.AppendNull();
      } else {
        col.AppendInt64(values[static_cast<size_t>(row)]);
      }
    }
    return col;
  }
  std::vector<double> dbl(static_cast<size_t>(size));
  if (!values.empty()) {
    std::memcpy(dbl.data(), values.data(), values.size() * sizeof(double));
  }
  if (!has_nulls) return Column::FromDoubleVector(std::move(dbl));
  Column col(DataType::kDouble);
  col.Reserve(size);
  for (int64_t row = 0; row < size; ++row) {
    if (valid[static_cast<size_t>(row)] == 0) {
      col.AppendNull();
    } else {
      col.AppendDouble(dbl[static_cast<size_t>(row)]);
    }
  }
  return col;
}

void EncodeTableEncoded(const Table& table, BinaryWriter* w) {
  EncodeSchema(table.schema(), w);
  w->PutI64(table.num_rows());
  for (int i = 0; i < table.num_columns(); ++i) {
    EncodeColumnEncoded(table.column(i), w);
  }
}

Result<Table> DecodeTableEncoded(BinaryReader* r) {
  SCIBORQ_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  SCIBORQ_ASSIGN_OR_RETURN(const int64_t rows, r->ReadI64());
  if (rows < 0) {
    return Status::InvalidArgument(StrFormat(
        "serde: negative table row count %lld", static_cast<long long>(rows)));
  }
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(schema.num_fields()));
  for (int i = 0; i < schema.num_fields(); ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(Column col, DecodeColumnEncoded(r));
    if (col.type() != schema.field(i).type) {
      return Status::InvalidArgument(StrFormat(
          "serde: column %d type does not match its schema field", i));
    }
    if (col.size() != rows) {
      return Status::InvalidArgument(StrFormat(
          "serde: column %d has %lld rows, table declares %lld", i,
          static_cast<long long>(col.size()), static_cast<long long>(rows)));
    }
    columns.push_back(std::move(col));
  }
  return Table::FromColumns(std::move(schema), std::move(columns));
}

// -- Table ------------------------------------------------------------------

void EncodeTable(const Table& table, BinaryWriter* w) {
  EncodeSchema(table.schema(), w);
  w->PutI64(table.num_rows());
  for (int i = 0; i < table.num_columns(); ++i) {
    EncodeColumn(table.column(i), w);
  }
}

Result<Table> DecodeTable(BinaryReader* r) {
  SCIBORQ_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  SCIBORQ_ASSIGN_OR_RETURN(const int64_t rows, r->ReadI64());
  if (rows < 0) {
    return Status::InvalidArgument(StrFormat(
        "serde: negative table row count %lld", static_cast<long long>(rows)));
  }
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(schema.num_fields()));
  for (int i = 0; i < schema.num_fields(); ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(Column col, DecodeColumn(r));
    if (col.type() != schema.field(i).type) {
      return Status::InvalidArgument(StrFormat(
          "serde: column %d type does not match its schema field", i));
    }
    if (col.size() != rows) {
      return Status::InvalidArgument(StrFormat(
          "serde: column %d has %lld rows, table declares %lld", i,
          static_cast<long long>(col.size()), static_cast<long long>(rows)));
    }
    columns.push_back(std::move(col));
  }
  return Table::FromColumns(std::move(schema), std::move(columns));
}

}  // namespace sciborq
