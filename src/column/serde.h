#ifndef SCIBORQ_COLUMN_SERDE_H_
#define SCIBORQ_COLUMN_SERDE_H_

#include "column/schema.h"
#include "column/table.h"
#include "column/value.h"
#include "util/binio.h"
#include "util/result.h"

namespace sciborq {

// ---------------------------------------------------------------------------
// Binary serialization of the column-layer types, shared by the wire
// protocol (server/wire.h keeps its byte format by delegating here) and the
// on-disk storage formats (storage/snapshot.h, storage/wal.h).
//
// Every decode is hostile-input safe: element counts are validated against
// the bytes that could possibly back them *before* any allocation, and all
// primitive reads are bounds-checked (util/binio.h), so a truncated or
// tampered buffer surfaces as InvalidArgument, never as UB or an OOM.
// ---------------------------------------------------------------------------

/// Value: u8 tag (0 null, 1 int64, 2 double, 3 string) + payload.
void EncodeValue(const Value& v, BinaryWriter* w);
Result<Value> DecodeValue(BinaryReader* r);

/// Schema: u32 n + n × (string name | u8 type | bool nullable).
void EncodeSchema(const Schema& schema, BinaryWriter* w);
Result<Schema> DecodeSchema(BinaryReader* r);

/// Column: u8 type | i64 size | bool has_nulls | [validity bytes] | non-null
/// values in row order (int64/double as fixed 8 bytes, strings u32-prefixed).
/// Null slots are materialized back through Column::AppendNull, so a decoded
/// column is value-identical to the source (doubles bit-for-bit).
void EncodeColumn(const Column& col, BinaryWriter* w);
Result<Column> DecodeColumn(BinaryReader* r);

/// Table: schema | i64 rows | one Column per field. Decode cross-checks
/// every column against the schema type and the row count.
void EncodeTable(const Table& table, BinaryWriter* w);
Result<Table> DecodeTable(BinaryReader* r);

// ---------------------------------------------------------------------------
// v2 "encoded page" codecs — the compressed snapshot format. Columns are
// written in kEncodingMorselRows-row chunks, each chunk carrying the payload
// the per-morsel cost model picked (column/encoding/encoding.h): RLE or
// frame-of-reference bit-packing for int64, a dictionary for strings, raw
// values otherwise. Null slots are written with their storage defaults and
// restored through the validity prefix, so a decoded column is
// value-identical to the source (doubles bit-for-bit), exactly like v1.
//
// Layout: u8 type | i64 size | bool has_nulls | [validity bools] |
// u32 chunk count | chunks, where each chunk is u8 encoding tag + payload
// (see serde.cc). Decoding is hostile-input safe on the same terms as v1.
// ---------------------------------------------------------------------------

void EncodeColumnEncoded(const Column& col, BinaryWriter* w);
Result<Column> DecodeColumnEncoded(BinaryReader* r);

void EncodeTableEncoded(const Table& table, BinaryWriter* w);
Result<Table> DecodeTableEncoded(BinaryReader* r);

}  // namespace sciborq

#endif  // SCIBORQ_COLUMN_SERDE_H_
