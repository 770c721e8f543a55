#ifndef SCIBORQ_SERVER_WIRE_H_
#define SCIBORQ_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "column/serde.h"
#include "column/value.h"
#include "exec/query.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "util/binio.h"
#include "util/result.h"

namespace sciborq {

// ---------------------------------------------------------------------------
// SciBORQ wire protocol — the network face of the bounded-query contract.
//
// Every message travels in one *frame*:
//
//   u32 length (little-endian) | body (`length` bytes)
//
// where body = u8 version | u8 opcode | payload. Frames larger than the
// receiver's max_frame_bytes are rejected without being read.
//
// The client, server and coordinator are built together, so there is one
// protocol version, kWireVersion. A frame stamped with any other version is
// refused with InvalidArgument naming both versions, and the server answers
// that refusal once and hangs up.
//
// Requests (client -> server):
//   kQuery       payload = string sql | u8 flags | string query_id
//                (flags bit 0 = mergeable: also ship the Welford partials;
//                 query_id "" = the server assigns one; session table and
//                 bounds fill what the SQL leaves out)
//   kUse         payload = string table     (sets the session default table)
//   kSetBounds   payload = QueryBounds      (session defaults for bare SQL)
//   kCatalog     payload = (empty)          (list tables + metadata)
//   kPing        payload = (empty)
//   kPrepare     payload = string sql       (`?` placeholder template)
//   kExecute     payload = i64 id | params  (params = u32 n + n Value)
//   kCloseStmt   payload = i64 id
//   kCheckpoint  payload = string table     ("" = checkpoint every table)
//   kCreateTable payload = string name | Schema | u64 seed | retention block
//   kIngest      payload = string table | Table   (column/serde.h encoding)
//   kStats       payload = (empty)          (flattened metrics registry)
//   kSlowLog     payload = (empty)          (the bound-miss ring)
//   kDropTable   payload = string name      (catalog + disk removal)
//
// The retention block is
//   u8 has_retention | [string time_column | i64 bucket_width |
//   i64 window_buckets | u8 checkpoint_on_evict | i64 last_seen_capacity |
//   i64 last_seen_expected_ingest]
// (bracketed fields present only when has_retention = 1).
//
// Responses (server -> client) echo the request opcode and carry
//   u8 status_code | string status_message | payload-if-OK
// with payload: kQuery/kExecute -> QueryOutcome (distributed and trace
// fields included), kCatalog -> u32 n + n TableInfo (shard count and
// storage block included), kPrepare -> StatementInfo, kCheckpoint -> u32
// tables checkpointed, kIngest -> i64 rows, kStats -> u32 n + n StatSample,
// kSlowLog -> u32 n + n SlowQueryEntry, others empty. Frame-level failures
// (oversized/undecodable request) are reported with opcode kInvalid and the
// connection is closed.
//
// All integers are little-endian and fixed-width; doubles are IEEE-754 bit
// patterns (NaN/Inf round-trip exactly); strings are u32 length + raw bytes.
// The encoding is bijective: encode(decode(encode(x))) == encode(x), which
// the wire tests assert byte-for-byte.
// ---------------------------------------------------------------------------

/// The protocol version this build speaks, and the only one it accepts.
inline constexpr uint8_t kWireVersion = 7;

/// Default ceiling for one frame. Generous for result batches (a row of
/// doubles is tens of bytes) while bounding a malicious length prefix.
inline constexpr int64_t kMaxFrameBytes = 64ll * 1024 * 1024;

enum class Opcode : uint8_t {
  kInvalid = 0,  ///< response-only: frame-level protocol failure
  kQuery = 1,
  kUse = 2,
  kSetBounds = 3,
  kCatalog = 4,
  kPing = 5,
  kPrepare = 6,
  kExecute = 7,
  kCloseStmt = 8,
  kCheckpoint = 9,
  kCreateTable = 10,
  kIngest = 11,
  kStats = 12,
  kSlowLog = 13,
  kDropTable = 14,
};

std::string_view OpcodeToString(Opcode op);

/// The byte-buffer primitives are shared with the on-disk storage formats;
/// see util/binio.h. The wire names remain canonical in protocol code.
using WireWriter = BinaryWriter;
using WireReader = BinaryReader;

// -- Typed encode/decode pairs ----------------------------------------------
//
// Value and Schema codecs live in column/serde.h (shared with the storage
// formats) and are re-exported through this header's includes.

void EncodeBounds(const QueryBounds& bounds, WireWriter* w);
Result<QueryBounds> DecodeBounds(WireReader* r);

void EncodeStatus(const Status& status, WireWriter* w);
/// The return value reports wire-decoding success; `*decoded` receives the
/// transported status (which may itself be any code, including OK).
Status DecodeStatus(WireReader* r, Status* decoded);

void EncodeEstimate(const AggregateEstimate& est, WireWriter* w);
Result<AggregateEstimate> DecodeEstimate(WireReader* r);

void EncodeAttempt(const LayerAttempt& attempt, WireWriter* w);
Result<LayerAttempt> DecodeAttempt(WireReader* r);

void EncodeResultRow(const QueryResultRow& row, WireWriter* w);
Result<QueryResultRow> DecodeResultRow(WireReader* r);

/// Mergeable Welford state of one aggregate: i64 count_only |
/// i64 count | f64 mean | f64 m2 | f64 min | f64 max. Bit-exact round trip,
/// so merging a decoded state equals merging the original.
void EncodeMoments(const AggregateMoments& m, WireWriter* w);
Result<AggregateMoments> DecodeMoments(WireReader* r);

/// A QueryOutcome with its distributed fields (partial flag, shard counts,
/// partials matrix) and trace fields (query id, phase spans).
void EncodeOutcome(const QueryOutcome& outcome, WireWriter* w);
Result<QueryOutcome> DecodeOutcome(WireReader* r);

/// A TableInfo with its shard count and per-column storage block.
void EncodeTableInfo(const TableInfo& info, WireWriter* w);
Result<TableInfo> DecodeTableInfo(WireReader* r);

/// Parameter lists for kExecute: u32 count + count Values. Decode rejects a
/// count larger than the bytes that could possibly back it before
/// allocating (hostile-length defense, like ReadString).
void EncodeParams(const std::vector<Value>& params, WireWriter* w);
Result<std::vector<Value>> DecodeParams(WireReader* r);

/// kPrepare response payload: handle id, target table, normalized template
/// SQL, parameter count.
void EncodeStatementInfo(const StatementInfo& info, WireWriter* w);
Result<StatementInfo> DecodeStatementInfo(WireReader* r);

/// One phase span of a query trace (a QueryOutcome field).
void EncodeSpan(const PhaseSpan& span, WireWriter* w);
Result<PhaseSpan> DecodeSpan(WireReader* r);

/// kStats response payload: u32 count + count samples. Decode rejects a
/// count larger than the bytes that could back it, like DecodeParams.
void EncodeStatSamples(const std::vector<obs::StatSample>& samples,
                       WireWriter* w);
Result<std::vector<obs::StatSample>> DecodeStatSamples(WireReader* r);

/// kSlowLog response payload: u32 count + count entries, oldest first.
void EncodeSlowQueries(const std::vector<obs::SlowQueryEntry>& entries,
                       WireWriter* w);
Result<std::vector<obs::SlowQueryEntry>> DecodeSlowQueries(WireReader* r);

/// The kCreateTable retention block: u8 has_retention, then (when set)
/// the policy fields. An empty/disabled policy encodes as the single 0 byte.
/// Decode validates that an enabled policy carries positive bucket_width and
/// window_buckets — a malformed policy is refused at the wire, not at table
/// build time.
void EncodeRetentionPolicy(const RetentionPolicy& policy, WireWriter* w);
Result<RetentionPolicy> DecodeRetentionPolicy(WireReader* r);

// -- Message envelopes ------------------------------------------------------

/// A decoded request: opcode plus its payload (the dispatcher decodes the
/// op-specific fields).
struct RequestFrame {
  Opcode opcode = Opcode::kInvalid;
  std::string payload;  ///< op-specific bytes
};

/// version | opcode | payload.
std::string EncodeRequest(Opcode op, std::string_view payload);
/// Rejects any version but kWireVersion, and unknown opcodes.
Result<RequestFrame> DecodeRequest(std::string_view body);

/// version | opcode | status | payload (payload only encoded when OK).
std::string EncodeResponse(Opcode op, const Status& status,
                           std::string_view payload);

struct ResponseFrame {
  Opcode opcode = Opcode::kInvalid;
  Status status;
  std::string payload;  ///< empty unless status.ok()
};
Result<ResponseFrame> DecodeResponse(std::string_view body);

}  // namespace sciborq

#endif  // SCIBORQ_SERVER_WIRE_H_
