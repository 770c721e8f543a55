// Wire-protocol round-trips: every QueryOutcome shape the engine can
// produce must encode/decode bit-identically (asserted by re-encoding and
// comparing bytes), and malformed bytes — truncations at every offset,
// hostile lengths, trailing garbage — must surface as Status, never as
// crashes or wrong data.

#include "server/wire.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "util/string_util.h"

namespace sciborq {
namespace {

std::string EncodedOutcome(const QueryOutcome& outcome) {
  WireWriter w;
  EncodeOutcome(outcome, &w);
  return w.Take();
}

/// encode -> decode -> re-encode must reproduce the original bytes: the
/// protocol is bijective, so "bit-identical round trip" is a byte equality.
void ExpectOutcomeRoundTripsBitIdentically(const QueryOutcome& outcome) {
  const std::string bytes = EncodedOutcome(outcome);
  WireReader r(bytes);
  Result<QueryOutcome> decoded = DecodeOutcome(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(bytes, EncodedOutcome(*decoded));
  EXPECT_TRUE(EquivalentAnswers(outcome, *decoded));
  // Timing survives too (EquivalentAnswers deliberately ignores it).
  EXPECT_EQ(outcome.elapsed_seconds, decoded->elapsed_seconds);
}

AggregateEstimate MakeEstimate(double est, double half_width, bool exact,
                               int64_t n) {
  AggregateEstimate e;
  e.estimate = est;
  e.std_error = half_width / 1.96;
  e.ci_lo = est - half_width;
  e.ci_hi = est + half_width;
  e.confidence = 0.95;
  e.sample_rows = n;
  e.exact = exact;
  return e;
}

TEST(WireWriterReaderTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.PutU8(0);
  w.PutU8(255);
  w.PutBool(true);
  w.PutBool(false);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  w.PutF64(3.14159);
  w.PutF64(-0.0);
  w.PutF64(std::numeric_limits<double>::infinity());
  w.PutF64(std::numeric_limits<double>::quiet_NaN());
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string("nul\0byte", 8));

  WireReader r(w.buffer());
  EXPECT_EQ(0u, *r.ReadU8());
  EXPECT_EQ(255u, *r.ReadU8());
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_FALSE(*r.ReadBool());
  EXPECT_EQ(0xdeadbeefu, *r.ReadU32());
  EXPECT_EQ(0x0123456789abcdefull, *r.ReadU64());
  EXPECT_EQ(-42, *r.ReadI64());
  EXPECT_EQ(3.14159, *r.ReadF64());
  const double neg_zero = *r.ReadF64();
  EXPECT_EQ(0.0, neg_zero);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not just value
  EXPECT_TRUE(std::isinf(*r.ReadF64()));
  EXPECT_TRUE(std::isnan(*r.ReadF64()));
  EXPECT_EQ("hello", *r.ReadString());
  EXPECT_EQ("", *r.ReadString());
  EXPECT_EQ(std::string("nul\0byte", 8), *r.ReadString());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireWriterReaderTest, ReadsPastEndFail) {
  WireReader r("");
  EXPECT_FALSE(r.ReadU8().ok());
  EXPECT_FALSE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadU64().ok());
  EXPECT_FALSE(r.ReadF64().ok());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(WireWriterReaderTest, BoolRejectsNonBinaryBytes) {
  WireReader r("\x02");
  EXPECT_FALSE(r.ReadBool().ok());
}

TEST(WireWriterReaderTest, HostileStringLengthRejected) {
  // Claims 1 GiB of string payload with 3 bytes behind it.
  WireWriter w;
  w.PutU32(1u << 30);
  std::string bytes = w.Take() + "abc";
  WireReader r(bytes);
  const Result<std::string> s = r.ReadString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, s.status().code());
}

TEST(WireWriterReaderTest, TrailingGarbageDetected) {
  WireWriter w;
  w.PutU32(7);
  std::string bytes = w.Take() + "x";
  WireReader r(bytes);
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_FALSE(r.ExpectEnd().ok());
}

TEST(WireValueTest, AllTagsRoundTrip) {
  const std::vector<Value> values = {Value::Null(), Value(int64_t{-7}),
                                     Value(2.5), Value("GALAXY"), Value("")};
  for (const Value& v : values) {
    WireWriter w;
    EncodeValue(v, &w);
    WireReader r(w.buffer());
    Result<Value> decoded = DecodeValue(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(v == *decoded);
    EXPECT_TRUE(r.ExpectEnd().ok());
  }
}

TEST(WireValueTest, UnknownTagRejected) {
  WireReader r("\x09");
  EXPECT_FALSE(DecodeValue(&r).ok());
}

TEST(WireBoundsTest, RoundTrip) {
  QueryBounds bounds;
  bounds.time_budget_ms = 50.0;
  bounds.max_relative_error = 0.05;
  bounds.confidence = 0.99;
  bounds.exact = true;
  WireWriter w;
  EncodeBounds(bounds, &w);
  WireReader r(w.buffer());
  Result<QueryBounds> decoded = DecodeBounds(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(bounds.time_budget_ms, decoded->time_budget_ms);
  EXPECT_EQ(bounds.max_relative_error, decoded->max_relative_error);
  EXPECT_EQ(bounds.confidence, decoded->confidence);
  EXPECT_EQ(bounds.exact, decoded->exact);
}

TEST(WireStatusTest, EveryCodeRoundTrips) {
  const std::vector<Status> statuses = {
      Status::OK(),
      Status::InvalidArgument("bad sql"),
      Status::OutOfRange("layer 9"),
      Status::NotFound("unknown table 'x'"),
      Status::AlreadyExists("dup"),
      Status::FailedPrecondition("no tracker"),
      Status::ResourceExhausted("frame too big"),
      Status::DeadlineExceeded("50ms"),
      Status::QualityBoundExceeded("5%"),
      Status::NotImplemented("soon"),
      Status::IOError("recv"),
      Status::Internal("bug")};
  for (const Status& st : statuses) {
    WireWriter w;
    EncodeStatus(st, &w);
    WireReader r(w.buffer());
    Status decoded;
    ASSERT_TRUE(DecodeStatus(&r, &decoded).ok());
    EXPECT_TRUE(st == decoded) << st.ToString();
  }
}

TEST(WireStatusTest, UnknownCodeRejected) {
  WireWriter w;
  w.PutU8(200);
  w.PutString("???");
  WireReader r(w.buffer());
  Status decoded;
  EXPECT_FALSE(DecodeStatus(&r, &decoded).ok());
}

// -- QueryOutcome shapes ----------------------------------------------------

TEST(WireOutcomeTest, ExactUngroupedAnswer) {
  QueryOutcome outcome;
  outcome.table = "photo_obj_all";
  outcome.sql = "SELECT COUNT(*) FROM photo_obj_all EXACT";
  outcome.answered_by = "base";
  outcome.exact = true;
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.0125;
  QueryResultRow row;
  row.group_key = Value::Null();
  row.values = {600000.0};
  row.input_rows = 600000;
  outcome.rows.push_back(row);
  outcome.estimates = {{MakeEstimate(600000.0, 0.0, /*exact=*/true, 600000)}};
  LayerAttempt base;
  base.layer_name = "base";
  base.layer_rows = 600000;
  base.matching_rows = 600000;
  base.met_error_bound = true;
  base.is_base = true;
  outcome.attempts.push_back(base);
  ExpectOutcomeRoundTripsBitIdentically(outcome);
}

TEST(WireOutcomeTest, EstimateWithCiAndEscalationTrace) {
  QueryOutcome outcome;
  outcome.table = "photo_obj_all";
  outcome.sql = "SELECT COUNT(*), AVG(r) FROM photo_obj_all ERROR 5%";
  outcome.answered_by = "l0";
  outcome.exact = false;
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.0021;
  QueryResultRow row;
  row.values = {21484.4, 30.26};
  row.input_rows = 440;
  outcome.rows.push_back(row);
  outcome.estimates = {{MakeEstimate(21484.4, 1986.8, false, 440),
                        MakeEstimate(30.26, 1.08, false, 440)}};
  // Two failed layers then success — the full escalation trace, including
  // an infinite relative error (MIN/MAX-style) which must survive the trip.
  for (const char* name : {"l2", "l1"}) {
    LayerAttempt attempt;
    attempt.layer_name = name;
    attempt.layer_rows = name[1] == '2' ? 1024 : 8192;
    attempt.matching_rows = 17;
    attempt.elapsed_seconds = 0.0004;
    attempt.worst_relative_error = std::numeric_limits<double>::infinity();
    attempt.met_error_bound = false;
    outcome.attempts.push_back(attempt);
  }
  LayerAttempt success;
  success.layer_name = "l0";
  success.layer_rows = 65536;
  success.matching_rows = 440;
  success.worst_relative_error = 0.0925;
  success.met_error_bound = true;
  outcome.attempts.push_back(success);
  ExpectOutcomeRoundTripsBitIdentically(outcome);
}

TEST(WireOutcomeTest, GroupedRowsWithTypedKeys) {
  QueryOutcome outcome;
  outcome.table = "t";
  outcome.sql = "SELECT SUM(r) FROM t GROUP BY obj_class ERROR 10%";
  outcome.answered_by = "l1";
  QueryResultRow galaxy;
  galaxy.group_key = Value("GALAXY");
  galaxy.values = {123.5};
  galaxy.input_rows = 99;
  QueryResultRow star;
  star.group_key = Value(int64_t{3});
  star.values = {-7.25};
  star.input_rows = 12;
  QueryResultRow qso;
  qso.group_key = Value(2.5);
  qso.values = {0.0};
  qso.input_rows = 0;
  outcome.rows = {galaxy, star, qso};
  outcome.estimates = {{MakeEstimate(123.5, 4.0, false, 99)},
                       {MakeEstimate(-7.25, 0.5, false, 12)},
                       {MakeEstimate(0.0, 0.0, false, 0)}};
  ExpectOutcomeRoundTripsBitIdentically(outcome);
}

TEST(WireOutcomeTest, EmptyOutcomeRoundTrips) {
  QueryOutcome outcome;  // no rows, no estimates, no attempts
  ExpectOutcomeRoundTripsBitIdentically(outcome);
}

TEST(WireOutcomeTest, NanValuesSurviveAndCompareEqual) {
  // A NaN in the data (e.g. AVG over a column holding NaN doubles) must
  // round-trip bit-exactly AND still satisfy EquivalentAnswers — plain
  // double == would wrongly report a mismatch for identical answers.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QueryOutcome outcome;
  outcome.table = "t";
  outcome.sql = "SELECT AVG(x) FROM t EXACT";
  outcome.answered_by = "base";
  outcome.exact = true;
  QueryResultRow row;
  row.values = {nan};
  row.input_rows = 3;
  outcome.rows.push_back(row);
  outcome.estimates = {{MakeEstimate(nan, 0.0, /*exact=*/true, 3)}};
  LayerAttempt attempt;
  attempt.layer_name = "base";
  attempt.worst_relative_error = nan;
  attempt.is_base = true;
  outcome.attempts.push_back(attempt);
  ExpectOutcomeRoundTripsBitIdentically(outcome);
  EXPECT_TRUE(EquivalentAnswers(outcome, outcome));
}

/// Satellite requirement: decoding any truncation of a valid message fails
/// cleanly (never crashes, never "succeeds" on partial data).
TEST(WireOutcomeTest, EveryTruncationFailsCleanly) {
  QueryOutcome outcome;
  outcome.table = "t";
  outcome.sql = "SELECT COUNT(*) FROM t ERROR 5%";
  outcome.answered_by = "l0";
  QueryResultRow row;
  row.group_key = Value("key");
  row.values = {1.0, 2.0};
  row.input_rows = 5;
  outcome.rows.push_back(row);
  outcome.estimates = {{MakeEstimate(1.0, 0.1, false, 5),
                        MakeEstimate(2.0, 0.2, false, 5)}};
  LayerAttempt attempt;
  attempt.layer_name = "l0";
  outcome.attempts.push_back(attempt);

  const std::string bytes = EncodedOutcome(outcome);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WireReader r(std::string_view(bytes.data(), len));
    const Result<QueryOutcome> decoded = DecodeOutcome(&r);
    // Prefixes that happen to parse (e.g. cutting only trailing attempts
    // would not — counts are encoded up front, so every cut is detected).
    EXPECT_FALSE(decoded.ok() && r.ExpectEnd().ok())
        << "truncation to " << len << " bytes decoded successfully";
  }
}

TEST(WireTableInfoTest, RoundTrip) {
  TableInfo info;
  info.name = "photo_obj_all";
  info.rows = 600000;
  info.schema = Schema({{"objid", DataType::kInt64, false},
                        {"ra", DataType::kDouble, true},
                        {"obj_class", DataType::kString, true}});
  info.layers = {{"l0", 65536, 65536, "biased"}, {"l1", 8192, 8192, "uniform"}};
  info.population_seen = 600000;
  info.biased = true;
  info.logged_queries = 17;

  WireWriter w;
  EncodeTableInfo(info, &w);
  const std::string bytes = w.Take();
  WireReader r(bytes);
  Result<TableInfo> decoded = DecodeTableInfo(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.ExpectEnd().ok());
  WireWriter w2;
  EncodeTableInfo(*decoded, &w2);
  EXPECT_EQ(bytes, w2.buffer());
  EXPECT_EQ("photo_obj_all", decoded->name);
  EXPECT_EQ(3, decoded->schema.num_fields());
  EXPECT_EQ(DataType::kDouble, decoded->schema.field(1).type);
  EXPECT_FALSE(decoded->schema.field(0).nullable);
  ASSERT_EQ(2u, decoded->layers.size());
  EXPECT_EQ("biased", decoded->layers[0].policy);
}

// -- Envelopes --------------------------------------------------------------

TEST(WireEnvelopeTest, RequestRoundTrip) {
  WireWriter payload;
  payload.PutString("SELECT COUNT(*) FROM t");
  const std::string body = EncodeRequest(Opcode::kQuery, payload.buffer());
  Result<RequestFrame> decoded = DecodeRequest(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Opcode::kQuery, decoded->opcode);
  WireReader r(decoded->payload);
  EXPECT_EQ("SELECT COUNT(*) FROM t", *r.ReadString());
}

TEST(WireEnvelopeTest, WrongVersionRejected) {
  std::string body = EncodeRequest(Opcode::kPing, "");
  body[0] = 9;  // future protocol version
  EXPECT_FALSE(DecodeRequest(body).ok());
  std::string resp = EncodeResponse(Opcode::kPing, Status::OK(), "");
  resp[0] = 9;
  EXPECT_FALSE(DecodeResponse(resp).ok());
}

TEST(WireEnvelopeTest, MismatchedVersionsRefusedNamingBoth) {
  // One protocol version: every other version byte is refused, in requests
  // and responses alike, with a message naming both sides' versions.
  const std::string ours = StrFormat("this build speaks v%u", kWireVersion);
  for (const int version : {0, 1, 6, 8, 255}) {
    std::string request = EncodeRequest(Opcode::kPing, "");
    std::string response = EncodeResponse(Opcode::kPing, Status::OK(), "");
    request[0] = static_cast<char>(version);
    response[0] = static_cast<char>(version);
    const std::string theirs = StrFormat("peer speaks protocol v%d", version);
    for (const Status& st :
         {DecodeRequest(request).status(), DecodeResponse(response).status()}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << version;
      EXPECT_NE(st.message().find(theirs), std::string::npos) << st.message();
      EXPECT_NE(st.message().find(ours), std::string::npos) << st.message();
    }
  }
  EXPECT_TRUE(DecodeRequest(EncodeRequest(Opcode::kPing, "")).ok());
  EXPECT_TRUE(
      DecodeResponse(EncodeResponse(Opcode::kPing, Status::OK(), "")).ok());
}

TEST(WireEnvelopeTest, UnknownOpcodeRejected) {
  std::string body = EncodeRequest(Opcode::kPing, "");
  body[1] = 99;
  EXPECT_FALSE(DecodeRequest(body).ok());
}

TEST(WireEnvelopeTest, ErrorResponseRoundTripsAndDropsPayload) {
  const Status err = Status::NotFound("unknown table 'xyz'");
  // Payload is ignored for error responses (never encoded).
  const std::string body = EncodeResponse(Opcode::kQuery, err, "IGNORED");
  Result<ResponseFrame> decoded = DecodeResponse(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Opcode::kQuery, decoded->opcode);
  EXPECT_TRUE(err == decoded->status);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(WireEnvelopeTest, OkResponseCarriesPayload) {
  WireWriter payload;
  payload.PutU32(4);
  const std::string body =
      EncodeResponse(Opcode::kCatalog, Status::OK(), payload.buffer());
  Result<ResponseFrame> decoded = DecodeResponse(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->status.ok());
  WireReader r(decoded->payload);
  EXPECT_EQ(4u, *r.ReadU32());
}

// ----------------------------------------- prepared-statement envelopes ---

std::string EncodedParams(const std::vector<Value>& params) {
  WireWriter w;
  EncodeParams(params, &w);
  return w.Take();
}

TEST(WireParamsTest, RoundTripsBitIdentically) {
  const std::vector<Value> params = {
      Value(int64_t{-42}),
      Value(3.14159),
      Value(-0.0),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value("GALAXY"),
      Value(std::string("nul\0byte", 8)),
      Value::Null(),
      Value(""),
  };
  const std::string bytes = EncodedParams(params);
  WireReader r(bytes);
  const Result<std::vector<Value>> decoded = DecodeParams(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(bytes, EncodedParams(*decoded));
  ASSERT_EQ(params.size(), decoded->size());
  EXPECT_TRUE((*decoded)[3].is_double());  // NaN survives as a double
  EXPECT_TRUE((*decoded)[6].is_null());

  // Empty parameter lists are legal (zero-placeholder templates).
  const std::string empty_bytes = EncodedParams({});
  WireReader empty(empty_bytes);
  EXPECT_TRUE(DecodeParams(&empty)->empty());
}

TEST(WireParamsTest, EveryTruncationFailsCleanly) {
  const std::string bytes = EncodedParams(
      {Value(int64_t{7}), Value(2.5), Value("str"), Value::Null()});
  for (size_t len = 0; len < bytes.size(); ++len) {
    WireReader r(std::string_view(bytes.data(), len));
    const Result<std::vector<Value>> decoded = DecodeParams(&r);
    EXPECT_FALSE(decoded.ok() && r.ExpectEnd().ok())
        << "truncation to " << len << " bytes decoded successfully";
  }
}

TEST(WireParamsTest, HostileCountRejectedBeforeAllocation) {
  // Claims 2^31 parameters backed by 3 bytes.
  WireWriter w;
  w.PutU32(1u << 31);
  const std::string bytes = w.Take() + "abc";
  WireReader r(bytes);
  const Result<std::vector<Value>> decoded = DecodeParams(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, decoded.status().code());
}

std::string EncodedStatementInfo(const StatementInfo& info) {
  WireWriter w;
  EncodeStatementInfo(info, &w);
  return w.Take();
}

TEST(WireStatementInfoTest, RoundTripsBitIdentically) {
  StatementInfo info;
  info.handle.id = 0x1234567890ll;
  info.table = "photo_obj_all";
  info.sql = "SELECT COUNT(*) FROM photo_obj_all WHERE ra > ? ERROR ?%";
  info.num_params = 2;
  const std::string bytes = EncodedStatementInfo(info);
  WireReader r(bytes);
  const Result<StatementInfo> decoded = DecodeStatementInfo(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(bytes, EncodedStatementInfo(*decoded));
  EXPECT_EQ(info.handle.id, decoded->handle.id);
  EXPECT_EQ(info.table, decoded->table);
  EXPECT_EQ(info.sql, decoded->sql);
  EXPECT_EQ(info.num_params, decoded->num_params);
}

TEST(WireStatementInfoTest, EveryTruncationFailsCleanly) {
  StatementInfo info;
  info.handle.id = 7;
  info.table = "t";
  info.sql = "SELECT COUNT(*) FROM t WHERE x = ?";
  info.num_params = 1;
  const std::string bytes = EncodedStatementInfo(info);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WireReader r(std::string_view(bytes.data(), len));
    const Result<StatementInfo> decoded = DecodeStatementInfo(&r);
    EXPECT_FALSE(decoded.ok() && r.ExpectEnd().ok())
        << "truncation to " << len << " bytes decoded successfully";
  }
}

/// The kExecute request payload (i64 handle + params) survives every
/// truncation — the third new envelope, exercised exactly as the server
/// decodes it.
TEST(WireParamsTest, ExecuteRequestPayloadTruncationsFailCleanly) {
  WireWriter w;
  w.PutI64(42);
  EncodeParams({Value(1.5), Value("x")}, &w);
  const std::string bytes = w.Take();
  for (size_t len = 0; len < bytes.size(); ++len) {
    WireReader r(std::string_view(bytes.data(), len));
    const Result<int64_t> id = r.ReadI64();
    if (!id.ok()) continue;
    const Result<std::vector<Value>> params = DecodeParams(&r);
    EXPECT_FALSE(params.ok() && r.ExpectEnd().ok())
        << "truncation to " << len << " bytes decoded successfully";
  }
}

TEST(WireEnvelopeTest, ResponseTruncationsFailCleanly) {
  WireWriter payload;
  payload.PutString("x");
  const std::string body =
      EncodeResponse(Opcode::kQuery, Status::OK(), payload.buffer());
  // The envelope header (version, opcode, status) must detect every cut;
  // the payload's own truncations are the op decoder's job (tested above).
  for (size_t len = 0; len < 7 && len < body.size(); ++len) {
    EXPECT_FALSE(DecodeResponse(body.substr(0, len)).ok())
        << "envelope truncated to " << len << " bytes decoded";
  }
}

// ------------------------------- distributed, trace and catalog fields ---
//
// Every frame carries the full layout; these suites keep the names of the
// protocol revision that first added each field group.

AggregateMoments MakeMoments(std::initializer_list<double> values,
                             int64_t count_only) {
  AggregateMoments m;
  for (double v : values) m.Add(v);
  for (int64_t i = 0; i < count_only; ++i) m.AddRowOnly();
  return m;
}

QueryOutcome MakeDistributedOutcome() {
  QueryOutcome outcome;
  outcome.table = "sky";
  outcome.sql = "SELECT COUNT(*), AVG(r) FROM sky EXACT";
  QueryResultRow row;
  row.group_key = Value::Null();
  row.values = {100.0, 17.25};
  row.input_rows = 100;
  outcome.rows.push_back(row);
  AggregateEstimate est = MakeEstimate(100.0, 0.0, true, 100);
  AggregateEstimate est2 = MakeEstimate(17.25, 0.0, true, 100);
  outcome.estimates.push_back({est, est2});
  outcome.answered_by = "base";
  outcome.exact = true;
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.012;
  LayerAttempt attempt;
  attempt.layer_name = "shard0/base";
  attempt.is_base = true;
  attempt.met_error_bound = true;
  outcome.attempts.push_back(attempt);
  // The distributed fields under test.
  outcome.partial = true;
  outcome.shards_responded = 1;
  outcome.shards_total = 2;
  outcome.partials = {
      {MakeMoments({1.0, 2.0, 3.0}, 3), MakeMoments({17.0, 17.5}, 0)}};
  return outcome;
}

TEST(WireV3Test, V3OutcomeRoundTripsDistributedFields) {
  const QueryOutcome outcome = MakeDistributedOutcome();
  const std::string bytes = EncodedOutcome(outcome);
  WireReader r(bytes);
  Result<QueryOutcome> decoded = DecodeOutcome(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(decoded->partial);
  EXPECT_EQ(1, decoded->shards_responded);
  EXPECT_EQ(2, decoded->shards_total);
  ASSERT_EQ(1u, decoded->partials.size());
  ASSERT_EQ(2u, decoded->partials[0].size());
  EXPECT_TRUE(decoded->partials[0][0] == outcome.partials[0][0]);
  EXPECT_TRUE(decoded->partials[0][1] == outcome.partials[0][1]);
  EXPECT_EQ(bytes, EncodedOutcome(*decoded));
}

TEST(WireV3Test, MomentsRoundTripBitExactly) {
  // Merging a decoded state must equal merging the original — the codec has
  // to carry the raw Welford fields (count/mean/m2/min/max), not derived
  // quantities.
  AggregateMoments original = MakeMoments({1.5, -2.25, 1e308, 0.125}, 7);
  WireWriter w;
  EncodeMoments(original, &w);
  WireReader r(w.buffer());
  Result<AggregateMoments> decoded = DecodeMoments(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(original == *decoded);

  AggregateMoments other = MakeMoments({4.0, 5.5}, 1);
  AggregateMoments merged_original = original;
  merged_original.Merge(other);
  AggregateMoments merged_decoded = *decoded;
  merged_decoded.Merge(other);
  EXPECT_TRUE(merged_original == merged_decoded);
}

TEST(WireV3Test, HostilePartialsCountRejected) {
  // Truncating a distributed outcome anywhere — including inside the
  // partials matrix counts — must fail cleanly, never over-read.
  const std::string bytes = EncodedOutcome(MakeDistributedOutcome());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader r(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(DecodeOutcome(&r).ok()) << "cut " << cut;
  }
  // A partials row count claiming more rows than the bytes could hold: drop
  // the zero partials count and the empty trace fields behind it (three
  // u32s), then claim 2^31 rows with nothing behind them.
  QueryOutcome no_partials = MakeDistributedOutcome();
  no_partials.partials.clear();
  std::string prefix = EncodedOutcome(no_partials);
  prefix.resize(prefix.size() - 3 * 4);
  WireWriter count;
  count.PutU32(0x7fffffffu);
  prefix += count.buffer();
  WireReader r(prefix);
  EXPECT_FALSE(DecodeOutcome(&r).ok());
}

QueryOutcome MakeTracedOutcome() {
  QueryOutcome outcome;
  outcome.table = "sky";
  outcome.sql = "SELECT COUNT(*) FROM sky ERROR 5%";
  QueryResultRow row;
  row.group_key = Value::Null();
  row.values = {512.0};
  row.input_rows = 64;
  outcome.rows.push_back(row);
  outcome.estimates.push_back({MakeEstimate(512.0, 12.0, false, 64)});
  outcome.answered_by = "l1";
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.0042;
  LayerAttempt attempt;
  attempt.layer_name = "l1";
  attempt.met_error_bound = true;
  outcome.attempts.push_back(attempt);
  // The trace fields under test.
  outcome.query_id = "qc-17";
  outcome.spans = {{"parse", 0.0, 0.0001},
                   {"plan", 0.0001, 0.0002},
                   {"shard0/execute", 0.0005, 0.0031}};
  return outcome;
}

std::vector<obs::StatSample> MakeSamples() {
  return {{"sciborq_queries_total", "{instance=\"server-1\"}", 42.0},
          {"sciborq_query_seconds_bucket",
           "{instance=\"server-1\",le=\"0.001\"}", 17.0},
          {"sciborq_recovery_warnings", "", 0.0}};
}

std::vector<obs::SlowQueryEntry> MakeSlowEntries() {
  obs::SlowQueryEntry e;
  e.query_id = "q-9";
  e.table = "sky";
  e.sql = "SELECT AVG(r) FROM sky WITHIN 1 MS ERROR 0.001%";
  e.asked_max_ms = 1.0;
  e.asked_max_error = 0.00001;
  e.asked_confidence = 0.95;
  e.asked_exact = false;
  e.error_bound_met = false;
  e.deadline_exceeded = true;
  e.elapsed_seconds = 0.00112;
  e.answered_by = "l0";
  e.trace = "attempt l0: ...\nspan parse: start=0.000ms dur=0.010ms";
  obs::SlowQueryEntry e2;
  e2.query_id = "qc-3";
  e2.sql = "SELECT COUNT(*) FROM sky EXACT";
  e2.asked_exact = true;
  e2.error_bound_met = true;
  return {e, e2};
}

TEST(WireV4Test, V4OutcomeRoundTripsTraceFields) {
  const QueryOutcome outcome = MakeTracedOutcome();
  const std::string bytes = EncodedOutcome(outcome);
  WireReader r(bytes);
  Result<QueryOutcome> decoded = DecodeOutcome(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ("qc-17", decoded->query_id);
  ASSERT_EQ(3u, decoded->spans.size());
  EXPECT_EQ("parse", decoded->spans[0].name);
  EXPECT_EQ("shard0/execute", decoded->spans[2].name);
  EXPECT_EQ(outcome.spans[2].start_seconds, decoded->spans[2].start_seconds);
  EXPECT_EQ(outcome.spans[2].duration_seconds,
            decoded->spans[2].duration_seconds);
  EXPECT_EQ(bytes, EncodedOutcome(*decoded));
}

TEST(WireV4Test, StatSamplesRoundTrip) {
  const std::vector<obs::StatSample> samples = MakeSamples();
  WireWriter w;
  EncodeStatSamples(samples, &w);
  const std::string bytes = w.Take();
  WireReader r(bytes);
  Result<std::vector<obs::StatSample>> decoded = DecodeStatSamples(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(samples.size(), decoded->size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].name, (*decoded)[i].name);
    EXPECT_EQ(samples[i].labels, (*decoded)[i].labels);
    EXPECT_EQ(samples[i].value, (*decoded)[i].value);
  }
  WireWriter again;
  EncodeStatSamples(*decoded, &again);
  EXPECT_EQ(bytes, again.Take());
}

TEST(WireV4Test, SlowQueriesRoundTrip) {
  const std::vector<obs::SlowQueryEntry> entries = MakeSlowEntries();
  WireWriter w;
  EncodeSlowQueries(entries, &w);
  const std::string bytes = w.Take();
  WireReader r(bytes);
  Result<std::vector<obs::SlowQueryEntry>> decoded = DecodeSlowQueries(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(entries.size(), decoded->size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].query_id, (*decoded)[i].query_id);
    EXPECT_EQ(entries[i].table, (*decoded)[i].table);
    EXPECT_EQ(entries[i].sql, (*decoded)[i].sql);
    EXPECT_EQ(entries[i].asked_max_ms, (*decoded)[i].asked_max_ms);
    EXPECT_EQ(entries[i].asked_max_error, (*decoded)[i].asked_max_error);
    EXPECT_EQ(entries[i].asked_confidence, (*decoded)[i].asked_confidence);
    EXPECT_EQ(entries[i].asked_exact, (*decoded)[i].asked_exact);
    EXPECT_EQ(entries[i].error_bound_met, (*decoded)[i].error_bound_met);
    EXPECT_EQ(entries[i].deadline_exceeded, (*decoded)[i].deadline_exceeded);
    EXPECT_EQ(entries[i].elapsed_seconds, (*decoded)[i].elapsed_seconds);
    EXPECT_EQ(entries[i].answered_by, (*decoded)[i].answered_by);
    EXPECT_EQ(entries[i].trace, (*decoded)[i].trace);
  }
  WireWriter again;
  EncodeSlowQueries(*decoded, &again);
  EXPECT_EQ(bytes, again.Take());
}

TEST(WireV4Test, HostileStatCountRejected) {
  // A count claiming more entries than the buffer could possibly back must
  // fail before allocating.
  WireWriter w;
  w.PutU32(0x7fffffff);
  WireReader r(w.buffer());
  EXPECT_FALSE(DecodeStatSamples(&r).ok());
  WireReader r2(w.buffer());
  EXPECT_FALSE(DecodeSlowQueries(&r2).ok());
}

TEST(WireV4Test, TruncationFuzzNeverCrashes) {
  // Every strict prefix of a valid payload must decode to a clean error.
  WireWriter samples;
  EncodeStatSamples(MakeSamples(), &samples);
  WireWriter slow;
  EncodeSlowQueries(MakeSlowEntries(), &slow);
  const std::string outcome = EncodedOutcome(MakeTracedOutcome());
  for (size_t cut = 0; cut < samples.buffer().size(); ++cut) {
    WireReader r(std::string_view(samples.buffer()).substr(0, cut));
    EXPECT_FALSE(DecodeStatSamples(&r).ok()) << "cut " << cut;
  }
  for (size_t cut = 0; cut < slow.buffer().size(); ++cut) {
    WireReader r(std::string_view(slow.buffer()).substr(0, cut));
    EXPECT_FALSE(DecodeSlowQueries(&r).ok()) << "cut " << cut;
  }
  for (size_t cut = 0; cut < outcome.size(); ++cut) {
    WireReader r(std::string_view(outcome).substr(0, cut));
    EXPECT_FALSE(DecodeOutcome(&r).ok()) << "cut " << cut;
  }
}

std::string EncodedInfo(const TableInfo& info) {
  WireWriter w;
  EncodeTableInfo(info, &w);
  return w.Take();
}

TableInfo MakeStorageInfo() {
  TableInfo info;
  info.name = "sky";
  info.rows = 3 * 16 * 1024 + 77;
  info.population_seen = info.rows;
  info.shards = 4;
  info.storage = {
      {"id", "for", 409'816, 71'724},
      {"flag", "rle", 409'816, 624},
      {"ra", "plain", 409'816, 409'816},
      {"obj_class", "dict", 512'270, 201'144},
  };
  return info;
}

TEST(WireV5Test, V5RoundTripsStorageBlock) {
  const TableInfo info = MakeStorageInfo();
  const std::string bytes = EncodedInfo(info);
  WireReader r(bytes);
  Result<TableInfo> decoded = DecodeTableInfo(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(decoded->shards, 4);
  ASSERT_EQ(decoded->storage.size(), info.storage.size());
  for (size_t i = 0; i < info.storage.size(); ++i) {
    EXPECT_EQ(decoded->storage[i].column, info.storage[i].column);
    EXPECT_EQ(decoded->storage[i].encoding, info.storage[i].encoding);
    EXPECT_EQ(decoded->storage[i].plain_bytes, info.storage[i].plain_bytes);
    EXPECT_EQ(decoded->storage[i].encoded_bytes, info.storage[i].encoded_bytes);
  }
  EXPECT_EQ(bytes, EncodedInfo(*decoded));
}

TEST(WireV5Test, HostileStorageCountFailsCleanly) {
  // Replace the (empty) storage block's zero count with a count that
  // nothing backs: the decoder must error out, not allocate 2^31 entries.
  TableInfo info = MakeStorageInfo();
  info.storage.clear();
  std::string bytes = EncodedInfo(info);
  bytes.resize(bytes.size() - 4);
  WireWriter tail;
  tail.PutU32(0x7fffffffu);
  bytes += tail.buffer();
  WireReader r(bytes);
  EXPECT_FALSE(DecodeTableInfo(&r).ok());
}

TEST(WireV5Test, TruncationFuzzNeverCrashes) {
  const std::string bytes = EncodedInfo(MakeStorageInfo());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader r(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(DecodeTableInfo(&r).ok()) << "cut " << cut;
  }
}

TEST(WireV5Test, DataLossStatusSurvivesTheWire) {
  // kDataLoss is the code a shard reports when asked to recover a
  // future-format snapshot.
  WireWriter w;
  EncodeStatus(Status::DataLoss("snapshot needs a newer build"), &w);
  WireReader r(w.buffer());
  Status transported;
  ASSERT_TRUE(DecodeStatus(&r, &transported).ok());
  EXPECT_EQ(transported.code(), StatusCode::kDataLoss);
  EXPECT_EQ(transported.message(), "snapshot needs a newer build");
}

RetentionPolicy WindowPolicy() {
  RetentionPolicy policy;
  policy.time_column = "ts";
  policy.bucket_width = 1'000;
  policy.window_buckets = 10;
  policy.checkpoint_on_evict = false;
  policy.last_seen_capacity = 512;
  policy.last_seen_expected_ingest = 8'192;
  return policy;
}

std::string EncodedPolicy(const RetentionPolicy& policy) {
  WireWriter w;
  EncodeRetentionPolicy(policy, &w);
  return w.Take();
}

TEST(WireV6Test, RetentionPolicyRoundTrips) {
  const RetentionPolicy policy = WindowPolicy();
  const std::string bytes = EncodedPolicy(policy);
  WireReader r(bytes);
  Result<RetentionPolicy> decoded = DecodeRetentionPolicy(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(*decoded == policy);
  EXPECT_EQ(EncodedPolicy(*decoded), bytes);
}

TEST(WireV6Test, DisabledPolicyIsASingleZeroByte) {
  const std::string bytes = EncodedPolicy(RetentionPolicy());
  EXPECT_EQ(bytes, std::string(1, '\0'));
  WireReader r(bytes);
  Result<RetentionPolicy> decoded = DecodeRetentionPolicy(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->enabled());
}

TEST(WireV6Test, HostilePolicyFieldsRejected) {
  const auto rejects = [](const std::string& column, int64_t width,
                          int64_t window, int64_t capacity,
                          int64_t expected) {
    WireWriter w;
    w.PutBool(true);
    w.PutString(column);
    w.PutI64(width);
    w.PutI64(window);
    w.PutBool(true);
    w.PutI64(capacity);
    w.PutI64(expected);
    WireReader r(w.buffer());
    return !DecodeRetentionPolicy(&r).ok();
  };
  EXPECT_TRUE(rejects("", 1'000, 10, 512, 8'192));  // flag set, no column
  EXPECT_TRUE(rejects("ts", 0, 10, 512, 8'192));
  EXPECT_TRUE(rejects("ts", -5, 10, 512, 8'192));
  EXPECT_TRUE(rejects("ts", 1'000, 0, 512, 8'192));
  EXPECT_TRUE(rejects("ts", 1'000, 10, 0, 8'192));
  EXPECT_TRUE(rejects("ts", 1'000, 10, 512, -1));
  EXPECT_FALSE(rejects("ts", 1'000, 10, 512, 0));  // 0 = "use the default D"
}

TEST(WireV6Test, TruncationFuzzNeverCrashes) {
  const std::string bytes = EncodedPolicy(WindowPolicy());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader r(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(DecodeRetentionPolicy(&r).ok()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace sciborq
