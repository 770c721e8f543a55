// Decode-boundary hardening: every wire decoder runs over truncated and
// mutated copies of valid frames. Each decode must end in a Status or a
// value — never a crash, an over-read or an allocation sized by a hostile
// count (the sanitizer job runs this binary under ASan, which aborts on
// both). Counts a peer supplies are checked by BinaryReader::ReadCount
// against the bytes that could back them before anything is reserved.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "server/wire.h"
#include "util/rng.h"

namespace sciborq {
namespace {

/// One decoder under test: a valid encoded frame and a function that decodes
/// a (possibly damaged) copy, returning whether it decoded and consumed the
/// whole buffer.
struct DecodeCase {
  std::string name;
  std::string frame;
  std::function<bool(std::string_view)> decode;
};

template <typename Decode>
std::function<bool(std::string_view)> Consuming(Decode decode) {
  return [decode](std::string_view bytes) {
    WireReader r(bytes);
    const bool ok = decode(&r);
    return ok && r.ExpectEnd().ok();
  };
}

template <typename Encode>
std::string Encoded(Encode encode) {
  WireWriter w;
  encode(&w);
  return w.Take();
}

AggregateEstimate SampleEstimate(double v) {
  AggregateEstimate e;
  e.estimate = v;
  e.std_error = 0.5;
  e.ci_lo = v - 1.0;
  e.ci_hi = v + 1.0;
  e.confidence = 0.95;
  e.sample_rows = 40;
  return e;
}

QueryOutcome SampleOutcome() {
  QueryOutcome outcome;
  outcome.table = "sky";
  outcome.sql = "SELECT COUNT(*), AVG(r) FROM sky GROUP BY obj_class ERROR 5%";
  outcome.answered_by = "l0";
  outcome.error_bound_met = true;
  outcome.elapsed_seconds = 0.002;
  for (const char* key : {"GALAXY", "STAR"}) {
    QueryResultRow row;
    row.group_key = Value(key);
    row.values = {120.0, 17.5};
    row.input_rows = 12;
    outcome.rows.push_back(row);
    outcome.estimates.push_back({SampleEstimate(120.0), SampleEstimate(17.5)});
  }
  for (const char* layer : {"l1", "l0"}) {
    LayerAttempt attempt;
    attempt.layer_name = layer;
    attempt.layer_rows = 1000;
    attempt.matching_rows = 12;
    attempt.worst_relative_error = 0.04;
    outcome.attempts.push_back(attempt);
  }
  outcome.shards_responded = 2;
  outcome.shards_total = 2;
  for (int r = 0; r < 2; ++r) {
    AggregateMoments count;
    count.AddRowOnly();
    AggregateMoments avg;
    avg.Add(17.0);
    avg.Add(18.0);
    outcome.partials.push_back({count, avg});
  }
  outcome.query_id = "q-1";
  outcome.spans = {{"parse", 0.0, 1e-5}, {"l0", 1e-5, 1e-3}};
  return outcome;
}

TableInfo SampleTableInfo() {
  TableInfo info;
  info.name = "sky";
  info.rows = 1000;
  info.schema = Schema({{"objid", DataType::kInt64, false},
                        {"ra", DataType::kDouble, true}});
  info.layers = {{"l0", 100, 100, "biased"}, {"l1", 10, 10, "uniform"}};
  info.population_seen = 1000;
  info.biased = true;
  info.logged_queries = 3;
  info.shards = 2;
  info.storage = {{"objid", "for", 8000, 1200}, {"ra", "plain", 8000, 8000}};
  return info;
}

std::vector<DecodeCase> AllDecodeCases() {
  std::vector<DecodeCase> cases;
  const QueryOutcome outcome = SampleOutcome();
  const QueryResultRow& row = outcome.rows[0];

  QueryBounds bounds;
  bounds.time_budget_ms = 50.0;
  bounds.max_relative_error = 0.05;
  bounds.confidence = 0.95;
  cases.push_back(
      {"bounds", Encoded([&](WireWriter* w) { EncodeBounds(bounds, w); }),
       Consuming([](WireReader* r) { return DecodeBounds(r).ok(); })});
  cases.push_back(
      {"status",
       Encoded([](WireWriter* w) {
         EncodeStatus(Status::InvalidArgument("bad"), w);
       }),
       Consuming([](WireReader* r) {
         Status decoded;
         return DecodeStatus(r, &decoded).ok();
       })});
  cases.push_back(
      {"estimate",
       Encoded([](WireWriter* w) { EncodeEstimate(SampleEstimate(1.0), w); }),
       Consuming([](WireReader* r) { return DecodeEstimate(r).ok(); })});
  cases.push_back(
      {"attempt",
       Encoded([&](WireWriter* w) { EncodeAttempt(outcome.attempts[0], w); }),
       Consuming([](WireReader* r) { return DecodeAttempt(r).ok(); })});
  cases.push_back(
      {"result_row", Encoded([&](WireWriter* w) { EncodeResultRow(row, w); }),
       Consuming([](WireReader* r) { return DecodeResultRow(r).ok(); })});
  cases.push_back(
      {"moments",
       Encoded([&](WireWriter* w) {
         EncodeMoments(outcome.partials[0][1], w);
       }),
       Consuming([](WireReader* r) { return DecodeMoments(r).ok(); })});
  cases.push_back(
      {"outcome", Encoded([&](WireWriter* w) { EncodeOutcome(outcome, w); }),
       Consuming([](WireReader* r) { return DecodeOutcome(r).ok(); })});
  cases.push_back(
      {"table_info",
       Encoded([](WireWriter* w) { EncodeTableInfo(SampleTableInfo(), w); }),
       Consuming([](WireReader* r) { return DecodeTableInfo(r).ok(); })});
  cases.push_back(
      {"params",
       Encoded([](WireWriter* w) {
         EncodeParams({Value(int64_t{7}), Value(2.5), Value("s"),
                       Value::Null()},
                      w);
       }),
       Consuming([](WireReader* r) { return DecodeParams(r).ok(); })});
  StatementInfo stmt;
  stmt.handle.id = 4;
  stmt.table = "sky";
  stmt.sql = "SELECT COUNT(*) FROM sky WHERE ra > ?";
  stmt.num_params = 1;
  cases.push_back(
      {"statement_info",
       Encoded([&](WireWriter* w) { EncodeStatementInfo(stmt, w); }),
       Consuming([](WireReader* r) { return DecodeStatementInfo(r).ok(); })});
  cases.push_back(
      {"span", Encoded([&](WireWriter* w) { EncodeSpan(outcome.spans[1], w); }),
       Consuming([](WireReader* r) { return DecodeSpan(r).ok(); })});
  cases.push_back(
      {"stat_samples",
       Encoded([](WireWriter* w) {
         EncodeStatSamples({{"sciborq_queries_total", "{table=\"sky\"}", 3.0},
                            {"sciborq_up", "", 1.0}},
                           w);
       }),
       Consuming([](WireReader* r) { return DecodeStatSamples(r).ok(); })});
  obs::SlowQueryEntry slow;
  slow.query_id = "q-2";
  slow.table = "sky";
  slow.sql = "SELECT AVG(r) FROM sky WITHIN 1 MS";
  slow.asked_max_ms = 1.0;
  slow.answered_by = "l1";
  slow.trace = "l2 -> l1";
  cases.push_back(
      {"slow_queries",
       Encoded([&](WireWriter* w) { EncodeSlowQueries({slow, slow}, w); }),
       Consuming([](WireReader* r) { return DecodeSlowQueries(r).ok(); })});
  RetentionPolicy policy;
  policy.time_column = "ts";
  policy.bucket_width = 1000;
  policy.window_buckets = 10;
  cases.push_back(
      {"retention_policy",
       Encoded([&](WireWriter* w) { EncodeRetentionPolicy(policy, w); }),
       Consuming([](WireReader* r) { return DecodeRetentionPolicy(r).ok(); })});
  // Envelopes decode with their payloads, the way the server reads an
  // Execute request and the client reads a query response.
  const std::string execute = Encoded([](WireWriter* w) {
    w->PutI64(4);
    EncodeParams({Value(int64_t{7}), Value("s")}, w);
  });
  cases.push_back(
      {"execute_request",
       EncodeRequest(Opcode::kExecute, execute),
       [](std::string_view bytes) {
         const Result<RequestFrame> frame = DecodeRequest(bytes);
         if (!frame.ok()) return false;
         WireReader r(frame->payload);
         return r.ReadI64().ok() && DecodeParams(&r).ok() &&
                r.ExpectEnd().ok();
       }});
  const std::string answer =
      Encoded([&](WireWriter* w) { EncodeOutcome(outcome, w); });
  cases.push_back(
      {"query_response",
       EncodeResponse(Opcode::kQuery, Status::OK(), answer),
       [](std::string_view bytes) {
         const Result<ResponseFrame> frame = DecodeResponse(bytes);
         if (!frame.ok()) return false;
         WireReader r(frame->payload);
         return DecodeOutcome(&r).ok() && r.ExpectEnd().ok();
       }});
  return cases;
}

/// The frame that used to abort the process: a NULL group key, then a value
/// count of 0xFFFFFFFF that nothing backs. DecodeResultRow reserved it.
TEST(WireDecodeFuzzTest, HostileResultRowCountIsRejected) {
  const std::string frame("\x00\xff\xff\xff\xff", 5);
  WireReader r(frame);
  const Result<QueryResultRow> decoded = DecodeResultRow(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireDecodeFuzzTest, ReadCountBoundsCountsByRemainingBytes) {
  WireWriter w;
  w.PutU32(3);
  w.PutRaw("abcdefghijkl", 12);
  const std::string bytes = w.Take();
  WireReader exact(bytes);
  EXPECT_EQ(exact.ReadCount(4, "item").value(), 3u);
  WireReader too_many(bytes);
  EXPECT_EQ(too_many.ReadCount(5, "item").status().code(),
            StatusCode::kInvalidArgument);
  WireReader unchecked(bytes);
  EXPECT_TRUE(unchecked.ReadCount(0, "item").ok());
  EXPECT_FALSE(unchecked.CheckCount(-1, 0, "item").ok());
}

TEST(WireDecodeFuzzTest, EveryFrameDecodesIntact) {
  for (const DecodeCase& c : AllDecodeCases()) {
    EXPECT_TRUE(c.decode(c.frame)) << c.name;
  }
}

TEST(WireDecodeFuzzTest, EveryTruncationFailsCleanly) {
  for (const DecodeCase& c : AllDecodeCases()) {
    for (size_t len = 0; len < c.frame.size(); ++len) {
      EXPECT_FALSE(c.decode(std::string_view(c.frame.data(), len)))
          << c.name << " truncated to " << len << " bytes decoded";
    }
  }
}

TEST(WireDecodeFuzzTest, MutatedFramesNeverCrashOrOverAllocate) {
  Rng rng(2011);
  for (const DecodeCase& c : AllDecodeCases()) {
    SCOPED_TRACE(c.name);
    // Every byte set to the values that turn counts and lengths hostile.
    for (size_t pos = 0; pos < c.frame.size(); ++pos) {
      for (const int b : {0x00, 0x01, 0x7f, 0x80, 0xff}) {
        std::string bytes = c.frame;
        bytes[pos] = static_cast<char>(b);
        (void)c.decode(bytes);
      }
    }
    // Every 4-byte window set to a huge u32, wherever a count may sit.
    for (size_t pos = 0; pos + 4 <= c.frame.size(); ++pos) {
      for (const uint32_t count : {0xffffffffu, 0x7fffffffu, 0x10000000u}) {
        std::string bytes = c.frame;
        for (int k = 0; k < 4; ++k) {
          bytes[pos + static_cast<size_t>(k)] =
              static_cast<char>((count >> (8 * k)) & 0xff);
        }
        (void)c.decode(bytes);
      }
    }
    // Random multi-byte damage.
    for (int trial = 0; trial < 500; ++trial) {
      std::string bytes = c.frame;
      const int flips = 1 + static_cast<int>(rng.UniformInt(0, 3));
      for (int f = 0; f < flips && !bytes.empty(); ++f) {
        const auto pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[pos] = static_cast<char>(rng.UniformInt(0, 255));
      }
      (void)c.decode(bytes);
    }
  }
}

}  // namespace
}  // namespace sciborq
