#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "column/csv.h"
#include "exec/parser.h"
#include "skyserver/catalog.h"
#include "util/string_util.h"

namespace sciborq {
namespace {

TableOptions SmallLayers() {
  TableOptions options;
  options.layers = {{"L0", 5'000}, {"L1", 500}};
  options.seed = 7;
  return options;
}

/// An engine preloaded with `rows` synthetic PhotoObjAll rows under `name`.
void LoadSky(Engine* engine, const std::string& name, int64_t rows,
             uint64_t seed) {
  SkyCatalogConfig config;
  config.num_rows = rows;
  const SkyCatalog catalog = GenerateSkyCatalog(config, seed).value();
  ASSERT_TRUE(engine
                  ->CreateTable(name, catalog.photo_obj_all.schema(),
                                SmallLayers())
                  .ok());
  ASSERT_TRUE(engine->IngestBatch(name, catalog.photo_obj_all).ok());
}

/// Fraction of `t`'s rows inside the 3-degree box around (ra, dec) =
/// (150, 12), the focus the workload tests query.
double FocusFraction(const Table& t) {
  const Column* ra = t.ColumnByName("ra").value();
  const Column* dec = t.ColumnByName("dec").value();
  int64_t hits = 0;
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    if (std::abs(ra->GetDouble(i) - 150.0) < 3.0 &&
        std::abs(dec->GetDouble(i) - 12.0) < 3.0) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(t.num_rows());
}

// ----------------------------------------------------------- catalog -----

TEST(EngineTest, MultiTableCatalog) {
  Engine engine;
  LoadSky(&engine, "sky_a", 20'000, 1);
  LoadSky(&engine, "sky_b", 10'000, 2);

  const std::vector<std::string> names = engine.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "sky_a");
  EXPECT_EQ(names[1], "sky_b");
  EXPECT_EQ(engine.TableRows("sky_a").value(), 20'000);
  EXPECT_EQ(engine.TableRows("sky_b").value(), 10'000);

  // FROM routes to the right table: exact counts differ.
  const QueryOutcome a =
      engine.Query("SELECT COUNT(*) FROM sky_a EXACT").value();
  const QueryOutcome b =
      engine.Query("SELECT COUNT(*) FROM sky_b EXACT").value();
  EXPECT_DOUBLE_EQ(a.rows[0].values[0], 20'000.0);
  EXPECT_DOUBLE_EQ(b.rows[0].values[0], 10'000.0);
  EXPECT_EQ(a.table, "sky_a");
  EXPECT_TRUE(a.exact);

  // Duplicate registration is refused.
  const Status dup =
      engine.CreateTable("sky_a", PhotoObjSchema(), SmallLayers());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(EngineTest, ErrorPaths) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 3);

  // Unknown table.
  const auto unknown = engine.Query("SELECT COUNT(*) FROM nope EXACT");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("'nope'"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("sky"), std::string::npos)
      << "error should list registered tables: "
      << unknown.status().message();

  // Unparsable SQL.
  const auto garbage = engine.Query("SELECTY COUNT(*) FROM sky");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.Query("SELECT COUNT(*) FROM sky WITHIN -1 MS").ok());

  // Missing FROM at the engine level (no session default to fall back on).
  const auto no_from = engine.Query("SELECT COUNT(*)");
  ASSERT_FALSE(no_from.ok());
  EXPECT_EQ(no_from.status().code(), StatusCode::kInvalidArgument);

  // Ingest schema mismatch.
  Table wrong{Schema({Field{"only", DataType::kInt64, true}})};
  EXPECT_EQ(engine.IngestBatch("sky", wrong).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.IngestBatch("nope", wrong).code(), StatusCode::kNotFound);

  // Introspection errors.
  EXPECT_EQ(engine.TableRows("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.LayerSnapshot("sky", 99).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.DecayInterest("sky", 0.5).code(),
            StatusCode::kFailedPrecondition);  // no tracked attributes
}

TEST(EngineTest, RegisterCsvRoundTrip) {
  SkyCatalogConfig config;
  config.num_rows = 2'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 4).value();
  const std::string path = testing::TempDir() + "/sciborq_engine.csv";
  ASSERT_TRUE(WriteCsv(catalog.photo_obj_all, path).ok());

  Engine engine;
  const Result<int64_t> loaded =
      engine.RegisterCsv("from_csv", path, SmallLayers());
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2'000);
  const QueryOutcome outcome =
      engine.Query("SELECT COUNT(*) FROM from_csv EXACT").value();
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 2'000.0);

  // A broken CSV fails with an actionable message, and registers nothing.
  const std::string bad_path = testing::TempDir() + "/sciborq_engine_bad.csv";
  {
    std::ofstream out(bad_path);
    out << "id:int64\n1\nnot_a_number\n";
  }
  const auto bad = engine.RegisterCsv("bad", bad_path);
  std::remove(bad_path.c_str());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos)
      << bad.status().message();
  EXPECT_EQ(engine.TableNames().size(), 1u);
}

// ----------------------------------------------------------- querying ----

TEST(EngineTest, BoundedQueryEscalatesWithTrace) {
  Engine engine;
  LoadSky(&engine, "photo_obj_all", 40'000, 5);

  // The acceptance-criteria query shape: bounds in the SQL, trace out.
  const QueryOutcome outcome =
      engine
          .Query("SELECT COUNT(*), AVG(r) FROM photo_obj_all "
                 "WHERE cone(ra, dec; 170, 30; r=10) WITHIN 50 MS ERROR 5%")
          .value();
  ASSERT_FALSE(outcome.attempts.empty());
  EXPECT_FALSE(outcome.answered_by.empty());
  ASSERT_EQ(outcome.rows.size(), 1u);
  ASSERT_EQ(outcome.estimates.size(), 1u);
  EXPECT_EQ(outcome.estimates[0].size(), 2u);
  // The trace starts at the smallest layer.
  EXPECT_EQ(outcome.attempts[0].layer_name, "L1");

  // EXACT answers carry zero-width exact intervals.
  const QueryOutcome exact =
      engine
          .Query("SELECT COUNT(*), AVG(r) FROM photo_obj_all "
                 "WHERE cone(ra, dec; 170, 30; r=10) EXACT")
          .value();
  EXPECT_TRUE(exact.exact);
  EXPECT_TRUE(exact.error_bound_met);
  EXPECT_TRUE(exact.estimates[0][0].exact);
  EXPECT_DOUBLE_EQ(exact.estimates[0][0].ci_lo, exact.estimates[0][0].ci_hi);
  // The bounded estimate's CI covers the truth here (a seeded, dense cone).
  EXPECT_LE(outcome.estimates[0][0].ci_lo, exact.rows[0].values[0]);
  EXPECT_GE(outcome.estimates[0][0].ci_hi, exact.rows[0].values[0]);
}

TEST(EngineTest, QueryLogReplaysWithBounds) {
  Engine engine;
  LoadSky(&engine, "photo_obj_all", 10'000, 6);

  const std::string sql =
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
      "WHERE cone(ra, dec; 170, 30; r=10) WITHIN 50 MS ERROR 5%";
  const QueryOutcome outcome = engine.Query(sql).value();
  EXPECT_EQ(outcome.sql, sql);  // already normalized

  const std::vector<std::string> logged =
      engine.LoggedSql("photo_obj_all").value();
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0], sql);

  // The replayed SQL parses back to an equal query + bounds.
  const BoundedQuery replayed = ParseBoundedQuery(logged[0]).value();
  EXPECT_EQ(replayed.ToString(), sql);
  EXPECT_DOUBLE_EQ(replayed.bounds.time_budget_ms, 50.0);
  EXPECT_DOUBLE_EQ(replayed.bounds.max_relative_error, 0.05);
  // ... and re-executes through the parsed-query overload.
  EXPECT_TRUE(engine.Query(replayed).ok());
  EXPECT_EQ(engine.LoggedSql("photo_obj_all")->size(), 2u);
}

TEST(EngineTest, SessionDefaultsTableAndBounds) {
  Engine engine;
  LoadSky(&engine, "sky", 10'000, 8);

  Session session(&engine);
  // No default table yet: bare SQL is rejected.
  EXPECT_FALSE(session.Query("SELECT COUNT(*)").ok());
  EXPECT_EQ(session.Use("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(session.Use("sky").ok());

  QueryBounds bounds;
  bounds.exact = true;
  session.set_default_bounds(bounds);
  const QueryOutcome outcome = session.Query("SELECT COUNT(*)").value();
  EXPECT_EQ(outcome.table, "sky");
  EXPECT_TRUE(outcome.exact);  // session default applied
  EXPECT_EQ(session.queries_run(), 1);

  // Explicit SQL beats session defaults.
  const QueryOutcome explicit_outcome =
      session.Query("SELECT COUNT(*) FROM sky ERROR 60%").value();
  EXPECT_EQ(explicit_outcome.answered_by, "L1");
}

TEST(EngineTest, WorkloadReplayBiasesNextIngest) {
  SkyCatalogConfig config;
  config.num_rows = 30'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 9).value();

  Engine engine;
  TableOptions options = SmallLayers();
  options.tracked_attributes = {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}};
  ASSERT_TRUE(
      engine.CreateTable("sky", catalog.photo_obj_all.schema(), options).ok());

  // Replay a focused historical workload, then load.
  AggregateQuery probe = ParseQuery(
      "SELECT COUNT(*) WHERE cone(ra, dec; 150, 12; r=3)").value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.RecordWorkload("sky", probe).ok());
  }
  ASSERT_TRUE(engine.IngestBatch("sky", catalog.photo_obj_all).ok());

  // The top layer over-represents the focus region vs the base fraction.
  EXPECT_GT(FocusFraction(engine.LayerSnapshot("sky", 0).value()),
            1.5 * FocusFraction(catalog.photo_obj_all));
}

TEST(EngineTest, QueryFeedsLogAndInterestTracker) {
  // The adaptive feedback loop (§3.1) is a side effect of Engine::Query:
  // every answered query, bounded or EXACT, lands once in the table's log
  // and in its interest tracker, which biases the next ingest.
  SkyCatalogConfig config;
  config.num_rows = 30'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 9).value();

  Engine engine;
  TableOptions options = SmallLayers();
  options.tracked_attributes = {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}};
  ASSERT_TRUE(
      engine.CreateTable("sky", catalog.photo_obj_all.schema(), options).ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(engine
                    .Query("SELECT COUNT(*) FROM sky "
                           "WHERE cone(ra, dec; 150, 12; r=3) ERROR 20%")
                    .ok());
    ASSERT_TRUE(engine
                    .Query("SELECT COUNT(*) FROM sky "
                           "WHERE cone(ra, dec; 150, 12; r=3) EXACT")
                    .ok());
  }
  EXPECT_EQ(engine.LoggedSql("sky")->size(), 50u);
  EXPECT_EQ(engine.GetTableInfo("sky")->logged_queries, 50);

  ASSERT_TRUE(engine.IngestBatch("sky", catalog.photo_obj_all).ok());
  EXPECT_GT(FocusFraction(engine.LayerSnapshot("sky", 0).value()),
            1.5 * FocusFraction(catalog.photo_obj_all));
}

// -------------------------------------------------------- concurrency ----

/// Two outcomes are bit-identical when every value and interval matches
/// exactly (no tolerance): the determinism contract of Engine::Query.
void ExpectBitIdentical(const QueryOutcome& a, const QueryOutcome& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(a.answered_by, b.answered_by);
  EXPECT_EQ(a.error_bound_met, b.error_bound_met);
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].values.size(), b.rows[r].values.size());
    EXPECT_EQ(a.rows[r].input_rows, b.rows[r].input_rows);
    for (size_t v = 0; v < a.rows[r].values.size(); ++v) {
      EXPECT_EQ(a.rows[r].values[v], b.rows[r].values[v]);
    }
    for (size_t e = 0; e < a.estimates[r].size(); ++e) {
      EXPECT_EQ(a.estimates[r][e].estimate, b.estimates[r][e].estimate);
      EXPECT_EQ(a.estimates[r][e].std_error, b.estimates[r][e].std_error);
      EXPECT_EQ(a.estimates[r][e].ci_lo, b.estimates[r][e].ci_lo);
      EXPECT_EQ(a.estimates[r][e].ci_hi, b.estimates[r][e].ci_hi);
    }
  }
}

std::vector<std::string> ConcurrencyWorkload() {
  std::vector<std::string> sqls;
  for (int i = 0; i < 6; ++i) {
    const double ra = 140.0 + 12.0 * i;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "SELECT COUNT(*), AVG(r) FROM sky "
                  "WHERE cone(ra, dec; %.0f, 30; r=12) ERROR 40%%",
                  ra);
    sqls.emplace_back(buf);
  }
  sqls.push_back(
      "SELECT COUNT(*), AVG(redshift) FROM sky GROUP BY obj_class "
      "ERROR 50%");
  sqls.push_back("SELECT COUNT(*) FROM sky EXACT");
  sqls.push_back("SELECT VAR(redshift) FROM sky ERROR 30%");
  return sqls;
}

TEST(EngineTest, ConcurrentQueriesBitIdenticalToSerial) {
  Engine engine;
  LoadSky(&engine, "sky", 30'000, 10);
  const std::vector<std::string> sqls = ConcurrencyWorkload();

  // Serial reference. Error-bound-only contracts make escalation
  // deterministic (no wall-clock dependence), so repeated runs must agree.
  std::vector<QueryOutcome> serial;
  for (const auto& sql : sqls) {
    serial.push_back(engine.Query(sql).value());
  }

  // 4 threads x 3 rounds, every thread running the full workload.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<QueryOutcome>> per_thread(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& sql : sqls) {
          Result<QueryOutcome> outcome = engine.Query(sql);
          if (!outcome.ok()) {
            failures.fetch_add(1);
            return;
          }
          per_thread[static_cast<size_t>(t)].push_back(
              std::move(outcome).value());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[static_cast<size_t>(t)].size(),
              sqls.size() * kRounds);
    for (size_t i = 0; i < per_thread[static_cast<size_t>(t)].size(); ++i) {
      ExpectBitIdentical(per_thread[static_cast<size_t>(t)][i],
                         serial[i % sqls.size()]);
    }
  }

  // Every query landed in the log exactly once.
  EXPECT_EQ(engine.LoggedSql("sky")->size(),
            sqls.size() * (1 + kThreads * kRounds));
}

TEST(EngineTest, IngestWhileQueryingIsSafe) {
  SkyCatalogConfig config;
  config.num_rows = 5'000;
  Engine engine;
  SkyStream stream(config, 11);
  ASSERT_TRUE(
      engine.CreateTable("sky", stream.schema(), SmallLayers()).ok());
  ASSERT_TRUE(engine.IngestBatch("sky", stream.NextBatch(5'000)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Result<QueryOutcome> outcome = engine.Query(
            "SELECT COUNT(*), AVG(r) FROM sky "
            "WHERE cone(ra, dec; 170, 30; r=15) ERROR 30%");
        if (!outcome.ok() || outcome->rows.size() != 1) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int batch = 0; batch < 10; ++batch) {
    ASSERT_TRUE(engine.IngestBatch("sky", stream.NextBatch(2'000)).ok());
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.TableRows("sky").value(), 25'000);

  // Post-race sanity: an exact count sees every ingested row.
  const QueryOutcome exact =
      engine.Query("SELECT COUNT(*) FROM sky EXACT").value();
  EXPECT_DOUBLE_EQ(exact.rows[0].values[0], 25'000.0);
}

// ------------------------------------------------ prepared statements -----

constexpr char kBoxTemplate[] =
    "SELECT COUNT(*), AVG(r) FROM sky "
    "WHERE ra >= ? AND ra <= ? AND dec >= ? AND dec <= ? ERROR 25%";

std::vector<Value> BoxParams(int i) {
  const double ra = 150.0 + 3.0 * (i % 7);
  const double dec = 20.0 + 2.0 * (i % 5);
  return {Value(ra - 15.0), Value(ra + 15.0), Value(dec - 15.0),
          Value(dec + 15.0)};
}

std::string BoxSql(int i) {
  const double ra = 150.0 + 3.0 * (i % 7);
  const double dec = 20.0 + 2.0 * (i % 5);
  return StrFormat(
      "SELECT COUNT(*), AVG(r) FROM sky "
      "WHERE ra >= %.17g AND ra <= %.17g AND dec >= %.17g AND dec <= %.17g "
      "ERROR 25%%",
      ra - 15.0, ra + 15.0, dec - 15.0, dec + 15.0);
}

TEST(PreparedStatementTest, PrepareExecuteCloseLifecycle) {
  Engine engine;
  LoadSky(&engine, "sky", 20'000, 5);
  EXPECT_EQ(engine.open_statements(), 0);

  const StatementHandle handle = engine.Prepare(kBoxTemplate).value();
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(engine.open_statements(), 1);

  const StatementInfo info = engine.GetStatement(handle).value();
  EXPECT_EQ(info.table, "sky");
  EXPECT_EQ(info.num_params, 4u);
  EXPECT_NE(info.sql.find("ra >= ?"), std::string::npos) << info.sql;

  // The acceptance bar: Execute(handle, params) is EquivalentAnswers-equal
  // to Query() of the equivalent fully-bound SQL.
  for (int i = 0; i < 10; ++i) {
    const QueryOutcome bound = engine.Execute(handle, BoxParams(i)).value();
    const QueryOutcome rendered = engine.Query(BoxSql(i)).value();
    EXPECT_TRUE(EquivalentAnswers(bound, rendered))
        << "i=" << i << "\nbound:    " << bound.ToString()
        << "\nrendered: " << rendered.ToString();
  }

  ASSERT_TRUE(engine.CloseStatement(handle).ok());
  EXPECT_EQ(engine.open_statements(), 0);
  EXPECT_EQ(engine.Execute(handle, BoxParams(0)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.CloseStatement(handle).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.GetStatement(handle).status().code(),
            StatusCode::kNotFound);
}

TEST(PreparedStatementTest, PrepareErrors) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 6);

  // Unknown table fails at prepare time, not on the Nth execute.
  EXPECT_EQ(engine.Prepare("SELECT COUNT(*) FROM nope WHERE x = ?")
                .status()
                .code(),
            StatusCode::kNotFound);
  // Missing FROM clause.
  EXPECT_EQ(engine.Prepare("SELECT COUNT(*) WHERE x = ?").status().code(),
            StatusCode::kInvalidArgument);
  // Unparsable template (with the caret diagnostics).
  const auto bad = engine.Prepare("SELECT COUNT(* FROM sky");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("offset"), std::string::npos);
  EXPECT_EQ(engine.open_statements(), 0);
}

TEST(PreparedStatementTest, ArityAndTypeMismatchErrors) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 7);

  const StatementHandle handle =
      engine.Prepare("SELECT COUNT(*) FROM sky WHERE ra > ? AND obj_class = ?")
          .value();

  // Arity: too few / too many.
  const auto too_few = engine.Execute(handle, {Value(150.0)});
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_few.status().message().find("expects 2 parameter(s), got 1"),
            std::string::npos)
      << too_few.status().message();
  EXPECT_FALSE(
      engine.Execute(handle, {Value(1.0), Value("G"), Value(2.0)}).ok());

  // Type: a string bound where the column is numeric, and vice versa.
  const auto str_for_num =
      engine.Execute(handle, {Value("oops"), Value("GALAXY")});
  ASSERT_FALSE(str_for_num.ok());
  EXPECT_EQ(str_for_num.status().code(), StatusCode::kInvalidArgument);
  const auto num_for_str =
      engine.Execute(handle, {Value(150.0), Value(int64_t{3})});
  ASSERT_FALSE(num_for_str.ok());
  EXPECT_EQ(num_for_str.status().code(), StatusCode::kInvalidArgument);

  // NULL binds are rejected before execution.
  EXPECT_FALSE(engine.Execute(handle, {Value::Null(), Value("GALAXY")}).ok());

  // The statement survives failed binds and still answers good ones.
  EXPECT_TRUE(engine.Execute(handle, {Value(150.0), Value("GALAXY")}).ok());
}

TEST(PreparedStatementTest, ExecuteFeedsWorkloadLogWithBoundSql) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 9);

  const StatementHandle handle =
      engine.Prepare("SELECT COUNT(*) FROM sky WHERE ra > ? ERROR ?%")
          .value();
  const QueryOutcome outcome =
      engine.Execute(handle, {Value(170.25), Value(int64_t{30})}).value();

  // The log holds the *bound* statement — replayable SQL with true focal
  // points, not the `?` template (workload-biased sampling depends on it).
  const std::vector<std::string> logged = engine.LoggedSql("sky").value();
  ASSERT_FALSE(logged.empty());
  EXPECT_EQ(logged.back(),
            "SELECT COUNT(*) FROM sky WHERE ra > 170.25 ERROR 30%");
  EXPECT_EQ(outcome.sql, logged.back());
}

TEST(PreparedStatementTest, ConcurrentExecutesBitIdenticalToSerial) {
  Engine engine;
  LoadSky(&engine, "sky", 20'000, 10);
  const StatementHandle handle = engine.Prepare(kBoxTemplate).value();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  // Serial baseline first (the table is static, so order cannot matter).
  std::vector<QueryOutcome> baseline;
  baseline.reserve(kPerThread);
  for (int i = 0; i < kPerThread; ++i) {
    baseline.push_back(engine.Execute(handle, BoxParams(i)).value());
  }

  std::vector<std::vector<QueryOutcome>> per_thread(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, handle, &per_thread, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Result<QueryOutcome> outcome = engine.Execute(handle, BoxParams(i));
        if (!outcome.ok()) {
          failures.fetch_add(1);
          return;
        }
        per_thread[t].push_back(std::move(outcome).value());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[t].size(), static_cast<size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(EquivalentAnswers(per_thread[t][i], baseline[i]))
          << "thread " << t << ", query " << i;
    }
  }
}

TEST(PreparedStatementTest, SessionScopesAndCleansUpHandles) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 11);

  {
    Session session(&engine);
    ASSERT_TRUE(session.Use("sky").ok());
    QueryBounds bounds;
    bounds.exact = true;
    session.set_default_bounds(bounds);

    // FROM-less template: the session's default table fills in; a bare
    // template also inherits the session's default bounds.
    const StatementInfo info =
        session.Prepare("SELECT COUNT(*) WHERE ra > ?").value();
    EXPECT_EQ(info.table, "sky");
    EXPECT_EQ(info.num_params, 1u);
    const QueryOutcome outcome =
        session.Execute(info.handle, {Value(150.0)}).value();
    EXPECT_TRUE(outcome.exact);  // session default bounds applied

    // A template that carries its own bounds (even via `?`) does not.
    const StatementInfo bounded =
        session.Prepare("SELECT COUNT(*) WHERE ra > ? ERROR ?%").value();
    const QueryOutcome approx =
        session.Execute(bounded.handle, {Value(150.0), Value(60.0)}).value();
    EXPECT_FALSE(approx.exact);

    // Another session cannot see this session's handles...
    Session other(&engine);
    EXPECT_EQ(other.Execute(info.handle, {Value(150.0)}).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(other.CloseStatement(info.handle).code(), StatusCode::kNotFound);
    // ...but the engine-level registry holds both.
    EXPECT_EQ(engine.open_statements(), 2);
    EXPECT_EQ(session.open_statements(), 2);

    ASSERT_TRUE(session.CloseStatement(bounded.handle).ok());
    EXPECT_EQ(engine.open_statements(), 1);
  }
  // Session destruction closes what was left open.
  EXPECT_EQ(engine.open_statements(), 0);
}

TEST(PreparedStatementTest, SessionWithoutTableRejectsFromlessTemplate) {
  Engine engine;
  LoadSky(&engine, "sky", 2'000, 12);
  Session session(&engine);
  const auto r = session.Prepare("SELECT COUNT(*) WHERE x = ?");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sciborq
