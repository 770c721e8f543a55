// Concurrency hammer tests, designed to run under ThreadSanitizer (the CI
// `tsan` job runs this binary with -fsanitize=thread). Two protocols are
// exercised:
//
//  1. Checkpoint vs IngestBatch vs Query on one table. Queries must only
//     ever observe batch boundaries (the shared data lock makes ingest
//     atomic), and a checkpoint cut anywhere in the stream must reopen into
//     an engine that answers bit-identically to the one that wrote it.
//
//  2. Execute vs CloseStatement on one handle. Every Execute must either
//     produce the correct answer or fail NotFound — never crash, never
//     return a torn statement — because FindStatement hands Execute a
//     shared_ptr that keeps the template alive across a concurrent close.
//
//  3. Bounded queries vs IngestBatch on one table. Concurrent readers fill
//     each impression's inclusion-probability cache lazily while ingest
//     invalidates it; afterwards the engine must answer exactly like a
//     reopened copy whose caches start empty.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "skyserver/catalog.h"

#include "test_temp_dir.h"

namespace sciborq {
namespace {

Table SkyRows(int64_t rows, uint64_t seed) {
  SkyCatalogConfig config;
  config.num_rows = rows;
  return GenerateSkyCatalog(config, seed).value().photo_obj_all;
}

Table SliceRows(const Table& src, int64_t begin, int64_t end) {
  Table out(src.schema());
  for (int64_t row = begin; row < end; ++row) out.AppendRowFrom(src, row);
  return out;
}

TableOptions SmallBiased() {
  TableOptions options;
  options.layers = {{"L0", 2'000}, {"L1", 200}};
  options.seed = 11;
  // A tracker makes ingest read the interest histograms mid-stream — the
  // aliased tracker path the static analysis cannot see; TSan watches it
  // here.
  options.tracked_attributes = {{"ra", 120.0, 3.0, 40}};
  return options;
}

/// Checkpoint, ingest, and query the same table from concurrent threads.
/// The count query runs EXACT under the shared data lock, so every answer
/// must land exactly on a batch boundary: kInitialRows + k * kBatchRows.
TEST(RaceTest, CheckpointVsIngestVsQuery) {
  constexpr int64_t kInitialRows = 3'000;
  constexpr int64_t kBatchRows = 500;
  constexpr int kBatches = 8;

  TempDir dir;
  std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
  const Table all = SkyRows(kInitialRows + kBatches * kBatchRows, 5);
  ASSERT_TRUE(engine
                  ->CreateTable("sky", all.schema(), SmallBiased())
                  .ok());
  ASSERT_TRUE(
      engine->IngestBatch("sky", SliceRows(all, 0, kInitialRows)).ok());

  // Every thread runs a fixed number of iterations rather than spinning
  // until the ingester finishes: a run-until-done reader loop would keep the
  // shared data lock continuously held and starve the exclusive ingester
  // (glibc rwlocks prefer readers), turning the test into a minutes-long
  // stall on small machines.
  std::thread ingester([&] {
    for (int b = 0; b < kBatches; ++b) {
      const int64_t begin = kInitialRows + b * kBatchRows;
      const Status st =
          engine->IngestBatch("sky", SliceRows(all, begin, begin + kBatchRows));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  });

  std::thread checkpointer([&] {
    for (int i = 0; i < 6; ++i) {
      const Status st = engine->Checkpoint("sky");
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  });

  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const Result<QueryOutcome> outcome =
            engine->Query("SELECT COUNT(*) FROM sky EXACT");
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        const int64_t count =
            static_cast<int64_t>(outcome.value().rows[0].values[0]);
        // Ingest is atomic under the exclusive data lock: a reader can only
        // ever see whole batches.
        EXPECT_GE(count, kInitialRows);
        EXPECT_EQ((count - kInitialRows) % kBatchRows, 0)
            << "query observed a half-ingested batch: " << count;
      }
    });
  }

  ingester.join();
  for (auto& q : queriers) q.join();
  checkpointer.join();

  // Whatever interleaving ran, the final state must checkpoint and reopen
  // bit-identically (the recovery_test property, now under contention
  // beforehand).
  ASSERT_TRUE(engine->Checkpoint("sky").ok());
  const QueryOutcome pre =
      engine->Query("SELECT AVG(r) FROM sky WITHIN 10000 MS ERROR 20%")
          .value();
  EXPECT_EQ(engine->TableRows("sky").value(),
            kInitialRows + kBatches * kBatchRows);
  engine.reset();

  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  const QueryOutcome post =
      reopened->Query("SELECT AVG(r) FROM sky WITHIN 10000 MS ERROR 20%")
          .value();
  EXPECT_TRUE(EquivalentAnswers(pre, post))
      << "pre: " << pre.ToString() << "\npost: " << post.ToString();
}

/// Execute racing CloseStatement on the same handle: each Execute either
/// answers correctly (it looked up the statement before the close landed)
/// or fails NotFound (after). Anything else — a crash, a torn template, a
/// wrong answer — is the bug this test exists to catch.
TEST(RaceTest, ExecuteVsCloseStatement) {
  constexpr int kRounds = 40;
  constexpr int64_t kRows = 2'000;

  Engine engine;
  const Table rows = SkyRows(kRows, 9);
  TableOptions options;
  options.layers = {{"L0", 1'000}, {"L1", 100}};
  ASSERT_TRUE(engine.CreateTable("sky", rows.schema(), options).ok());
  ASSERT_TRUE(engine.IngestBatch("sky", rows).ok());

  const std::string sql = "SELECT COUNT(*) FROM sky EXACT";
  const double expect = static_cast<double>(kRows);

  for (int round = 0; round < kRounds; ++round) {
    const StatementHandle handle = engine.Prepare(sql).value();

    std::vector<std::thread> executors;
    for (int t = 0; t < 2; ++t) {
      executors.emplace_back([&] {
        for (int i = 0; i < 4; ++i) {
          const Result<QueryOutcome> outcome = engine.Execute(handle, {});
          if (outcome.ok()) {
            EXPECT_DOUBLE_EQ(outcome.value().rows[0].values[0], expect);
          } else {
            EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound)
                << outcome.status().ToString();
          }
        }
      });
    }
    std::thread closer([&] {
      const Status st = engine.CloseStatement(handle);
      EXPECT_TRUE(st.ok()) << st.ToString();
    });

    for (auto& e : executors) e.join();
    closer.join();

    // The close won exactly once; nothing leaked.
    EXPECT_EQ(engine.CloseStatement(handle).code(), StatusCode::kNotFound);
    EXPECT_EQ(engine.open_statements(), 0);
  }
}

/// Bounded queries answered from the impressions race IngestBatch. Readers
/// share the data lock, so two of them can reach an empty probability cache
/// at once; ingest drops the caches under the exclusive lock. A stale cache
/// would survive into the final answers, which must equal those of a
/// reopened engine built from the same state with empty caches.
TEST(RaceTest, BoundedQueriesVsIngest) {
  constexpr int64_t kInitialRows = 3'000;
  constexpr int64_t kBatchRows = 500;
  constexpr int kBatches = 8;
  const std::vector<std::string> queries = {
      "SELECT COUNT(*), AVG(r) FROM sky WHERE ra >= 100 AND ra <= 200 "
      "ERROR 50%",
      "SELECT COUNT(*), SUM(r) FROM sky WHERE ra >= 110 AND ra <= 130 AND "
      "dec >= -10 AND dec <= 10 ERROR 50%",
      "SELECT AVG(r) FROM sky ERROR 50%"};

  TempDir dir;
  std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
  const Table all = SkyRows(kInitialRows + kBatches * kBatchRows, 13);
  ASSERT_TRUE(engine->CreateTable("sky", all.schema(), SmallBiased()).ok());
  ASSERT_TRUE(
      engine->IngestBatch("sky", SliceRows(all, 0, kInitialRows)).ok());

  std::thread ingester([&] {
    for (int b = 0; b < kBatches; ++b) {
      const int64_t begin = kInitialRows + b * kBatchRows;
      const Status st =
          engine->IngestBatch("sky", SliceRows(all, begin, begin + kBatchRows));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  });
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        const std::string& sql = queries[static_cast<size_t>(t + i) % 3];
        const Result<QueryOutcome> outcome = engine->Query(sql);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_FALSE(outcome.value().rows.empty());
      }
    });
  }
  ingester.join();
  for (auto& q : queriers) q.join();

  std::vector<QueryOutcome> before;
  before.reserve(queries.size());
  for (const std::string& sql : queries) {
    before.push_back(engine->Query(sql).value());
  }
  ASSERT_TRUE(engine->Checkpoint("sky").ok());
  engine.reset();
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  for (size_t q = 0; q < queries.size(); ++q) {
    const QueryOutcome after = reopened->Query(queries[q]).value();
    EXPECT_TRUE(EquivalentAnswers(before[q], after))
        << "before: " << before[q].ToString()
        << "\nafter: " << after.ToString();
  }
}

}  // namespace
}  // namespace sciborq
