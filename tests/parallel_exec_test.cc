#include <gtest/gtest.h>

#include <vector>

#include "core/bounded_executor.h"
#include "core/hierarchy.h"
#include "core/sharded_builder.h"
#include "exec/expr.h"
#include "exec/query.h"
#include "skyserver/catalog.h"
#include "util/thread_pool.h"
#include "workload/interest_tracker.h"

namespace sciborq {
namespace {

using LayerSpec = ImpressionHierarchy::LayerSpec;

/// Asserts two answers agree bit-for-bit: same rows, same point estimates,
/// same intervals. This is the determinism contract of the parallel scan
/// paths — not "close", identical.
void ExpectIdenticalAnswers(const BoundedAnswer& a, const BoundedAnswer& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  ASSERT_EQ(a.estimates.size(), a.rows.size());
  ASSERT_EQ(b.estimates.size(), b.rows.size());
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.estimates[r].size(), b.estimates[r].size());
    EXPECT_TRUE(a.rows[r].group_key == b.rows[r].group_key);
    EXPECT_EQ(a.rows[r].input_rows, b.rows[r].input_rows);
    ASSERT_EQ(a.rows[r].values.size(), b.rows[r].values.size());
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

class ParallelExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SkyCatalogConfig config;
    config.num_rows = 120'000;  // several morsels worth
    catalog_ = new SkyCatalog(GenerateSkyCatalog(config, 4242).value());
    pool_ = new ThreadPool(4);
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete catalog_;
    pool_ = nullptr;
    catalog_ = nullptr;
  }

  static SkyCatalog* catalog_;
  static ThreadPool* pool_;
};

SkyCatalog* ParallelExecTest::catalog_ = nullptr;
ThreadPool* ParallelExecTest::pool_ = nullptr;

TEST_F(ParallelExecTest, SelectAllMatchesSerial) {
  const PredicatePtr pred = Between("ra", 140.0, 200.0);
  const SelectionVector serial =
      SelectAll(catalog_->photo_obj_all, *pred).value();
  const SelectionVector parallel =
      SelectAll(catalog_->photo_obj_all, *pred, pool_).value();
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial.size(), 0u);
}

TEST_F(ParallelExecTest, RunExactUngroupedMatchesSerial) {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""},    {AggKind::kSum, "r"},
                  {AggKind::kAvg, "redshift"}, {AggKind::kMin, "g"},
                  {AggKind::kMax, "g"},     {AggKind::kVariance, "dec"}};
  q.filter = Between("ra", 130.0, 220.0);
  const auto serial = RunExact(catalog_->photo_obj_all, q).value();
  const auto parallel = RunExact(catalog_->photo_obj_all, q, pool_).value();
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(parallel.size(), 1u);
  EXPECT_EQ(serial[0].input_rows, parallel[0].input_rows);
  for (size_t v = 0; v < serial[0].values.size(); ++v) {
    EXPECT_EQ(serial[0].values[v], parallel[0].values[v]);
  }
}

TEST_F(ParallelExecTest, RunExactGroupedMatchesSerial) {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "r"}};
  q.group_by = "obj_class";
  const auto serial = RunExact(catalog_->photo_obj_all, q).value();
  const auto parallel = RunExact(catalog_->photo_obj_all, q, pool_).value();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t r = 0; r < serial.size(); ++r) {
    // Same group order (first appearance) and same values, bit-for-bit.
    EXPECT_TRUE(serial[r].group_key == parallel[r].group_key);
    EXPECT_EQ(serial[r].input_rows, parallel[r].input_rows);
    for (size_t v = 0; v < serial[r].values.size(); ++v) {
      EXPECT_EQ(serial[r].values[v], parallel[r].values[v]);
    }
  }
}

TEST_F(ParallelExecTest, EstimateOnUniformImpressionMatchesSerial) {
  ImpressionSpec spec;
  spec.capacity = 40'000;  // > 2 morsels so the parallel path engages
  spec.seed = 7;
  auto builder =
      ImpressionBuilder::Make(catalog_->photo_obj_all.schema(), spec).value();
  ASSERT_TRUE(builder.IngestBatch(catalog_->photo_obj_all).ok());
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "r"}};
  q.filter = Between("ra", 140.0, 200.0);
  const auto serial =
      EstimateOnImpression(builder.impression(), q, 0.95).value();
  const auto parallel =
      EstimateOnImpression(builder.impression(), q, 0.95, pool_).value();
  ExpectIdenticalAnswers(serial, parallel);
}

TEST_F(ParallelExecTest, EstimateOnBiasedImpressionMatchesSerial) {
  InterestTracker tracker =
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
          .value();
  for (int i = 0; i < 50; ++i) {
    tracker.ObserveValue("ra", 150.0);
    tracker.ObserveValue("dec", 12.0);
  }
  ImpressionSpec spec;
  spec.capacity = 40'000;
  spec.seed = 8;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  auto builder =
      ImpressionBuilder::Make(catalog_->photo_obj_all.schema(), spec).value();
  ASSERT_TRUE(builder.IngestBatch(catalog_->photo_obj_all).ok());
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "redshift"}};
  q.filter = Between("ra", 145.0, 155.0);
  const auto serial =
      EstimateOnImpression(builder.impression(), q, 0.95).value();
  const auto parallel =
      EstimateOnImpression(builder.impression(), q, 0.95, pool_).value();
  ExpectIdenticalAnswers(serial, parallel);
}

TEST_F(ParallelExecTest, BoundedExecutorParallelMatchesSerial) {
  ImpressionSpec spec;
  spec.seed = 21;
  auto hierarchy = ImpressionHierarchy::Make(
                       catalog_->photo_obj_all.schema(),
                       {{"L0", 30'000}, {"L1", 3'000}}, spec)
                       .value();
  ASSERT_TRUE(hierarchy.IngestBatch(catalog_->photo_obj_all).ok());
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "r"}};
  q.filter = Between("dec", 10.0, 50.0);
  QualityBound bound;
  bound.max_relative_error = 0.02;

  ThreadPool pool(4);
  BoundedExecutor serial_exec(&catalog_->photo_obj_all, &hierarchy);
  BoundedExecutor parallel_exec(&catalog_->photo_obj_all, &hierarchy, &pool);
  const auto serial = serial_exec.Answer(q.Clone(), bound).value();
  const auto parallel = parallel_exec.Answer(q.Clone(), bound).value();
  EXPECT_EQ(serial.answered_by, parallel.answered_by);
  ExpectIdenticalAnswers(serial, parallel);
}

// ------------------------------------------- encoded vs scalar oracle -----

/// The compressed-scan determinism contract: with every column carrying its
/// encoding sidecar (zone maps + RLE/FOR/dict payloads), SelectAll and
/// RunExact must return answers bit-identical to the sidecar-free scalar
/// scan, at 1 thread and at 4.
class EncodedExecTest : public ParallelExecTest {
 protected:
  static void SetUpTestSuite() {
    ParallelExecTest::SetUpTestSuite();
    encoded_ = new Table(catalog_->photo_obj_all);
    encoded_->BuildEncoding();
  }
  static void TearDownTestSuite() {
    delete encoded_;
    encoded_ = nullptr;
    ParallelExecTest::TearDownTestSuite();
  }
  static Table* encoded_;
};

Table* EncodedExecTest::encoded_ = nullptr;

TEST_F(EncodedExecTest, SelectAllBitIdenticalToScalarAtOneAndFourThreads) {
  const std::vector<PredicatePtr> preds = [] {
    std::vector<PredicatePtr> ps;
    ps.push_back(Between("ra", 140.0, 200.0));
    ps.push_back(Eq("obj_class", Value("GALAXY")));
    ps.push_back(And(Ge("dec", Value(10.0)), Ne("obj_class", Value("QSO"))));
    ps.push_back(Cone("ra", "dec", 150.0, 12.0, 8.0));
    ps.push_back(Not(Lt("r", Value(15.0))));
    return ps;
  }();
  for (const PredicatePtr& pred : preds) {
    const SelectionVector scalar =
        SelectAll(catalog_->photo_obj_all, *pred).value();
    EXPECT_EQ(SelectAll(*encoded_, *pred).value(), scalar) << pred->ToString();
    EXPECT_EQ(SelectAll(*encoded_, *pred, pool_).value(), scalar)
        << pred->ToString();
  }
}

TEST_F(EncodedExecTest, RunExactBitIdenticalToScalarAtOneAndFourThreads) {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""},       {AggKind::kSum, "r"},
                  {AggKind::kAvg, "redshift"}, {AggKind::kMin, "g"},
                  {AggKind::kMax, "g"},        {AggKind::kVariance, "dec"}};
  q.filter = Between("ra", 130.0, 220.0);
  const auto scalar = RunExact(catalog_->photo_obj_all, q).value();
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), pool_}) {
    const auto enc = RunExact(*encoded_, q, pool).value();
    ASSERT_EQ(enc.size(), scalar.size());
    for (size_t r = 0; r < scalar.size(); ++r) {
      EXPECT_EQ(enc[r].input_rows, scalar[r].input_rows);
      ASSERT_EQ(enc[r].values.size(), scalar[r].values.size());
      for (size_t v = 0; v < scalar[r].values.size(); ++v) {
        EXPECT_EQ(enc[r].values[v], scalar[r].values[v]);
      }
    }
  }
}

TEST_F(EncodedExecTest, GroupedRunExactBitIdenticalOnEncodedTable) {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "r"}};
  q.group_by = "obj_class";
  const auto scalar = RunExact(catalog_->photo_obj_all, q).value();
  const auto enc = RunExact(*encoded_, q, pool_).value();
  ASSERT_EQ(enc.size(), scalar.size());
  for (size_t r = 0; r < scalar.size(); ++r) {
    EXPECT_TRUE(enc[r].group_key == scalar[r].group_key);
    EXPECT_EQ(enc[r].input_rows, scalar[r].input_rows);
    for (size_t v = 0; v < scalar[r].values.size(); ++v) {
      EXPECT_EQ(enc[r].values[v], scalar[r].values[v]);
    }
  }
}

// ------------------------------------------------ parallel shard ingest ---

TEST(ShardedIngestTest, ThreadedDriverMatchesSerialDriving) {
  SkyCatalogConfig config;
  config.num_rows = 40'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 77).value();
  ImpressionSpec spec;
  spec.capacity = 2'000;
  spec.seed = 77;

  // Threaded: one load thread per shard, driven by the builder itself.
  auto threaded = ShardedImpressionBuilder::Make(
                      catalog.photo_obj_all.schema(), spec, 4)
                      .value();
  ASSERT_TRUE(threaded.IngestBatchParallel(catalog.photo_obj_all).ok());

  // Serial reference: the same contiguous slices fed shard by shard.
  auto reference = ShardedImpressionBuilder::Make(
                       catalog.photo_obj_all.schema(), spec, 4)
                       .value();
  const int64_t per = catalog.photo_obj_all.num_rows() / 4;
  for (int s = 0; s < 4; ++s) {
    SelectionVector rows;
    for (int64_t i = s * per; i < (s + 1) * per; ++i) rows.push_back(i);
    ASSERT_TRUE(
        reference.shard(s).IngestBatch(catalog.photo_obj_all.TakeRows(rows))
            .ok());
  }

  EXPECT_EQ(threaded.population_seen(), 40'000);
  const Impression a = threaded.Merge().value();
  const Impression b = reference.Merge().value();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.population_seen(), b.population_seen());
  // Same sampled rows in the same slots: thread scheduling must not leak
  // into the sample.
  EXPECT_EQ(a.source_ids(), b.source_ids());
  EXPECT_EQ(a.row_weights(), b.row_weights());
}

TEST(ShardedIngestTest, ParallelIngestIsDeterministicAcrossRuns) {
  SkyCatalogConfig config;
  config.num_rows = 20'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 5).value();
  ImpressionSpec spec;
  spec.capacity = 1'000;
  spec.seed = 5;
  std::vector<std::vector<int64_t>> source_runs;
  for (int run = 0; run < 2; ++run) {
    auto sharded = ShardedImpressionBuilder::Make(
                       catalog.photo_obj_all.schema(), spec, 3)
                       .value();
    ASSERT_TRUE(sharded.IngestBatchParallel(catalog.photo_obj_all).ok());
    source_runs.push_back(sharded.Merge().value().source_ids());
  }
  EXPECT_EQ(source_runs[0], source_runs[1]);
}

TEST(ShardedIngestTest, HierarchyParallelLoad) {
  SkyCatalogConfig config;
  config.num_rows = 50'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 31).value();
  ImpressionSpec spec;
  spec.seed = 31;
  HierarchyOptions options;
  options.load_shards = 4;
  auto hierarchy = ImpressionHierarchy::Make(
                       catalog.photo_obj_all.schema(),
                       {{"L0", 5'000}, {"L1", 500}}, spec, options)
                       .value();
  ASSERT_TRUE(hierarchy.IngestBatch(catalog.photo_obj_all).ok());
  EXPECT_EQ(hierarchy.population_seen(), 50'000);
  EXPECT_EQ(hierarchy.layer(0).size(), 5'000);
  EXPECT_EQ(hierarchy.layer(0).population_seen(), 50'000);
  EXPECT_EQ(hierarchy.layer(1).size(), 500);
  EXPECT_TRUE(hierarchy.layer(0).Validate().ok());

  // Estimates off the merged top layer stay sane (HT expansion intact).
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  const auto ans = EstimateOnImpression(hierarchy.layer(0), q, 0.95).value();
  EXPECT_NEAR(ans.rows[0].values[0], 50'000.0, 5'000.0);

  // And the bounded executor can serve off a parallel-loaded hierarchy.
  BoundedExecutor exec(&catalog.photo_obj_all, &hierarchy);
  QualityBound bound;
  bound.max_relative_error = 0.2;
  const auto bounded = exec.Answer(q.Clone(), bound).value();
  EXPECT_TRUE(bounded.error_bound_met);
}

TEST(ShardedIngestTest, HierarchyParallelLoadDeterministicAcrossRuns) {
  SkyCatalogConfig config;
  config.num_rows = 20'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 9).value();
  std::vector<std::vector<int64_t>> source_runs;
  for (int run = 0; run < 2; ++run) {
    ImpressionSpec spec;
    spec.seed = 9;
    HierarchyOptions options;
    options.load_shards = 3;
    auto hierarchy = ImpressionHierarchy::Make(
                         catalog.photo_obj_all.schema(),
                         {{"L0", 2'000}, {"L1", 200}}, spec, options)
                         .value();
    ASSERT_TRUE(hierarchy.IngestBatch(catalog.photo_obj_all).ok());
    source_runs.push_back(hierarchy.layer(0).source_ids());
  }
  EXPECT_EQ(source_runs[0], source_runs[1]);
}

}  // namespace
}  // namespace sciborq
