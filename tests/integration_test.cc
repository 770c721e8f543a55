#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "column/csv.h"
#include "util/rng.h"
#include "core/bounded_executor.h"
#include "core/sharded_builder.h"
#include "skyserver/catalog.h"
#include "skyserver/functions.h"
#include "stats/descriptive.h"
#include "workload/generator.h"

namespace sciborq {
namespace {

using LayerSpec = ImpressionHierarchy::LayerSpec;

/// End-to-end scenario shared by several tests: a 200k-row sky, a bimodal
/// focal workload, a biased and a uniform hierarchy fed by daily batches.
class EndToEndTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 200'000;
  static constexpr int64_t kBatch = 20'000;

  static void SetUpTestSuite() {
    SkyCatalogConfig config;
    config.num_rows = kRows;
    catalog_ = new SkyCatalog(GenerateSkyCatalog(config, 2026).value());

    tracker_ = new InterestTracker(
        InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
            .value());
    // A *focused* exploration (tight jitter): the regime the paper's biased
    // sampling is designed for — the focal mass is small relative to the
    // impression capacity, so the bias can concentrate sharply.
    ConeWorkloadConfig workload;
    workload.focal_points = {FocalPoint{150.0, 12.0, 0.55, 2.0},
                             FocalPoint{215.0, 40.0, 0.45, 2.0}};
    auto gen = ConeWorkloadGenerator::Make(workload, 2026).value();
    for (int i = 0; i < 400; ++i) tracker_->ObserveQuery(gen.Next());

    ImpressionSpec biased_spec;
    biased_spec.policy = SamplingPolicy::kBiased;
    biased_spec.tracker = tracker_;
    biased_spec.seed = 1;
    biased_ = new ImpressionHierarchy(
        ImpressionHierarchy::Make(catalog_->photo_obj_all.schema(),
                                  {{"B0", 20'000}, {"B1", 2'000}},
                                  biased_spec)
            .value());
    ImpressionSpec uniform_spec;
    uniform_spec.seed = 1;
    uniform_ = new ImpressionHierarchy(
        ImpressionHierarchy::Make(catalog_->photo_obj_all.schema(),
                                  {{"U0", 20'000}, {"U1", 2'000}},
                                  uniform_spec)
            .value());
    // Daily-ingest shape: ten batches.
    for (int64_t start = 0; start < kRows; start += kBatch) {
      SelectionVector slice(static_cast<size_t>(kBatch));
      for (int64_t i = 0; i < kBatch; ++i) {
        slice[static_cast<size_t>(i)] = start + i;
      }
      const Table batch = catalog_->photo_obj_all.TakeRows(slice);
      ASSERT_TRUE(biased_->IngestBatch(batch).ok());
      ASSERT_TRUE(uniform_->IngestBatch(batch).ok());
    }
  }
  static void TearDownTestSuite() {
    delete biased_;
    delete uniform_;
    delete tracker_;
    delete catalog_;
  }

  static SkyCatalog* catalog_;
  static InterestTracker* tracker_;
  static ImpressionHierarchy* biased_;
  static ImpressionHierarchy* uniform_;
};

SkyCatalog* EndToEndTest::catalog_ = nullptr;
InterestTracker* EndToEndTest::tracker_ = nullptr;
ImpressionHierarchy* EndToEndTest::biased_ = nullptr;
ImpressionHierarchy* EndToEndTest::uniform_ = nullptr;

// The paper's central promise: for focal queries, a biased impression gives
// tighter errors than a uniform one of the same size.
TEST_F(EndToEndTest, BiasedBeatsUniformOnFocalQueries) {
  Rng rng(5);
  double biased_err = 0.0;
  double uniform_err = 0.0;
  int queries = 0;
  for (int i = 0; i < 30; ++i) {
    const double ra = rng.Gaussian(150.0, 3.0);
    const double dec = rng.Gaussian(12.0, 2.0);
    AggregateQuery q;
    q.aggregates = {{AggKind::kCount, ""}};
    q.filter = FGetNearbyObjEq(ra, dec, 3.0);
    const auto truth = RunExact(catalog_->photo_obj_all, q).value();
    if (truth[0].values[0] < 50) continue;  // skip near-empty cones
    const auto b = EstimateOnImpression(biased_->layer(0), q, 0.95).value();
    const auto u = EstimateOnImpression(uniform_->layer(0), q, 0.95).value();
    biased_err +=
        std::abs(b.rows[0].values[0] - truth[0].values[0]) / truth[0].values[0];
    uniform_err +=
        std::abs(u.rows[0].values[0] - truth[0].values[0]) / truth[0].values[0];
    ++queries;
  }
  ASSERT_GT(queries, 10);
  EXPECT_LT(biased_err, uniform_err);
}

TEST_F(EndToEndTest, BiasedCiNarrowerOnFocalQueries) {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  q.filter = FGetNearbyObjEq(150.0, 12.0, 3.0);
  const auto b = EstimateOnImpression(biased_->layer(0), q, 0.95).value();
  const auto u = EstimateOnImpression(uniform_->layer(0), q, 0.95).value();
  EXPECT_LT(b.estimates[0][0].RelativeError(),
            u.estimates[0][0].RelativeError());
}

TEST_F(EndToEndTest, UniformBetterFarFromFocus) {
  // The documented downside (§4): confidence outside the focal area is lower
  // for the biased impression. Compare matching-row coverage of an
  // anti-focal cone.
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  q.filter = FGetNearbyObjEq(185.0, 55.0, 4.0);  // far from both foci
  const auto b = EstimateOnImpression(biased_->layer(0), q, 0.95).value();
  const auto u = EstimateOnImpression(uniform_->layer(0), q, 0.95).value();
  EXPECT_GT(u.rows[0].input_rows, b.rows[0].input_rows);
}

TEST_F(EndToEndTest, FullPipelineWithExecutor) {
  BoundedExecutor exec(&catalog_->photo_obj_all, biased_);
  QualityBound bound;
  bound.max_relative_error = 0.10;
  bound.time_budget_seconds = 10.0;
  const AggregateQuery q = NearbyGalaxiesQuery(150.0, 12.0, 3.0);
  const BoundedAnswer ans = exec.Answer(q, bound).value();
  EXPECT_TRUE(ans.error_bound_met);
  const auto truth = RunExact(catalog_->photo_obj_all, q).value();
  if (!ans.estimates[0][0].exact) {
    EXPECT_NEAR(ans.rows[0].values[0], truth[0].values[0],
                0.25 * truth[0].values[0]);
  }
}

TEST_F(EndToEndTest, HierarchyMemoryOrdering) {
  EXPECT_GT(biased_->layer(0).MemoryUsageBytes(),
            biased_->layer(1).MemoryUsageBytes());
}

TEST_F(EndToEndTest, ImpressionExportsToCsv) {
  const std::string path = testing::TempDir() + "/impression_export.csv";
  ASSERT_TRUE(WriteCsv(biased_->layer(1).rows(), path).ok());
  const Table back = ReadCsv(path).value();
  EXPECT_EQ(back.num_rows(), biased_->layer(1).size());
  EXPECT_TRUE(back.schema().Equals(biased_->layer(1).rows().schema()));
  std::remove(path.c_str());
}

// Parallel load: shard builders driven from threads, merged impression keeps
// the focal bias.
TEST_F(EndToEndTest, ParallelShardedLoadMatchesSerialBias) {
  ImpressionSpec spec;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = tracker_;
  spec.capacity = 4000;
  spec.seed = 77;
  auto sharded = ShardedImpressionBuilder::Make(
                     catalog_->photo_obj_all.schema(), spec, 4)
                     .value();
  const int64_t per_shard = kRows / 4;
  std::vector<std::thread> threads;
  Status shard_status[4];
  for (int s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      SelectionVector slice(static_cast<size_t>(per_shard));
      for (int64_t i = 0; i < per_shard; ++i) {
        slice[static_cast<size_t>(i)] = s * per_shard + i;
      }
      const Table batch = catalog_->photo_obj_all.TakeRows(slice);
      shard_status[s] = sharded.shard(s).IngestBatch(batch);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& st : shard_status) ASSERT_TRUE(st.ok());

  const Impression merged = sharded.Merge().value();
  EXPECT_EQ(merged.size(), 4000);
  EXPECT_EQ(merged.population_seen(), kRows);
  // Focal concentration of the merged sample beats the base rate.
  const Column* ra = merged.rows().ColumnByName("ra").value();
  int64_t focal = 0;
  for (int64_t i = 0; i < merged.size(); ++i) {
    if (std::abs(ra->GetDouble(i) - 150.0) < 6.0) ++focal;
  }
  const Column* base_ra = catalog_->photo_obj_all.ColumnByName("ra").value();
  int64_t base_focal = 0;
  for (int64_t i = 0; i < base_ra->size(); ++i) {
    if (std::abs(base_ra->GetDouble(i) - 150.0) < 6.0) ++base_focal;
  }
  const double merged_frac = static_cast<double>(focal) / merged.size();
  const double base_frac = static_cast<double>(base_focal) / kRows;
  EXPECT_GT(merged_frac, 1.5 * base_frac);
}

// Workload shift: after decaying and re-observing, new focal area dominates
// newly ingested data's acceptance.
TEST_F(EndToEndTest, AdaptationToWorkloadShift) {
  InterestTracker tracker =
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
          .value();
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    tracker.ObserveValue("ra", rng.Gaussian(150.0, 2.0));
    tracker.ObserveValue("dec", rng.Gaussian(12.0, 1.5));
  }
  ImpressionSpec spec;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  spec.capacity = 2000;
  spec.seed = 21;
  SkyCatalogConfig config;
  config.num_rows = 50'000;
  SkyStream stream(config, 99);
  auto builder = ImpressionBuilder::Make(stream.schema(), spec).value();
  ASSERT_TRUE(builder.IngestBatch(stream.NextBatch(50'000)).ok());

  const auto frac_near = [&](double ra0) {
    const Column* ra = builder.impression().rows().ColumnByName("ra").value();
    int64_t n = 0;
    for (int64_t i = 0; i < builder.impression().size(); ++i) {
      if (std::abs(ra->GetDouble(i) - ra0) < 6.0) ++n;
    }
    return static_cast<double>(n) / builder.impression().size();
  };
  const double old_focus_before = frac_near(150.0);
  const double new_focus_before = frac_near(220.0);
  EXPECT_GT(old_focus_before, new_focus_before);

  // The workload shifts to ra=220; decay the old interest and continue.
  tracker.Decay(0.05);
  for (int i = 0; i < 200; ++i) {
    tracker.ObserveValue("ra", rng.Gaussian(220.0, 2.0));
    tracker.ObserveValue("dec", rng.Gaussian(40.0, 1.5));
  }
  SkyStream more(config, 100);
  for (int b = 0; b < 10; ++b) {
    ASSERT_TRUE(builder.IngestBatch(more.NextBatch(20'000)).ok());
  }
  const double new_focus_after = frac_near(220.0);
  EXPECT_GT(new_focus_after, new_focus_before * 2.0 + 0.01);
}

}  // namespace
}  // namespace sciborq
