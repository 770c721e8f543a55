// explore, escalate and fanout: read-only SkyServer workloads.
//
// Every bound here is ERROR/CONFIDENCE/EXACT, never WITHIN: with
// EngineOptions::query_threads = 1 and no ingest, which layer answers — and
// the answer itself — is then a function of seed and query alone, so the
// contract metrics (bound_met_frac, ci_coverage, the answered-by histogram)
// repeat exactly on unchanged code and only timing metrics carry noise.
//
// A run: generate the table, and a pool of distinct queries from the seed;
// compute each query's exact oracle; set the system up several times (the
// median is setup_s); drive the pool with closed-loop clients for the timed
// window; replay the pool serially and require answers identical to the
// concurrent ones (the determinism guard); check every exact answer against
// the oracle bit for bit; finally persist the same table into a fresh
// database, checkpoint it and recover it (the persistence epilogue).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "client/client.h"
#include "coord/coordinator.h"
#include "coord/merge.h"
#include "core/bounded_executor.h"
#include "core/hierarchy.h"
#include "exec/parser.h"
#include "exec/query.h"
#include "server/server.h"
#include "skyserver/catalog.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/interest_tracker.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sciborq;

constexpr char kTable[] = "photo_obj_all";

enum class Shape { kExplore, kEscalate, kFanout };

struct SkySizes {
  int64_t rows = 0;
  int pool = 0;
  int history = 0;  ///< RecordWorkload queries that bias the layers
  int setups = 0;   ///< setup repetitions; setup_s is their median
  int64_t persist_batch_rows = 0;
  int persist_loads = 0;  ///< epilogue loads whose batch times are pooled
};

constexpr int kClients = 2;
constexpr int kShards = 2;
constexpr uint64_t kCatalogSeed = 11;
/// Fresh-process Engine::Open repetitions behind recover_s.
constexpr int kRecoveries = 7;

SkySizes SizesFor(Shape shape, bool smoke) {
  SkySizes s;
  if (shape == Shape::kFanout) {
    // Each shard holds a whole number of 16384-row morsels (coord_scaling's
    // morsel-aligned split).
    s.rows = smoke ? 2 * kDefaultMorselRows : 16 * kDefaultMorselRows;
    s.pool = smoke ? 16 : 1024;
  } else {
    s.rows = smoke ? 40'000 : 1'000'000;
    // Large pools: the slowest 1% of executions then spans many distinct
    // queries, so query_p99 does not hinge on a handful of them.
    s.pool = smoke ? 24 : (shape == Shape::kExplore ? 2048 : 1024);
  }
  s.history = smoke ? 200 : 2'000;
  s.setups = smoke ? 2 : 3;
  // 200 batches (40 in smoke mode), so ingest_p95 has ten beyond it.
  s.persist_batch_rows = s.rows / (smoke ? 40 : 200);
  // The batches that refresh derived layers (one per 16384-row morsel) are
  // the slowest, and ingest_p95 falls among them; one load gives only ten
  // batches beyond it. Pooling loads gives 20 or 30. The fan-out table is
  // small, so its loads are cheap and it takes three.
  s.persist_loads = smoke ? 1 : (shape == Shape::kFanout ? 3 : 2);
  return s;
}

struct PoolQuery {
  std::string sql;
  BoundedQuery bounded;
  std::vector<QueryResultRow> truth;  ///< the exact oracle
};

struct Focal {
  double ra = 0.0;
  double dec = 0.0;
};

/// A box or cone predicate, near a focal point or anywhere on the footprint.
std::string Region(Rng* rng, const std::vector<Focal>& focals, bool near,
                   double scale) {
  double ra = 0.0;
  double dec = 0.0;
  if (near) {
    const Focal& f = focals[rng->NextBounded(focals.size())];
    ra = f.ra + rng->Gaussian(0.0, 3.0);
    dec = f.dec + rng->Gaussian(0.0, 2.0);
  } else {
    ra = rng->Uniform(130.0, 230.0);
    dec = rng->Uniform(8.0, 52.0);
  }
  if (rng->Bernoulli(0.5)) {
    const double half_ra = scale * rng->Uniform(2.0, 8.0);
    const double half_dec = scale * rng->Uniform(1.5, 6.0);
    return StrFormat("ra >= %.3f AND ra <= %.3f AND dec >= %.3f AND dec <= %.3f",
                     ra - half_ra, ra + half_ra, dec - half_dec,
                     dec + half_dec);
  }
  return StrFormat("cone(ra, dec; %.3f, %.3f; r=%.3f)", ra, dec,
                   scale * rng->Uniform(2.0, 6.0));
}

/// A threshold drawn from the data itself, so the conjunct is never empty.
double DataValue(Rng* rng, const Table& table, int column) {
  const int64_t row =
      static_cast<int64_t>(rng->NextBounded(static_cast<uint64_t>(table.num_rows())));
  return table.column(column).NumericAt(row);
}

std::string MakeSql(Shape shape, int i, Rng* rng, const std::vector<Focal>& focals,
                    const Table& table) {
  static const char* kAggs[] = {"COUNT(*)", "COUNT(*), AVG(r)", "AVG(redshift)",
                                "COUNT(*), AVG(g)"};
  const std::string from = StrFormat(" FROM %s WHERE ", kTable);
  switch (shape) {
    case Shape::kExplore: {
      // ERROR 10% around the focal points: the largest layer answers most
      // queries and the base columns the rest, with a fixed 1/16 EXACT.
      // Scanning the 100k-row layer and pruning the base columns cost about
      // the same, so the latency distribution does not hinge on how the
      // seed's sky splits the answers between them.
      const std::string aggs = kAggs[rng->NextBounded(4)];
      const std::string where = Region(rng, focals, rng->Bernoulli(0.8), 1.5);
      return "SELECT " + aggs + from + where +
             (i % 16 == 0 ? " EXACT" : " ERROR 10% CONFIDENCE 95%");
    }
    case Shape::kEscalate: {
      std::string where = Region(rng, focals, rng->Bernoulli(0.7), 1.5);
      // AndPredicate conjuncts over a measure column.
      if (rng->Bernoulli(0.5)) {
        where += StrFormat(" AND g < %.4f", DataValue(rng, table, 5));
      } else {
        where += StrFormat(" AND redshift > %.4f", DataValue(rng, table, 9) * 0.5);
      }
      const std::string tight =
          rng->Bernoulli(0.5) ? "ERROR 1% CONFIDENCE 95%" : "ERROR 0.5%";
      if (i % 4 == 3) {
        // A fixed minority that a layer can answer: averages over a wide
        // region, so the tight bound is reachable from a sample.
        return "SELECT AVG(r), AVG(g)" + from +
               Region(rng, focals, true, 2.0) + " ERROR 1%";
      }
      switch (i % 3) {
        case 0:
          return "SELECT COUNT(*), AVG(r)" + from + where + " " + tight;
        case 1:
          return "SELECT COUNT(*), AVG(r)" + from + where + " EXACT";
        default:
          return "SELECT COUNT(*), AVG(redshift)" + from + where +
                 " GROUP BY obj_class " +
                 (rng->Bernoulli(0.5) ? std::string("EXACT") : tight);
      }
    }
    case Shape::kFanout: {
      // Uniform over the footprint: the shards' layers are uniform too, and
      // where a region falls relative to the shard split should not hinge
      // on a handful of focal points.
      const std::string aggs = kAggs[rng->NextBounded(2)];
      const std::string where = Region(rng, focals, false, 2.5);
      static const int kErrorPct[] = {15, 20, 25};
      return "SELECT " + aggs + from + where +
             StrFormat(" ERROR %d%%", kErrorPct[rng->NextBounded(3)]);
    }
  }
  return "";
}

/// Draws the distinct-query pool and its oracle. Queries whose selection is
/// too small to answer (AVG over nothing) are redrawn — deterministically,
/// since the generator simply continues.
std::vector<PoolQuery> MakePool(Shape shape, int n, uint64_t seed,
                                const std::vector<Focal>& focals,
                                const Table& table, ThreadPool* threads) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<PoolQuery> pool;
  while (static_cast<int>(pool.size()) < n) {
    PoolQuery q;
    q.sql = MakeSql(shape, static_cast<int>(pool.size()), &rng, focals, table);
    Result<BoundedQuery> parsed = ParseBoundedQuery(q.sql);
    if (!parsed.ok()) {
      std::fprintf(stderr, "pool query does not parse: %s\n", q.sql.c_str());
      std::exit(2);
    }
    q.bounded = std::move(parsed).value();
    Result<std::vector<QueryResultRow>> truth =
        RunExact(table, q.bounded.query, threads);
    if (!truth.ok() || truth->empty()) continue;
    int64_t rows = 0;
    for (const QueryResultRow& row : *truth) rows += row.input_rows;
    if (rows < 200) continue;
    q.truth = std::move(truth).value();
    pool.push_back(std::move(q));
  }
  return pool;
}

TableOptions SingleNodeOptions(Shape shape, uint64_t seed) {
  TableOptions options;
  options.seed = seed;
  if (shape != Shape::kFanout) {
    options.layers = {{"l0", 100'000}, {"l1", 10'000}, {"l2", 1'000}};
    options.tracked_attributes = {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}};
  }
  return options;
}

/// The SkyServer log-mining step (§2.1): a focal ra/dec history replayed
/// into the table's interest tracker before the data arrives.
std::vector<AggregateQuery> MakeHistory(int n, uint64_t seed,
                                        const std::vector<Focal>& focals) {
  ConeWorkloadConfig config;
  for (const Focal& f : focals) {
    config.focal_points.push_back(FocalPoint{f.ra, f.dec, 1.0, 2.5});
  }
  Result<ConeWorkloadGenerator> gen =
      ConeWorkloadGenerator::Make(config, seed + 17);
  std::vector<AggregateQuery> history;
  for (int i = 0; i < n; ++i) history.push_back(gen->Next());
  return history;
}

Status LoadTable(Engine* engine, const Table& table, const TableOptions& options,
                 const std::vector<AggregateQuery>& history,
                 const std::vector<Table>* batches,
                 std::vector<double>* batch_seconds) {
  SCIBORQ_RETURN_NOT_OK(engine->CreateTable(kTable, table.schema(), options));
  if (!options.tracked_attributes.empty()) {
    for (const AggregateQuery& q : history) {
      SCIBORQ_RETURN_NOT_OK(engine->RecordWorkload(kTable, q));
    }
  }
  if (batches == nullptr) return engine->IngestBatch(kTable, table);
  for (const Table& batch : *batches) {
    const double t0 = Now();
    SCIBORQ_RETURN_NOT_OK(engine->IngestBatch(kTable, batch));
    batch_seconds->push_back(Now() - t0);
  }
  return Status::OK();
}

/// Two shard servers with ephemeral engines behind a coordinator, all on
/// loopback in this process.
struct Cluster {
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::unique_ptr<SciborqServer>> servers;
  std::unique_ptr<SciborqCoordinator> coordinator;

  ~Cluster() {
    if (coordinator) coordinator->Stop();
    for (auto& server : servers) server->Stop();
  }
};

Status StartCluster(const Table& table, uint64_t seed, Cluster* cluster) {
  std::vector<ShardEndpoint> endpoints;
  for (int s = 0; s < kShards; ++s) {
    cluster->engines.push_back(std::make_unique<Engine>());
    cluster->servers.push_back(
        std::make_unique<SciborqServer>(cluster->engines.back().get()));
    SCIBORQ_RETURN_NOT_OK(cluster->servers.back()->Start());
    endpoints.push_back({"127.0.0.1", cluster->servers.back()->port()});
  }
  ShardMap map;
  map.SetDefaultShards(std::move(endpoints));
  cluster->coordinator = std::make_unique<SciborqCoordinator>(std::move(map));
  SCIBORQ_RETURN_NOT_OK(cluster->coordinator->Start());
  SCIBORQ_RETURN_NOT_OK(
      cluster->coordinator->CreateTable(kTable, table.schema(), seed));
  SCIBORQ_ASSIGN_OR_RETURN(const int64_t rows,
                           cluster->coordinator->IngestBatch(kTable, table));
  if (rows != table.num_rows()) {
    return Status::Internal("coordinator routed a partial table");
  }
  return Status::OK();
}

/// Rows ordered by sky field, as the survey lays objects out (an SDSS objid
/// encodes its run, camera column and field): morsels then cover compact
/// patches of sky, so the zone maps have something to prune.
Table ByField(Table table) {
  const Column& field = table.column(1);
  SelectionVector order(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) order[static_cast<size_t>(r)] = r;
  std::stable_sort(order.begin(), order.end(), [&field](int64_t a, int64_t b) {
    return field.GetInt64(a) < field.GetInt64(b);
  });
  return table.TakeRows(order);
}

Table SliceRows(const Table& table, int64_t begin, int64_t end) {
  Table slice(table.schema());
  slice.Reserve(end - begin);
  for (int64_t r = begin; r < end; ++r) slice.AppendRowFrom(table, r);
  return slice;
}

std::vector<Table> SliceBatches(const Table& table, int64_t batch_rows) {
  std::vector<Table> batches;
  for (int64_t r = 0; r < table.num_rows(); r += batch_rows) {
    batches.push_back(
        SliceRows(table, r, std::min(table.num_rows(), r + batch_rows)));
  }
  return batches;
}

/// Checks one answer against its oracle. Exact answers must match bit for
/// bit (`bitwise`) or, for merged shard answers, in counts and to 1e-9
/// relative; non-exact intervals feed coverage and relative error.
bool CheckAnswer(const QueryOutcome& out, const PoolQuery& q, bool bitwise,
                 int64_t* intervals, int64_t* covered,
                 std::vector<double>* rel_err) {
  std::map<std::string, const QueryResultRow*> truth;
  for (const QueryResultRow& row : q.truth) truth[row.group_key.ToString()] = &row;
  if (out.exact) {
    if (bitwise) return out.rows == q.truth;
    if (out.rows.size() != q.truth.size()) return false;
    for (size_t r = 0; r < out.rows.size(); ++r) {
      const QueryResultRow& a = out.rows[r];
      const auto it = truth.find(a.group_key.ToString());
      if (it == truth.end() || a.input_rows != it->second->input_rows) {
        return false;
      }
      for (size_t v = 0; v < a.values.size(); ++v) {
        const double t = it->second->values[v];
        if (std::fabs(a.values[v] - t) > 1e-9 * std::max(1.0, std::fabs(t))) {
          return false;
        }
      }
    }
    return true;
  }
  for (size_t r = 0; r < out.rows.size() && r < out.estimates.size(); ++r) {
    const auto it = truth.find(out.rows[r].group_key.ToString());
    if (it == truth.end()) continue;  // a group the sample never saw
    for (size_t a = 0; a < out.estimates[r].size(); ++a) {
      const AggregateEstimate& e = out.estimates[r][a];
      if (e.exact || a >= it->second->values.size()) continue;
      const double t = it->second->values[a];
      ++*intervals;
      if (Covers(e, t)) ++*covered;
      if (t != 0.0) rel_err->push_back(std::fabs(e.estimate - t) / std::fabs(t));
    }
  }
  return true;
}

/// Oracle for an EXACT fan-out: each shard's slice evaluated with its
/// Welford partials and merged by the same composition the coordinator uses.
Result<QueryOutcome> ExpectedMergedExact(const std::vector<Table>& slices,
                                         const BoundedQuery& exact_query) {
  std::vector<ShardAnswer> answers;
  for (size_t s = 0; s < slices.size(); ++s) {
    ShardAnswer answer;
    answer.label = StrFormat("shard%zu", s);
    ExactRunOptions run;
    run.lenient = true;
    run.moments = &answer.outcome.partials;
    SCIBORQ_ASSIGN_OR_RETURN(
        answer.outcome.rows,
        RunExact(slices[s], exact_query.query, nullptr, run));
    for (const QueryResultRow& row : answer.outcome.rows) {
      std::vector<AggregateEstimate> ests;
      for (const double v : row.values) {
        AggregateEstimate e;
        e.estimate = e.ci_lo = e.ci_hi = v;
        e.sample_rows = row.input_rows;
        e.exact = true;
        ests.push_back(e);
      }
      answer.outcome.estimates.push_back(std::move(ests));
    }
    answer.outcome.answered_by = "base";
    answer.outcome.exact = true;
    answer.outcome.error_bound_met = true;
    answers.push_back(std::move(answer));
  }
  MergeOptions options;
  options.aggregates = exact_query.query.aggregates;
  options.shards_total = static_cast<int>(slices.size());
  return MergeShardOutcomes(answers, options);
}

/// The persistence epilogue: the workload's table loaded into a fresh
/// database in fixed batches (closed loop), `loads` times over, the last
/// load checkpointed, closed and recovered. The recovered engine must answer a sample of the pool exactly
/// like the engine that wrote the files, and its exact answers must match
/// the oracle.
struct Epilogue {
  std::vector<double> batch_seconds;
  int64_t batches_failed = 0;
  double wal_bytes_per_row = 0.0;
  double disk_bytes_per_row = 0.0;
  double checkpoint_seconds = 0.0;
  double recover_seconds = 0.0;
  double fsync_p50_seconds = 0.0;
};

Epilogue PersistAndRecover(const Args& args, const Table& table,
                           const std::vector<Table>& batches,
                           const TableOptions& options,
                           const std::vector<AggregateQuery>& history,
                           const std::vector<PoolQuery>& pool, int loads,
                           RunResult* result) {
  Epilogue ep;
  const std::string dir = args.workdir + "/persist";
  const Scrape before = ScrapeRegistry();
  const size_t checked = std::min<size_t>(pool.size(), 16);
  std::vector<QueryOutcome> written;
  for (int load = 0; load < loads; ++load) {
    ResetDir(dir);
    Result<std::unique_ptr<Engine>> engine = Engine::Open(dir);
    if (!engine.ok()) {
      result->Fail("open " + dir + ": " + engine.status().ToString());
      return ep;
    }
    // A bulk load in small batches: derived layers refresh once per morsel
    // rather than after every batch (HierarchyOptions::refresh_interval).
    TableOptions load_options = options;
    load_options.refresh_interval = kDefaultMorselRows;
    const Status st = LoadTable(engine->get(), table, load_options, history,
                                &batches, &ep.batch_seconds);
    if (!st.ok()) {
      ep.batches_failed = static_cast<int64_t>(batches.size()) * (load + 1) -
                          static_cast<int64_t>(ep.batch_seconds.size());
      result->Fail("persistent load: " + st.ToString());
      return ep;
    }
    if (load + 1 < loads) continue;
    const double rows = static_cast<double>(table.num_rows());
    ep.wal_bytes_per_row = static_cast<double>(DirBytes(dir)) / rows;
    const double t0 = Now();
    if (Status cp = (*engine)->Checkpoint(kTable); !cp.ok()) {
      result->Fail("checkpoint: " + cp.ToString());
      return ep;
    }
    ep.checkpoint_seconds = Now() - t0;
    ep.disk_bytes_per_row = static_cast<double>(DirBytes(dir)) / rows;
    for (size_t i = 0; i < checked; ++i) {
      Result<QueryOutcome> out = (*engine)->Query(pool[i].bounded);
      if (!out.ok()) {
        result->Fail("query before close: " + out.status().ToString());
        return ep;
      }
      written.push_back(std::move(out).value());
    }
  }
  ep.fsync_p50_seconds = HistogramDeltaQuantile(before, ScrapeRegistry(),
                                                "sciborq_wal_fsync_seconds", 0.5);
  ep.recover_seconds = Quantile(TimeRecoveries(dir, kRecoveries, result), 0.0);
  Result<std::unique_ptr<Engine>> engine = Engine::Open(dir);
  if (!engine.ok()) {
    result->Fail("recover: " + engine.status().ToString());
    return ep;
  }
  const Result<int64_t> rows = (*engine)->TableRows(kTable);
  if (!rows.ok() || *rows != table.num_rows()) {
    result->Fail("recovered row count differs from the loaded table");
  }
  for (size_t i = 0; i < checked; ++i) {
    Result<QueryOutcome> out = (*engine)->Query(pool[i].bounded);
    if (!out.ok() || !EquivalentAnswers(*out, written[i])) {
      result->Fail("recovered answer differs from the pre-close answer: " +
                   pool[i].sql);
      continue;
    }
    int64_t n = 0, c = 0;
    std::vector<double> e;
    if (!CheckAnswer(*out, pool[i], true, &n, &c, &e)) {
      result->Fail("recovered exact answer differs from the oracle: " +
                   pool[i].sql);
    }
  }
  return ep;
}

/// Per-layer cost of hierarchy maintenance and impression scans, measured
/// on a benchmark-held hierarchy fed the same batches.
void MeasureHeldHierarchy(const Table& table, const std::vector<Table>& batches,
                          const TableOptions& options,
                          const std::vector<AggregateQuery>& history,
                          const std::vector<PoolQuery>& pool, PerLayer* layer) {
  std::vector<ImpressionHierarchy::LayerSpec> specs = options.layers;
  if (specs.empty()) specs = {{"l0", 64 * 1024}, {"l1", 8 * 1024}, {"l2", 1024}};
  ImpressionSpec spec;
  spec.seed = options.seed;
  std::unique_ptr<InterestTracker> tracker;
  if (!options.tracked_attributes.empty()) {
    tracker = std::make_unique<InterestTracker>(
        InterestTracker::Make(options.tracked_attributes).value());
    for (const AggregateQuery& q : history) tracker->ObserveQuery(q);
    spec.policy = SamplingPolicy::kBiased;
    spec.tracker = tracker.get();
  }
  Result<ImpressionHierarchy> hierarchy =
      ImpressionHierarchy::Make(table.schema(), specs, spec);
  if (!hierarchy.ok()) return;
  const double t0 = Now();
  for (const Table& batch : batches) (void)hierarchy->IngestBatch(batch);
  layer->core_hierarchy_ingest_us_per_krow =
      (Now() - t0) * 1e6 / (static_cast<double>(table.num_rows()) / 1000.0);
  // Cross-check of core.impression_scan_ns_per_row: the same estimator the
  // executor runs, timed directly on the held layers.
  std::vector<double> ns_per_row;
  for (size_t i = 0; i < pool.size() && i < 64; ++i) {
    for (int l = 0; l < hierarchy->num_layers(); ++l) {
      const Impression& imp = hierarchy->layer(l);
      const double s0 = Now();
      (void)EstimateOnImpression(imp, pool[i].bounded.query, 0.95);
      if (imp.size() > 0) {
        ns_per_row.push_back((Now() - s0) * 1e9 / static_cast<double>(imp.size()));
      }
    }
  }
  std::printf("cross-check: EstimateOnImpression on held layers %.2f ns/row\n",
              Median(ns_per_row));
}

}  // namespace

RunResult RunSkyWorkload(const Args& args) {
  RunResult result;
  const Shape shape = args.workload == "explore"    ? Shape::kExplore
                      : args.workload == "escalate" ? Shape::kEscalate
                                                    : Shape::kFanout;
  const SkySizes sizes = SizesFor(shape, args.smoke);
  const bool fanout = shape == Shape::kFanout;

  // -- Inputs, generated before any timing ----------------------------------
  // The sky is one fixed catalogue, like a benchmark's dataset at a given
  // scale, and the paper's two focal points of interest (Figure 4) are fixed
  // too. The seed draws everything that varies: the mined query history,
  // the query pool and the samplers' streams. Seed-to-seed changes in the
  // cost of a pool then stay small next to the effects being measured.
  SkyCatalogConfig config;
  config.num_rows = sizes.rows;
  const Table table = ByField(std::move(
      GenerateSkyCatalog(config, kCatalogSeed).value().photo_obj_all));
  std::vector<Focal> focals;
  for (const FocalPoint& f : PaperFigure4WorkloadConfig().focal_points) {
    focals.push_back({f.ra, f.dec});
  }
  const std::vector<AggregateQuery> history =
      MakeHistory(sizes.history, args.seed, focals);
  const TableOptions options = SingleNodeOptions(shape, args.seed);
  ThreadPool oracle_threads(4);
  std::vector<PoolQuery> pool =
      MakePool(shape, sizes.pool, args.seed, focals, table, &oracle_threads);
  if (args.corrupt_oracle) {
    for (PoolQuery& q : pool) {
      for (QueryResultRow& row : q.truth) {
        row.input_rows += 1;
        for (double& v : row.values) v = v * 1.5 + 1.0;
      }
    }
  }
  const std::vector<Table> batches =
      SliceBatches(table, sizes.persist_batch_rows);
  std::vector<Table> shard_slices;
  if (fanout) {
    const int64_t per = table.num_rows() / kShards;
    for (int s = 0; s < kShards; ++s) {
      shard_slices.push_back(SliceRows(table, s * per, (s + 1) * per));
    }
  }

  // -- Setup, repeated; the last one serves --------------------------------
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setups;
  for (int k = 0; k < sizes.setups; ++k) {
    engine.reset();
    cluster.reset();
    const double t0 = Now();
    Status st;
    if (fanout) {
      cluster = std::make_unique<Cluster>();
      st = StartCluster(table, args.seed, cluster.get());
    } else {
      engine = std::make_unique<Engine>();
      st = LoadTable(engine.get(), table, options, history, nullptr, nullptr);
    }
    setups.push_back(Now() - t0);
    if (!st.ok()) {
      result.Fail("setup: " + st.ToString());
      return result;
    }
  }

  // Fan-out EXACT gate: the coordinator's merge equals the same merge over
  // the benchmark's own slices bit for bit, and the single-node oracle in
  // counts.
  if (fanout) {
    for (size_t i = 0; i < pool.size() && i < 8; ++i) {
      QueryBounds exact;
      exact.exact = true;
      BoundedQuery q;
      q.query = pool[i].bounded.query.Clone();
      q.bounds = exact;
      Result<QueryOutcome> got =
          cluster->coordinator->Query(RenderSql(q.query, q.bounds));
      Result<QueryOutcome> want = ExpectedMergedExact(shard_slices, q);
      int64_t n = 0, c = 0;
      std::vector<double> e;
      if (!got.ok() || !want.ok() || !(got->rows == want->rows) ||
          !CheckAnswer(*got, pool[i], false, &n, &c, &e)) {
        result.Fail("fan-out EXACT answer differs from the oracle: " +
                    pool[i].sql);
      }
    }
  }

  // -- Clients --------------------------------------------------------------
  SpanLog spans(args.trace);
  std::vector<Tally> tallies(kClients);
  std::vector<SciborqClient> clients;
  for (int c = 0; c < kClients; ++c) {
    tallies[c].spans = spans.NewBuffer();
    if (fanout) {
      Result<SciborqClient> client =
          SciborqClient::Connect("127.0.0.1", cluster->coordinator->port());
      if (!client.ok()) {
        result.Fail("connect: " + client.status().ToString());
        return result;
      }
      clients.push_back(std::move(client).value());
    }
  }
  // The first answer each client got for each pool query.
  std::vector<std::vector<std::unique_ptr<QueryOutcome>>> first(kClients);
  for (auto& f : first) f.resize(pool.size());
  std::vector<size_t> cursor(kClients);
  for (int c = 0; c < kClients; ++c) cursor[c] = c * pool.size() / kClients;

  bool traced_block = false;
  int block = 0;
  bool recording = false;
  const auto step = [&](int c) {
    Tally& tally = tallies[c];
    const size_t index = cursor[c]++ % pool.size();
    const PoolQuery& q = pool[index];
    const bool traced = traced_block;
    const uint64_t root = traced ? spans.NextId() : 0;
    const double t0 = Now();
    double call_start = t0;
    const auto run = [&]() -> Result<QueryOutcome> {
      if (traced) {
        // The parse, timed on its own; the engine then runs the parsed
        // query (the coordinator parses the text again on its side).
        Result<BoundedQuery> parsed = ParseBoundedQuery(q.sql);
        call_start = Now();
        tally.parse_s.push_back(call_start - t0);
        tally.spans->Record(spans.NextId(), "exec.parse", root, root, t0,
                            call_start - t0);
        if (!fanout) {
          if (!parsed.ok()) return parsed.status();
          return engine->Query(*parsed);
        }
      }
      return fanout ? clients[c].Query(q.sql) : engine->Query(q.sql);
    };
    const Result<QueryOutcome> out = run();
    const double t1 = Now();
    if (!recording) return;
    QuerySample s;
    s.index = static_cast<int>(index);
    s.block = block;
    s.start = t0;
    s.latency = t1 - t0;
    s.ok = out.ok();
    s.traced = traced;
    if (out.ok()) {
      s.met = out->error_bound_met && !out->partial;
      s.digest = AnswerDigest(*out);
      if (!first[c][index]) first[c][index] = std::make_unique<QueryOutcome>(*out);
    }
    tally.samples.push_back(s);
    if (!traced || !out.ok()) return;
    const double call = t1 - call_start;
    tally.spans->Record(spans.NextId(), fanout ? "server.query" : "api.query",
                        root, root, call_start, call);
    // In process the engine time is the whole call; behind the coordinator
    // it is the shards' own phases.
    double engine_seconds = call;
    if (fanout) {
      tally.wire_self_s.push_back(call - out->elapsed_seconds);
      double shard_spans = 0.0;
      for (const PhaseSpan& span : out->spans) {
        if (span.name == "fanout") {
          tally.fanout_self_s.push_back(call - span.duration_seconds);
          tally.spans->Record(spans.NextId(), "coord.fanout", root, root,
                              call_start + span.start_seconds,
                              span.duration_seconds);
        } else if (span.name.rfind("shard", 0) == 0) {
          shard_spans += span.duration_seconds;
        }
      }
      engine_seconds = shard_spans;
    }
    tally.AddOutcome(*out, engine_seconds);
    tally.spans->Record(root, "client.query", 0, root, t0, t1 - t0);
  };

  // Warm-up (unrecorded): caches and connections settle before timing.
  ClosedLoop(kClients, std::min(1.0, args.seconds / 10.0), step);

  const std::vector<bool> modes = BlockModes(args.trace);
  const double block_seconds = args.seconds / static_cast<double>(modes.size());
  const Scrape before = ScrapeRegistry();
  int64_t shard_queries = 0;
  int64_t shard_bytes = 0;
  if (fanout) {
    for (auto& server : cluster->servers) {
      shard_queries -= server->queries_served();
      shard_bytes -= server->bytes_sent();
    }
  }
  recording = true;
  for (block = 0; block < static_cast<int>(modes.size()); ++block) {
    traced_block = modes[static_cast<size_t>(block)];
    ClosedLoop(kClients, block_seconds, step);
  }
  recording = false;
  const Scrape after = ScrapeRegistry();
  if (fanout) {
    for (auto& server : cluster->servers) {
      shard_queries += server->queries_served();
      shard_bytes += server->bytes_sent();
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // -- Determinism guard and oracle gate -------------------------------------
  std::map<std::string, int64_t> answered_by;
  uint64_t digest = 1469598103934665603ull;
  int64_t intervals = 0;
  int64_t covered = 0;
  std::vector<double> rel_err;
  std::vector<uint64_t> replay_digest(pool.size());
  std::vector<bool> replay_met(pool.size(), false);
  for (size_t i = 0; i < pool.size(); ++i) {
    Result<QueryOutcome> out =
        fanout ? clients[0].Query(pool[i].sql) : engine->Query(pool[i].sql);
    if (!out.ok()) {
      result.Fail("serial replay failed: " + out.status().ToString());
      continue;
    }
    replay_digest[i] = AnswerDigest(*out);
    replay_met[i] = out->error_bound_met && !out->partial;
    digest = FoldDigest(digest, replay_digest[i]);
    answered_by[out->answered_by]++;
    for (int c = 0; c < kClients; ++c) {
      if (first[c][i] && !EquivalentAnswers(*first[c][i], *out)) {
        result.Fail("concurrent answer differs from the serial replay: " +
                    pool[i].sql);
      }
    }
    if (!CheckAnswer(*out, pool[i], !fanout, &intervals, &covered, &rel_err)) {
      result.Fail("exact answer differs from the oracle: " + pool[i].sql);
    }
  }
  // bound_met_frac is taken over the distinct queries, so it repeats
  // exactly: every execution of a query must equal its replay (checked
  // here), and a query that failed even once counts as a miss.
  int64_t attempted = 0;  // queries in the timed window
  int64_t failed = 0;
  for (const Tally& t : tallies) {
    for (const QuerySample& s : t.samples) {
      ++attempted;
      if (!s.ok) {
        ++failed;
        replay_met[static_cast<size_t>(s.index)] = false;
        continue;
      }
      if (s.digest != replay_digest[static_cast<size_t>(s.index)]) {
        result.Fail("an answer changed between repetitions: " +
                    pool[static_cast<size_t>(s.index)].sql);
      }
    }
  }
  std::printf("answered_by:");
  for (const auto& [layer, n] : answered_by) {
    std::printf(" %s=%lld", layer.c_str(), static_cast<long long>(n));
  }
  std::printf(" (of %zu distinct queries)\nanswer_digest=%016llx\n",
              pool.size(), static_cast<unsigned long long>(digest));
  const int64_t met = std::count(replay_met.begin(), replay_met.end(), true);
  std::printf("queries: attempted=%lld failed=%lld met=%lld/%zu intervals=%lld "
              "covered=%lld\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              static_cast<long long>(met), pool.size(),
              static_cast<long long>(intervals),
              static_cast<long long>(covered));

  // Per-layer figures that need the live system, before it is torn down.
  PerLayer layer;
  if (args.trace && fanout) {
    std::vector<double> pings;
    Result<SciborqClient> shard =
        SciborqClient::Connect("127.0.0.1", cluster->servers[0]->port());
    for (int i = 0; shard.ok() && i < 200; ++i) {
      const double t0 = Now();
      if (shard->Ping().ok()) pings.push_back(Now() - t0);
    }
    layer.server_ping_rtt_us = Median(pings) * 1e6;
    layer.server_bytes_out_per_query =
        shard_queries > 0 ? static_cast<double>(shard_bytes) /
                                static_cast<double>(shard_queries)
                          : 0.0;
    // Shard round trips and the merge, timed on answers fetched directly
    // from each shard with QueryMergeable.
    std::vector<SciborqClient> shard_clients;
    for (auto& server : cluster->servers) {
      Result<SciborqClient> c = SciborqClient::Connect("127.0.0.1", server->port());
      if (c.ok()) shard_clients.push_back(std::move(c).value());
    }
    std::vector<double> rtts;
    std::vector<double> merges;
    for (size_t i = 0; shard_clients.size() == cluster->servers.size() &&
                       i < pool.size() && i < 128;
         ++i) {
      std::vector<ShardAnswer> answers;
      for (size_t s = 0; s < shard_clients.size(); ++s) {
        ShardAnswer a;
        a.label = StrFormat("shard%zu", s);
        const double t0 = Now();
        Result<QueryOutcome> out = shard_clients[s].QueryMergeable(pool[i].sql);
        a.elapsed_seconds = Now() - t0;
        rtts.push_back(a.elapsed_seconds);
        if (out.ok()) {
          a.outcome = std::move(out).value();
        } else {
          a.status = out.status();
        }
        answers.push_back(std::move(a));
      }
      MergeOptions merge;
      merge.aggregates = pool[i].bounded.query.aggregates;
      merge.shards_total = static_cast<int>(answers.size());
      const double t0 = Now();
      (void)MergeShardOutcomes(answers, merge);
      merges.push_back(Now() - t0);
    }
    layer.coord_shard_rtt_us_p50 = Median(rtts) * 1e6;
    layer.coord_merge_us = Median(merges) * 1e6;
  }
  engine.reset();
  cluster.reset();
  for (auto& c : clients) c.Close();

  // -- Persistence epilogue --------------------------------------------------
  const Epilogue ep = PersistAndRecover(args, table, batches, options, history,
                                        pool, sizes.persist_loads, &result);
  result.attempted =
      attempted + static_cast<int64_t>(batches.size()) * sizes.persist_loads;
  result.failed = failed + ep.batches_failed;
  if (!args.trace) {
    EndToEnd e;
    e.setup_s = Median(setups);
    const LoopFigures loop = MedianOfBlocks(tallies, modes, block_seconds);
    e.qps = loop.qps;
    e.query_p50_ms = loop.p50_s * 1e3;
    e.query_p99_ms = loop.p99_s * 1e3;
    e.bound_met_frac =
        static_cast<double>(met) / static_cast<double>(pool.size());
    e.peak_rss_mb = peak_rss_mb;
    e.ci_coverage = intervals > 0 ? static_cast<double>(covered) /
                                        static_cast<double>(intervals)
                                  : 0.0;
    e.ingest_p50_ms = Quantile(ep.batch_seconds, 0.50) * 1e3;
    e.ingest_p95_ms = Quantile(ep.batch_seconds, 0.95) * 1e3;
    e.disk_bytes_per_row = ep.disk_bytes_per_row;
    e.recover_s = ep.recover_seconds;
    std::printf("samples: queries=%zu in %d blocks (each block's p99 has "
                "%zu beyond) ingest_batches=%zu (p95 has %zu beyond) setups=%s\n",
                loop.samples, kBlocks, loop.samples / kBlocks / 100,
                ep.batch_seconds.size(), ep.batch_seconds.size() / 20,
                Join(setups).c_str());
    e.AddTo(&result);
    return result;
  }

  // -- Per-layer figures (traced run) ----------------------------------------
  Tally all;
  for (const Tally& t : tallies) all.Merge(t);
  const double queries = static_cast<double>(std::max<int64_t>(1, all.traced_queries));
  layer.exec_parse_us = Median(all.parse_s) * 1e6;
  if (all.base_ns_per_row.empty()) {
    // No base attempt in the traced blocks: time the base scan directly on
    // the benchmark's copy.
    for (size_t i = 0; i < pool.size() && i < 8; ++i) {
      const double t0 = Now();
      (void)RunExact(table, pool[i].bounded.query);
      all.base_ns_per_row.push_back((Now() - t0) * 1e9 /
                                    static_cast<double>(table.num_rows()));
    }
  }
  layer.exec_base_scan_ns_per_row = Median(all.base_ns_per_row);
  layer.column_morsels_skipped_per_scan =
      all.base_attempts > 0
          ? (SeriesTotal(after, "sciborq_morsels_skipped_total") -
             SeriesTotal(before, "sciborq_morsels_skipped_total")) /
                static_cast<double>(all.base_attempts)
          : 0.0;
  layer.api_engine_self_us = Median(all.engine_self_s) * 1e6;
  layer.core_attempts_per_query = static_cast<double>(all.attempts) / queries;
  layer.core_useful_attempt_frac =
      all.attempts > 0 ? static_cast<double>(all.accepted_attempts) /
                             static_cast<double>(all.attempts)
                       : 0.0;
  layer.core_impression_answer_frac =
      static_cast<double>(all.impression_answers) / queries;
  layer.core_impression_scan_ns_per_row = Median(all.impression_ns_per_row);
  layer.core_rel_err_p50 = Median(rel_err);
  MeasureHeldHierarchy(table, batches, options, history, pool, &layer);
  layer.storage_wal_fsync_ms_p50 = ep.fsync_p50_seconds * 1e3;
  layer.storage_checkpoint_ms_p50 = ep.checkpoint_seconds * 1e3;
  layer.storage_checkpoints = 1;
  layer.storage_wal_bytes_per_row = ep.wal_bytes_per_row;
  layer.server_wire_self_us = Median(all.wire_self_s) * 1e6;
  layer.coord_fanout_self_us = Median(all.fanout_self_s) * 1e6;
  layer.workload_side_effect_us = Median(all.side_effect_s) * 1e6;
  const double qps_untraced = BlockQps(tallies, false, block_seconds, kBlocks / 2);
  const double qps_traced = BlockQps(tallies, true, block_seconds, kBlocks / 2);
  layer.obs_trace_overhead_frac =
      qps_untraced > 0.0 ? 1.0 - qps_traced / qps_untraced : 0.0;
  std::printf("trace: untraced_qps=%.1f traced_qps=%.1f spans=%zu\n",
              qps_untraced, qps_traced, spans.size());
  spans.Write(StrFormat("%s/trace_%s_%llu.jsonl", args.workdir.c_str(),
                        args.workload.c_str(),
                        static_cast<unsigned long long>(args.seed)));
  layer.AddTo(&result);
  return result;
}

}  // namespace perfbench
