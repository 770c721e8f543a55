// ingest: writes beside reads, through the wire.
//
// One SciborqServer on loopback serves a persistent engine whose telemetry
// table keeps a sliding window (retention with checkpoint-on-evict). One
// connection sends fixed-size batches open loop at a fixed rate well below
// capacity; each batch is timed from its scheduled send time, so a stall
// charges every batch queued behind it. Two connections issue closed-loop
// range COUNT/AVG and LAST(value) BY station_id queries, all with WITHIN
// budgets — here timing is part of what is measured.
//
// The window keeps the table at a steady size, and the query log keeps a
// fixed window of queries (filled by a warm-up before timing), so what a
// checkpoint writes and a recovery reads does not grow with the queries
// served. Range queries cover only buckets that are complete and cannot be
// evicted while the query runs, so their truth is known from a replay of the
// generator stream. Interval coverage is judged by a probe after the timed
// window: batches go in one at a time and, between them, a fixed set of
// unbudgeted range queries runs, so the layers it sees and the answers are a
// function of the seed. After the run the database is recovered and checked
// against the same replay.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "api/engine.h"
#include "client/client.h"
#include "core/hierarchy.h"
#include "exec/parser.h"
#include "server/server.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sciborq;

constexpr char kTable[] = "telemetry";
constexpr int kQueryClients = 2;
constexpr int64_t kStations = 64;
constexpr double kBudgetMs = 50.0;
/// Range queries cover only buckets that survive this many more batches, so
/// no query watches its range being evicted while it runs.
constexpr int64_t kInFlightMargin = 3;
/// Batches past the last window slide at which the run stops ingesting.
constexpr int64_t kLogTail = 5;
/// Queries the engine's log keeps (EngineOptions::query_log_window). The log
/// is written into every checkpoint, so an unbounded one would make checkpoint,
/// disk and recovery figures grow with the queries served.
constexpr int64_t kQueryLogWindow = 1024;
/// Untimed queries per client before the timed window; together they fill
/// the query log window.
constexpr int kWarmupQueries = 600;
/// More queries per second than one client can complete; sizes the sample
/// buffers.
constexpr double kMaxClientQps = 50'000.0;
/// Fresh-process Engine::Open repetitions behind recover_s.
constexpr int kRecoveries = 21;

struct IngestSizes {
  int64_t batch_rows = 0;
  double batches_per_second = 0.0;
  int64_t bucket_width = 0;    ///< ts units; ts advances ~1 per row
  int64_t window_buckets = 0;
  int setups = 0;
  int64_t probe_batches = 0;  ///< coverage probe: batches, one at a time
  int probe_queries = 0;      ///< range queries after each probe batch
};

IngestSizes SizesFor(bool smoke) {
  IngestSizes s;
  s.batch_rows = smoke ? 200 : 1'000;
  s.batches_per_second = 20.0;
  // Ten batches per bucket: one batch in ten slides the window, evicts a
  // bucket and checkpoints, so ingest_p95 sits inside the checkpointing
  // batches rather than on the edge between the two populations.
  s.bucket_width = 10 * s.batch_rows;
  s.window_buckets = smoke ? 4 : 10;
  s.setups = smoke ? 2 : 5;
  // Eight window slides, so coverage is judged on eight independently
  // reseeded samples as well as the batches between them.
  s.probe_batches = smoke ? 20 : 80;
  s.probe_queries = smoke ? 4 : 12;
  return s;
}

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// The generator stream, replayed by the benchmark: every batch, plus the
/// per-bucket facts queries and the recovery check are judged against.
struct Stream {
  std::vector<Table> batches;
  /// Max bucket once the first j batches are in (index j; [0] = none).
  std::vector<int64_t> max_bucket_after;
  /// Last batch holding a row of each bucket (late rows included).
  std::map<int64_t, int64_t> last_batch_of_bucket;
  /// Per bucket, per station: row count and sum of ts.
  struct Cell {
    int64_t rows = 0;
    double ts_sum = 0.0;  ///< exact: whole numbers far below 2^53
  };
  std::map<int64_t, std::vector<Cell>> cells;
};

Stream MakeStream(const IngestSizes& sizes, int64_t num_batches, uint64_t seed) {
  TelemetryConfig config;
  config.num_stations = kStations;
  TelemetryGenerator gen = TelemetryGenerator::Make(config, seed).value();
  Stream s;
  s.max_bucket_after.push_back(INT64_MIN);
  for (int64_t b = 0; b < num_batches; ++b) {
    Table batch = gen.NextBatch(sizes.batch_rows);
    int64_t max_bucket = s.max_bucket_after.back();
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t station = batch.column(0).GetInt64(r);
      const int64_t bucket = FloorDiv(batch.column(1).GetInt64(r), sizes.bucket_width);
      max_bucket = std::max(max_bucket, bucket);
      s.last_batch_of_bucket[bucket] = b;
      auto& cell = s.cells[bucket];
      if (cell.empty()) cell.resize(kStations);
      Stream::Cell& c = cell[static_cast<size_t>(station)];
      c.rows += 1;
      c.ts_sum += static_cast<double>(batch.column(1).GetInt64(r));
    }
    s.max_bucket_after.push_back(max_bucket);
    s.batches.push_back(std::move(batch));
  }
  return s;
}

/// The retained window after the first `n` batches, in arrival order — the
/// oracle for the recovered database.
struct WindowOracle {
  int64_t rows = 0;
  int64_t min_ts = INT64_MAX;
  int64_t max_ts = INT64_MIN;
  std::map<int64_t, std::pair<int64_t, double>> last;  ///< station -> (ts, value)
};

WindowOracle OracleAfter(const Stream& s, int64_t n, const IngestSizes& sizes) {
  WindowOracle o;
  const int64_t cutoff = s.max_bucket_after[static_cast<size_t>(n)] - sizes.window_buckets;
  for (int64_t b = 0; b < n; ++b) {
    const Table& batch = s.batches[static_cast<size_t>(b)];
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t ts = batch.column(1).GetInt64(r);
      if (FloorDiv(ts, sizes.bucket_width) <= cutoff) continue;
      ++o.rows;
      o.min_ts = std::min(o.min_ts, ts);
      o.max_ts = std::max(o.max_ts, ts);
      const int64_t station = batch.column(0).GetInt64(r);
      auto it = o.last.find(station);
      if (it == o.last.end() || ts >= it->second.first) {
        o.last[station] = {ts, batch.column(2).GetDouble(r)};
      }
    }
  }
  return o;
}

/// A served database: persistent engine, windowed table, loopback server,
/// and the ingest connection.
struct Served {
  std::string dir;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SciborqServer> server;

  ~Served() {
    if (server) server->Stop();
  }
};

EngineOptions ServedEngineOptions() {
  EngineOptions options;
  options.query_log_window = kQueryLogWindow;
  return options;
}

Status StartServed(const std::string& dir, const IngestSizes& sizes, uint64_t seed,
                   Served* served) {
  served->dir = dir;
  SCIBORQ_ASSIGN_OR_RETURN(served->engine, Engine::Open(dir, ServedEngineOptions()));
  TableOptions options;
  options.seed = seed;
  // Layers sized to the 100k-row window rather than the 64Ki default.
  options.layers = {{"l0", 16 * 1024}, {"l1", 2 * 1024}, {"l2", 256}};
  options.retention.time_column = "ts";
  options.retention.bucket_width = sizes.bucket_width;
  options.retention.window_buckets = sizes.window_buckets;
  options.retention.checkpoint_on_evict = true;
  SCIBORQ_RETURN_NOT_OK(served->engine->CreateTable(
      kTable, TelemetryGenerator::TableSchema(), options));
  served->server = std::make_unique<SciborqServer>(served->engine.get());
  return served->server->Start();
}

/// One generated query and what its answer is judged against.
struct IngestQuery {
  std::string sql;
  int64_t truth_count = 0;
  double truth_avg = 0.0;
};

/// Range queries cover whole buckets that are complete before batch
/// `acked` and survive the next kInFlightMargin batches; otherwise LAST.
/// Range queries average ts (the mean event time of the readings) rather
/// than value: each station's value is a random walk from a random level, so
/// AVG(value) over a range sits near zero by a seed-dependent margin, and its
/// relative error, not the sample size, would decide whether a layer can
/// answer at all, making the work per query a function of the seed. One
/// live range query in three asks for ERROR 1%, which no layer meets on a
/// COUNT, so a fixed share of the work is base scans under ingest and the
/// latency tail is theirs rather than the host scheduler's. Probe queries
/// are range queries at ERROR 10% only and state no WITHIN budget, so the
/// wall clock cannot choose the layer that answers them.
IngestQuery NextQuery(Rng* rng, const Stream& s, int64_t acked,
                      const IngestSizes& sizes, bool probe = false) {
  IngestQuery q;
  const size_t horizon = std::min(s.max_bucket_after.size() - 1,
                                  static_cast<size_t>(acked + kInFlightMargin));
  const int64_t oldest_safe =
      s.max_bucket_after[horizon] - sizes.window_buckets + 1;
  std::vector<int64_t> stable;
  for (int64_t b = std::max<int64_t>(oldest_safe, 0);; ++b) {
    const auto it = s.last_batch_of_bucket.find(b);
    if (it == s.last_batch_of_bucket.end() || it->second >= acked) break;
    stable.push_back(b);
  }
  if ((!probe && rng->Bernoulli(0.25)) || stable.empty()) {
    q.sql = StrFormat("SELECT LAST(value) FROM %s BY station_id WITHIN %g MS",
                      kTable, kBudgetMs);
    return q;
  }
  size_t i = rng->NextBounded(stable.size());
  size_t j = rng->NextBounded(stable.size());
  if (i > j) std::swap(i, j);
  const int64_t lo = stable[i] * sizes.bucket_width;
  const int64_t hi = (stable[j] + 1) * sizes.bucket_width;
  const int64_t stations = rng->Bernoulli(0.5) ? kStations : 8 + rng->UniformInt(0, 40);
  const bool tight = !probe && rng->Bernoulli(1.0 / 3.0);
  q.sql = StrFormat(
      "SELECT COUNT(*), AVG(ts) FROM %s WHERE ts >= %lld AND ts < %lld%s "
      "%sERROR %d%%",
      kTable, static_cast<long long>(lo), static_cast<long long>(hi),
      stations < kStations
          ? StrFormat(" AND station_id < %lld", static_cast<long long>(stations)).c_str()
          : "",
      probe ? "" : StrFormat("WITHIN %g MS ", kBudgetMs).c_str(), tight ? 1 : 10);
  double sum = 0.0;
  for (size_t b = i; b <= j; ++b) {
    const auto& cell = s.cells.at(stable[b]);
    for (int64_t st = 0; st < stations; ++st) {
      const Stream::Cell& c = cell[static_cast<size_t>(st)];
      q.truth_count += c.rows;
      sum += c.ts_sum;
    }
  }
  q.truth_avg = q.truth_count > 0 ? sum / static_cast<double>(q.truth_count) : 0.0;
  return q;
}

/// What the coverage probe found: non-exact intervals, those that hold the
/// replayed truth, the relative errors, and a digest of every answer.
struct Probe {
  int64_t queries = 0;
  int64_t failed = 0;
  int64_t base_answers = 0;
  int64_t intervals = 0;
  int64_t covered = 0;
  std::vector<double> rel_err;
  uint64_t digest = 0;
};

}  // namespace

RunResult RunIngestWorkload(const Args& args) {
  RunResult result;
  // One malloc arena for the whole process. With one arena per thread, how
  // much freed memory the server's connection threads keep resident depends
  // on which thread allocated what, and peak_rss_mb moved by 15% from run to
  // run. Set before any thread starts.
  mallopt(M_ARENA_MAX, 1);
  const IngestSizes sizes = SizesFor(args.smoke);
  const int64_t fill_batches = sizes.window_buckets * 10;
  const int64_t timed_batches =
      static_cast<int64_t>(std::llround(args.seconds * sizes.batches_per_second));
  const double period = 1.0 / sizes.batches_per_second;
  // Beyond the probe, three buckets of spare batches: the in-flight margin
  // and the tail that settles the WAL (below).
  const Stream stream = MakeStream(
      sizes, fill_batches + timed_batches + sizes.probe_batches + 30, args.seed);

  // -- Setup, repeated; the last one serves --------------------------------
  // Open, create, start, connect and fill the window through the wire.
  std::unique_ptr<Served> served;
  std::unique_ptr<SciborqClient> ingest_client;
  std::vector<double> setups;
  for (int k = 0; k < sizes.setups; ++k) {
    ingest_client.reset();
    served.reset();
    const std::string dir = StrFormat("%s/ingest%d", args.workdir.c_str(), k);
    ResetDir(dir);
    const double t0 = Now();
    served = std::make_unique<Served>();
    Status st = StartServed(dir, sizes, args.seed, served.get());
    if (st.ok()) {
      Result<SciborqClient> c = SciborqClient::Connect("127.0.0.1", served->server->port());
      st = c.status();
      if (c.ok()) ingest_client = std::make_unique<SciborqClient>(std::move(c).value());
    }
    for (int64_t b = 0; st.ok() && b < fill_batches; ++b) {
      st = ingest_client->Ingest(kTable, stream.batches[static_cast<size_t>(b)]).status();
    }
    setups.push_back(Now() - t0);
    if (!st.ok()) {
      result.Fail("setup: " + st.ToString());
      return result;
    }
  }

  std::vector<SciborqClient> clients;
  for (int c = 0; c < kQueryClients; ++c) {
    Result<SciborqClient> client =
        SciborqClient::Connect("127.0.0.1", served->server->port());
    if (!client.ok()) {
      result.Fail("connect: " + client.status().ToString());
      return result;
    }
    clients.push_back(std::move(client).value());
  }

  // -- Warm-up: fill the query log window, untimed -------------------------
  {
    std::vector<std::thread> warmers;
    std::atomic<int64_t> warm_failed{0};
    for (int c = 0; c < kQueryClients; ++c) {
      warmers.emplace_back([&, c] {
        Rng rng(args.seed * 37 + static_cast<uint64_t>(c));
        for (int i = 0; i < kWarmupQueries; ++i) {
          const IngestQuery q = NextQuery(&rng, stream, fill_batches, sizes);
          if (!clients[static_cast<size_t>(c)].Query(q.sql).ok()) ++warm_failed;
        }
      });
    }
    for (std::thread& t : warmers) t.join();
    if (warm_failed.load() > 0) {
      result.Fail("warm-up queries failed");
      return result;
    }
  }

  // -- Timed window: open-loop ingest beside closed-loop queries -------------
  std::atomic<int64_t> acked{fill_batches};
  std::vector<double> batch_latency;
  std::vector<double> batch_lateness;
  std::vector<std::pair<double, double>> batch_spans;
  int64_t batches_failed = 0;
  SpanLog spans(args.trace);
  std::vector<Tally> tallies(kQueryClients);
  std::vector<std::vector<std::pair<double, double>>> query_spans(kQueryClients);
  std::vector<Rng> rngs;
  // Room for every sample up front: a reserved page is resident only once
  // written, so the benchmark's own bookkeeping grows peak_rss_mb in step
  // with the queries served, not in the jumps of a doubling vector.
  const size_t max_samples = static_cast<size_t>(args.seconds * kMaxClientQps) + 1024;
  for (int c = 0; c < kQueryClients; ++c) {
    tallies[c].spans = spans.NewBuffer();
    tallies[c].samples.reserve(max_samples);
    query_spans[c].reserve(max_samples);
    rngs.emplace_back(args.seed * 31 + static_cast<uint64_t>(c));
  }
  SpanLog::Buffer* ingest_spans = spans.NewBuffer();

  bool traced_block = false;
  int block = 0;
  const auto step = [&](int c) {
    Tally& tally = tallies[c];
    const IngestQuery q = NextQuery(&rngs[c], stream, acked.load(), sizes);
    const bool traced = traced_block;
    const uint64_t root = traced ? spans.NextId() : 0;
    const double t0 = Now();
    double call_start = t0;
    if (traced) {
      (void)ParseBoundedQuery(q.sql);
      call_start = Now();
      tally.parse_s.push_back(call_start - t0);
      tally.spans->Record(spans.NextId(), "exec.parse", root, root, t0,
                          call_start - t0);
    }
    Result<QueryOutcome> out = clients[c].Query(q.sql);
    const double t1 = Now();
    QuerySample s;
    s.block = block;
    s.start = t0;
    s.latency = t1 - t0;
    s.ok = out.ok();
    s.traced = traced;
    s.met = out.ok() && out->error_bound_met && !out->deadline_exceeded &&
            s.latency * 1e3 <= kBudgetMs;
    tally.samples.push_back(s);
    query_spans[c].emplace_back(t0, t1);
    if (!out.ok() || !traced) return;
    tally.spans->Record(spans.NextId(), "server.query", root, root, call_start,
                        t1 - call_start);
    tally.wire_self_s.push_back(t1 - call_start - out->elapsed_seconds);
    tally.AddOutcome(*out, out->elapsed_seconds);
    tally.spans->Record(root, "client.query", 0, root, t0, t1 - t0);
  };

  const Scrape before = ScrapeRegistry();
  const int64_t served_before = served->server->queries_served();
  const int64_t bytes_before = served->server->bytes_sent();
  const double start = Now() + 0.01;
  std::thread ingester([&] {
    for (int64_t i = 0; i < timed_batches; ++i) {
      const double due = start + static_cast<double>(i) * period;
      double now = Now();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        now = Now();
      }
      batch_lateness.push_back(now - due);
      const Result<int64_t> rows = ingest_client->Ingest(
          kTable, stream.batches[static_cast<size_t>(fill_batches + i)]);
      const double done = Now();
      if (!rows.ok()) {
        ++batches_failed;
        std::fprintf(stderr, "ingest batch failed: %s\n",
                     rows.status().ToString().c_str());
      }
      batch_latency.push_back(done - due);
      batch_spans.emplace_back(now, done);
      if (args.trace) {
        ingest_spans->Record(spans.NextId(), "client.ingest", 0, 0, now, done - now);
      }
      acked.store(fill_batches + i + 1);
    }
  });
  const std::vector<bool> modes = BlockModes(args.trace);
  const double block_seconds = args.seconds / static_cast<double>(modes.size());
  while (Now() < start) std::this_thread::yield();
  for (block = 0; block < static_cast<int>(modes.size()); ++block) {
    traced_block = modes[static_cast<size_t>(block)];
    ClosedLoop(kQueryClients, block_seconds, step);
  }
  ingester.join();
  const Scrape after = ScrapeRegistry();
  const double peak_rss_mb = PeakRssMb();
  const int64_t served_queries = served->server->queries_served() - served_before;
  const int64_t bytes_out = served->server->bytes_sent() - bytes_before;

  PerLayer layer;
  if (args.trace) {
    std::vector<double> pings;
    for (int i = 0; i < 200; ++i) {
      const double t0 = Now();
      if (clients[0].Ping().ok()) pings.push_back(Now() - t0);
    }
    layer.server_ping_rtt_us = Median(pings) * 1e6;
  }

  // -- Coverage probe --------------------------------------------------------
  // Batches go in one at a time; after each, a fixed set of unbudgeted range
  // queries is judged against the replay. No query runs beside a batch and
  // the table has no interest tracker, so the layers each query sees, and
  // so every answer, are a function of the seed.
  int64_t total_batches = fill_batches + timed_batches;
  Probe probe;
  Rng probe_rng(args.seed * 41 + 7);
  for (int64_t b = 0; b < sizes.probe_batches && batches_failed == 0; ++b) {
    const Result<int64_t> rows = ingest_client->Ingest(
        kTable, stream.batches[static_cast<size_t>(total_batches)]);
    if (!rows.ok()) ++batches_failed;
    ++total_batches;
    for (int i = 0; i < sizes.probe_queries; ++i) {
      const IngestQuery q = NextQuery(&probe_rng, stream, total_batches, sizes, true);
      Result<QueryOutcome> out = clients[0].Query(q.sql);
      ++probe.queries;
      if (!out.ok() || out->rows.size() != 1 || out->estimates.size() != 1 ||
          out->estimates[0].size() != 2) {
        ++probe.failed;
        result.Fail(StrFormat("probe query failed or malformed: %s",
                              out.ok() ? q.sql.c_str()
                                       : out.status().ToString().c_str()));
        continue;
      }
      probe.digest = FoldDigest(probe.digest, AnswerDigest(*out));
      const double truth[2] = {static_cast<double>(q.truth_count), q.truth_avg};
      if (out->exact) {
        // Base answers are the oracle's own figures: COUNT bit for bit, AVG
        // to the last bits (the oracle sums in another order).
        ++probe.base_answers;
        if (out->rows[0].values[0] != truth[0] || !Covers(out->estimates[0][1], truth[1])) {
          result.Fail("probe base answer differs from the replay: " + q.sql);
        }
        continue;
      }
      for (int a = 0; a < 2; ++a) {
        const AggregateEstimate& e = out->estimates[0][static_cast<size_t>(a)];
        if (e.exact) continue;
        ++probe.intervals;
        if (Covers(e, truth[a])) ++probe.covered;
        if (truth[a] != 0.0) {
          probe.rel_err.push_back(std::fabs(e.estimate - truth[a]) / std::fabs(truth[a]));
        }
      }
    }
  }
  std::printf("probe: batches=%lld queries=%lld base=%lld intervals=%lld covered=%lld "
              "digest=%016llx\n",
              static_cast<long long>(sizes.probe_batches),
              static_cast<long long>(probe.queries),
              static_cast<long long>(probe.base_answers),
              static_cast<long long>(probe.intervals),
              static_cast<long long>(probe.covered),
              static_cast<unsigned long long>(probe.digest));

  // -- Settle the WAL at a fixed phase --------------------------------------
  // Each eviction checkpoints and empties the WAL. Ending kLogTail batches
  // after one means the files measured and recovered below hold the same
  // amount of WAL on every run, whatever the seed's bucket boundaries.
  const auto slid = [&stream](int64_t count) {  // batch `count` moved the window
    return stream.max_bucket_after[static_cast<size_t>(count)] >
           stream.max_bucket_after[static_cast<size_t>(count - 1)];
  };
  int64_t since_slide = 0;
  for (int64_t j = total_batches; j > 0 && !slid(j); --j) ++since_slide;
  int64_t tail_batches = sizes.probe_batches;
  while (since_slide != kLogTail &&
         total_batches < static_cast<int64_t>(stream.batches.size())) {
    const Result<int64_t> rows = ingest_client->Ingest(
        kTable, stream.batches[static_cast<size_t>(total_batches)]);
    if (!rows.ok()) ++batches_failed;
    ++total_batches;
    ++tail_batches;
    since_slide = slid(total_batches) ? 0 : since_slide + 1;
  }
  WindowOracle oracle = OracleAfter(stream, total_batches, sizes);
  if (args.corrupt_oracle) {
    oracle.rows += 1;
    for (auto& [station, last] : oracle.last) last.second = last.second * 1.5 + 1.0;
  }

  // -- Stop, measure the files, recover and check against the replay --------
  const int64_t db_bytes = DirBytes(served->dir);
  const std::string dir = served->dir;
  for (auto& c : clients) c.Close();
  ingest_client.reset();
  served.reset();
  const std::vector<double> opens = TimeRecoveries(dir, kRecoveries, &result);
  {
    Result<std::unique_ptr<Engine>> engine = Engine::Open(dir, ServedEngineOptions());
    if (!engine.ok()) {
      result.Fail("recover: " + engine.status().ToString());
      return result;
    }
    const Result<int64_t> rows = (*engine)->TableRows(kTable);
    if (!rows.ok() || *rows != oracle.rows) {
      result.Fail(StrFormat("recovered %lld rows, the replayed window holds %lld",
                            rows.ok() ? static_cast<long long>(*rows) : -1LL,
                            static_cast<long long>(oracle.rows)));
    }
    const Result<QueryOutcome> range = (*engine)->Query(StrFormat(
        "SELECT COUNT(*), MIN(ts), MAX(ts) FROM %s EXACT", kTable));
    if (!range.ok() || range->rows.size() != 1 ||
        range->rows[0].values[0] != static_cast<double>(oracle.rows) ||
        range->rows[0].values[1] != static_cast<double>(oracle.min_ts) ||
        range->rows[0].values[2] != static_cast<double>(oracle.max_ts)) {
      result.Fail("recovered COUNT/MIN/MAX(ts) differ from the replay");
    }
    const Result<QueryOutcome> last = (*engine)->Query(
        StrFormat("SELECT LAST(value) FROM %s BY station_id EXACT", kTable));
    bool last_ok = last.ok() && last->rows.size() == oracle.last.size();
    for (size_t r = 0; last_ok && r < last->rows.size(); ++r) {
      const auto it = oracle.last.find(last->rows[r].group_key.int64());
      last_ok = it != oracle.last.end() &&
                last->rows[r].values[0] == it->second.second;
    }
    if (!last_ok) result.Fail("recovered LAST(value) BY station_id differs from the replay");
  }
  std::vector<double> opens_ms;
  for (double v : opens) opens_ms.push_back(v * 1e3);
  std::printf("recover: fresh-process opens=%sms\n", Join(opens_ms).c_str());

  // -- Figures -----------------------------------------------------------------
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t met = 0;
  std::vector<double> latencies;
  std::vector<double> overlapped;
  std::vector<double> clear;
  for (int c = 0; c < kQueryClients; ++c) {
    const Tally& t = tallies[c];
    for (size_t i = 0; i < t.samples.size(); ++i) {
      const QuerySample& s = t.samples[i];
      ++attempted;
      if (!s.ok) ++failed;
      if (s.met) ++met;
      if (!s.ok) continue;
      if (!s.traced) latencies.push_back(s.latency);
      // Did an ingest batch run while this query was in flight?
      const auto [q0, q1] = query_spans[c][i];
      // Batches run one after another, so only the last one to start
      // before the query ended can still have been running.
      const auto it = std::lower_bound(
          batch_spans.begin(), batch_spans.end(), std::make_pair(q1, q1));
      const bool overlap = it != batch_spans.begin() && std::prev(it)->second > q0;
      (overlap ? overlapped : clear).push_back(s.latency);
    }
  }
  std::printf("queries: attempted=%lld failed=%lld met=%lld "
              "latency p50/p90/p99/p99.9=%.3f/%.3f/%.3f/%.3fms "
              "overlapping a batch=%zu\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              static_cast<long long>(met), Quantile(latencies, 0.5) * 1e3,
              Quantile(latencies, 0.9) * 1e3, Quantile(latencies, 0.99) * 1e3,
              Quantile(latencies, 0.999) * 1e3, overlapped.size());
  std::printf("ingest: batches=%lld failed=%lld rate=%.1f/s lateness p50=%.3fms "
              "max=%.3fms (p95 has %lld beyond)\n",
              static_cast<long long>(timed_batches),
              static_cast<long long>(batches_failed), sizes.batches_per_second,
              Median(batch_lateness) * 1e3,
              batch_lateness.empty() ? 0.0
                                     : *std::max_element(batch_lateness.begin(),
                                                         batch_lateness.end()) * 1e3,
              static_cast<long long>(batch_latency.size() / 20));
  result.attempted = attempted + timed_batches + tail_batches + probe.queries;
  result.failed = failed + batches_failed + probe.failed;
  if (batches_failed > 0) result.Fail("ingest batches failed");

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = Median(setups);
    const LoopFigures loop = MedianOfBlocks(tallies, modes, block_seconds);
    e.qps = loop.qps;
    e.query_p50_ms = loop.p50_s * 1e3;
    e.query_p99_ms = loop.p99_s * 1e3;
    e.bound_met_frac =
        attempted > 0 ? static_cast<double>(met) / static_cast<double>(attempted) : 0.0;
    e.peak_rss_mb = peak_rss_mb;
    e.ci_coverage = probe.intervals > 0 ? static_cast<double>(probe.covered) /
                                              static_cast<double>(probe.intervals)
                                        : 0.0;
    e.ingest_p50_ms = Quantile(batch_latency, 0.50) * 1e3;
    e.ingest_p95_ms = Quantile(batch_latency, 0.95) * 1e3;
    e.disk_bytes_per_row =
        static_cast<double>(db_bytes) / static_cast<double>(std::max<int64_t>(1, oracle.rows));
    e.recover_s = Quantile(opens, 0.0);  // the fastest: see TimeRecoveries
    e.AddTo(&result);
    return result;
  }

  // -- Per-layer figures (traced run) ----------------------------------------
  Tally all;
  for (const Tally& t : tallies) all.Merge(t);
  const double queries = static_cast<double>(std::max<int64_t>(1, all.traced_queries));
  const double rows_ingested = static_cast<double>(timed_batches * sizes.batch_rows);
  layer.exec_parse_us = Median(all.parse_s) * 1e6;
  if (all.base_ns_per_row.empty()) {
    // No base attempt under the budgets: time the base scan on a
    // benchmark-held copy of the final window.
    Table window(TelemetryGenerator::TableSchema());
    const int64_t cutoff = stream.max_bucket_after[static_cast<size_t>(total_batches)] -
                           sizes.window_buckets;
    for (int64_t b = 0; b < total_batches; ++b) {
      const Table& batch = stream.batches[static_cast<size_t>(b)];
      for (int64_t r = 0; r < batch.num_rows(); ++r) {
        if (FloorDiv(batch.column(1).GetInt64(r), sizes.bucket_width) > cutoff) {
          window.AppendRowFrom(batch, r);
        }
      }
    }
    const AggregateQuery scan =
        ParseQuery(StrFormat("SELECT COUNT(*), AVG(value) FROM %s WHERE station_id < 32",
                             kTable))
            .value();
    for (int i = 0; i < 8 && window.num_rows() > 0; ++i) {
      const double t0 = Now();
      (void)RunExact(window, scan);
      all.base_ns_per_row.push_back((Now() - t0) * 1e9 /
                                    static_cast<double>(window.num_rows()));
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
  const double clear_p50 = Median(clear);
  layer.api_overlap_wait_ratio = clear_p50 > 0.0 ? Median(overlapped) / clear_p50 : 0.0;
  layer.core_attempts_per_query = static_cast<double>(all.attempts) / queries;
  layer.core_useful_attempt_frac =
      all.attempts > 0 ? static_cast<double>(all.accepted_attempts) /
                             static_cast<double>(all.attempts)
                       : 0.0;
  layer.core_impression_answer_frac = static_cast<double>(all.impression_answers) / queries;
  layer.core_impression_scan_ns_per_row = Median(all.impression_ns_per_row);
  layer.core_rel_err_p50 = Median(probe.rel_err);
  {
    // Hierarchy maintenance on a benchmark-held hierarchy fed the same
    // batches (no window: the sampling cost alone).
    ImpressionSpec spec;
    spec.seed = args.seed;
    Result<ImpressionHierarchy> hierarchy = ImpressionHierarchy::Make(
        TelemetryGenerator::TableSchema(),
        {{"l0", 64 * 1024}, {"l1", 8 * 1024}, {"l2", 1024}}, spec);
    if (hierarchy.ok()) {
      const double t0 = Now();
      for (int64_t b = 0; b < total_batches; ++b) {
        (void)hierarchy->IngestBatch(stream.batches[static_cast<size_t>(b)]);
      }
      layer.core_hierarchy_ingest_us_per_krow =
          (Now() - t0) * 1e6 /
          (static_cast<double>(total_batches * sizes.batch_rows) / 1000.0);
    }
  }
  layer.storage_wal_fsync_ms_p50 =
      HistogramDeltaQuantile(before, after, "sciborq_wal_fsync_seconds", 0.5) * 1e3;
  layer.storage_checkpoint_ms_p50 =
      HistogramDeltaQuantile(before, after, "sciborq_checkpoint_seconds", 0.5) * 1e3;
  layer.storage_checkpoints = SeriesTotal(after, "sciborq_checkpoint_seconds_count") -
                              SeriesTotal(before, "sciborq_checkpoint_seconds_count");
  {
    // WAL bytes per row, on a side database whose table has no window (so
    // no checkpoint folds the log away while it is measured).
    const std::string probe = args.workdir + "/walprobe";
    ResetDir(probe);
    Result<std::unique_ptr<Engine>> engine = Engine::Open(probe);
    if (engine.ok() &&
        (*engine)->CreateTable(kTable, TelemetryGenerator::TableSchema()).ok()) {
      const int64_t empty = DirBytes(probe);
      int64_t rows = 0;
      for (int64_t b = 0; b < 5; ++b) {
        if ((*engine)->IngestBatch(kTable, stream.batches[static_cast<size_t>(b)]).ok()) {
          rows += stream.batches[static_cast<size_t>(b)].num_rows();
        }
      }
      layer.storage_wal_bytes_per_row =
          rows > 0 ? static_cast<double>(DirBytes(probe) - empty) / static_cast<double>(rows)
                   : 0.0;
    }
  }
  layer.retention_rows_evicted_per_row =
      (SeriesTotal(after, "sciborq_rows_evicted_total") -
       SeriesTotal(before, "sciborq_rows_evicted_total")) /
      rows_ingested;
  layer.server_wire_self_us = Median(all.wire_self_s) * 1e6;
  layer.server_bytes_out_per_query =
      served_queries > 0 ? static_cast<double>(bytes_out) / static_cast<double>(served_queries)
                         : 0.0;
  layer.workload_side_effect_us = Median(all.side_effect_s) * 1e6;
  const double qps_untraced = BlockQps(tallies, false, block_seconds, kBlocks / 2);
  const double qps_traced = BlockQps(tallies, true, block_seconds, kBlocks / 2);
  layer.obs_trace_overhead_frac =
      qps_untraced > 0.0 ? 1.0 - qps_traced / qps_untraced : 0.0;
  std::printf("trace: untraced_qps=%.1f traced_qps=%.1f spans=%zu\n", qps_untraced,
              qps_traced, spans.size());
  spans.Write(StrFormat("%s/trace_%s_%llu.jsonl", args.workdir.c_str(),
                        args.workload.c_str(), static_cast<unsigned long long>(args.seed)));
  layer.AddTo(&result);
  return result;
}

}  // namespace perfbench
