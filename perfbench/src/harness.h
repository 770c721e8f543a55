// Shared plumbing of the bounds-contract benchmark: arguments, statistics,
// answer digests, registry deltas, benchmark-side spans and the result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for databases and trace files (inside the checkout).
  std::string workdir;
  /// Tiny sizes: the self-test mode, not a measurement.
  bool smoke = false;
  /// Perturbs every oracle value, so a working gate must fail the run.
  bool corrupt_oracle = false;
  /// Identity of the measured sources (git sha or a digest of src/).
  std::string source_id = "unknown";
};

/// One printed metric, end-to-end or per-layer.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the gate verdict, operation counts,
/// and the metrics of the requested mode.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records a gate failure (printed to stderr) and marks the run incorrect.
  void Fail(const std::string& why);
  /// Appends a metric; a non-finite value is a failed run, not a number.
  void Add(const std::string& name, double value, const std::string& unit);
};

/// Every end-to-end metric, named once here so each workload prints the same
/// set. Workloads without their own ingest stream fill the ingest/disk
/// figures from the persistence epilogue (see README.md).
struct EndToEnd {
  double setup_s = 0.0;
  double qps = 0.0;
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  double bound_met_frac = 0.0;
  double peak_rss_mb = 0.0;
  double ci_coverage = 0.0;
  double ingest_p50_ms = 0.0;
  double ingest_p95_ms = 0.0;
  double disk_bytes_per_row = 0.0;
  double recover_s = 0.0;

  void AddTo(RunResult* result) const;
};

/// Every per-layer metric of the traced run. A layer a workload does not run
/// keeps 0 (it did no work); README.md lists which layers run where.
struct PerLayer {
  double exec_parse_us = 0.0;
  double exec_base_scan_ns_per_row = 0.0;
  double column_morsels_skipped_per_scan = 0.0;
  double api_engine_self_us = 0.0;
  double api_overlap_wait_ratio = 0.0;
  double core_attempts_per_query = 0.0;
  double core_useful_attempt_frac = 0.0;
  double core_impression_answer_frac = 0.0;
  double core_impression_scan_ns_per_row = 0.0;
  double core_rel_err_p50 = 0.0;
  double core_hierarchy_ingest_us_per_krow = 0.0;
  double storage_wal_fsync_ms_p50 = 0.0;
  double storage_checkpoint_ms_p50 = 0.0;
  double storage_checkpoints = 0.0;
  double storage_wal_bytes_per_row = 0.0;
  double retention_rows_evicted_per_row = 0.0;
  double server_ping_rtt_us = 0.0;
  double server_wire_self_us = 0.0;
  double server_bytes_out_per_query = 0.0;
  double coord_shard_rtt_us_p50 = 0.0;
  double coord_merge_us = 0.0;
  double coord_fanout_self_us = 0.0;
  double workload_side_effect_us = 0.0;
  double obs_trace_overhead_frac = 0.0;

  void AddTo(RunResult* result) const;
};

// -- Statistics ---------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// "a,b,c" with three decimals, for the human-readable lines.
std::string Join(const std::vector<double>& values);

/// Peak resident set size of this process so far (VmHWM), in MB.
double PeakRssMb();

/// Total size of the regular files under `dir`, recursively.
int64_t DirBytes(const std::string& dir);

/// Creates `dir` fresh (removing what was there). Aborts on failure.
void ResetDir(const std::string& dir);

/// Seconds since an arbitrary process-wide epoch (steady clock).
double Now();

// -- Recovery timing ----------------------------------------------------------

/// Times `Engine::Open(dir)` in `runs` fresh processes (this binary with
/// --recover-probe), one after another and each pinned to the next CPU this
/// process may use, and returns each open's seconds. A
/// fresh process recovers the way a restarted server does, from a cold heap,
/// so the figure does not depend on what this process allocated and freed
/// before. A probe that fails is recorded in `result` and yields no figure.
///
/// recover_s is the fastest of them. One open is a single thread for tens
/// of milliseconds, and on a shared host a virtual CPU runs for seconds at a
/// time at one of two speeds (whether its hyperthread sibling is busy): on a
/// 4-vCPU Xeon virtual machine the same open measured 8.3 or 11.9 ms by
/// process, and at one moment one CPU ran it in 9.6 ms and another in 13.7.
/// A median reports which
/// speed the host gave; the minimum reports the open's own cost.
std::vector<double> TimeRecoveries(const std::string& dir, int runs,
                                   RunResult* result);
/// The --recover-probe side: pins itself to `cpu`, opens `dir`, prints the
/// seconds it took and returns the exit code.
int RecoverProbe(const std::string& dir, int cpu);

// -- Answer identity ----------------------------------------------------------

/// FNV-1a over the answer content of an outcome: answered_by, contract
/// flags, rows and estimates bit for bit. Timing is excluded.
uint64_t AnswerDigest(const sciborq::QueryOutcome& outcome);
/// Folds `value` into a running FNV-1a digest.
uint64_t FoldDigest(uint64_t digest, uint64_t value);

/// Whether an interval contains the oracle value. The oracle sums in another
/// order than the engine, so a zero-width interval (a sample that holds its
/// whole stratum) is allowed the last bits of rounding.
bool Covers(const sciborq::AggregateEstimate& e, double truth);

// -- Registry deltas ----------------------------------------------------------

/// A scrape of the process registry, for before/after deltas.
using Scrape = std::vector<sciborq::obs::StatSample>;
Scrape ScrapeRegistry();
/// Sum of every series named `name` (all label sets).
double SeriesTotal(const Scrape& scrape, const std::string& name);
/// Quantile of the observations a histogram family received between two
/// scrapes, interpolated linearly inside the bucket that holds it.
double HistogramDeltaQuantile(const Scrape& before, const Scrape& after,
                              const std::string& family, double q);

// -- Benchmark-side spans -----------------------------------------------------

/// Spans recorded around the benchmark's own calls into the library, kept in
/// memory and written out at exit. Only the traced run records any: callers
/// check enabled() before timing, so untraced runs pay one branch.
class SpanLog {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t request = 0; ///< spans of one request share this id
    std::string name;
    double start = 0.0;   ///< seconds on the Now() clock
    double duration = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Per-thread buffer: no locking on the hot path.
  class Buffer {
   public:
    /// Records a finished span. `id` comes from SpanLog::NextId(), so a
    /// parent can hand its id to children recorded before it ends.
    void Record(uint64_t id, std::string name, uint64_t parent,
                uint64_t request, double start, double duration) {
      spans_.push_back(
          {id, parent, request, std::move(name), start, duration});
    }
    const std::vector<Span>& spans() const { return spans_; }

   private:
    friend class SpanLog;
    Buffer() = default;
    std::vector<Span> spans_;
  };

  /// A buffer owned by the log; call once per thread, before it starts.
  Buffer* NewBuffer();
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Writes every span as one JSON object per line.
  void Write(const std::string& path) const;
  size_t size() const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// -- Closed-loop clients ------------------------------------------------------

/// Runs `clients` threads that each call `step(client)` back to back until
/// `seconds` have passed (a closed loop: the next query waits for the last
/// answer), and joins them.
void ClosedLoop(int clients, double seconds,
                const std::function<void(int)>& step);

/// The timed window is cut into kBlocks equal blocks; true marks a traced
/// block. Untraced runs trace none. Traced runs alternate, so the tracing
/// overhead is a ratio of interleaved measurements rather than of two runs.
constexpr int kBlocks = 10;
std::vector<bool> BlockModes(bool trace);

/// One timed query as its client saw it.
struct QuerySample {
  int index = -1;  ///< pool index (-1 when the query is not from a pool)
  int block = 0;   ///< timed block the query started in
  double start = 0.0;
  double latency = 0.0;
  bool ok = false;
  bool met = false;  ///< ok and the stated bounds were met
  bool traced = false;
  uint64_t digest = 0;
};

/// Everything one client thread records. Per-layer fields fill only in
/// traced blocks.
struct Tally {
  std::vector<QuerySample> samples;
  SpanLog::Buffer* spans = nullptr;
  int64_t traced_queries = 0;
  int64_t attempts = 0;
  int64_t accepted_attempts = 0;
  int64_t base_attempts = 0;
  int64_t impression_answers = 0;
  std::vector<double> parse_s;
  std::vector<double> engine_self_s;
  std::vector<double> base_ns_per_row;
  std::vector<double> impression_ns_per_row;
  std::vector<double> side_effect_s;
  std::vector<double> wire_self_s;
  std::vector<double> fanout_self_s;

  /// Folds a traced answer's escalation trace and phase spans into the
  /// per-layer samples. `engine_seconds` is the time the engine (or the
  /// shard engines) spent on it; its part outside any attempt is the
  /// engine's self time.
  void AddOutcome(const sciborq::QueryOutcome& outcome, double engine_seconds);
  /// Folds another client's per-layer samples into this one (the samples
  /// themselves are not merged).
  void Merge(const Tally& other);
};

/// Throughput of ok queries over the blocks of one mode.
double BlockQps(const std::vector<Tally>& tallies, bool traced,
                double block_seconds, int blocks_of_mode);

/// Closed-loop figures of the untraced blocks: each block's throughput and
/// latency quantiles, then their median across blocks. A burst of load from
/// outside the benchmark that spans less than half the window then moves
/// none of them.
struct LoopFigures {
  double qps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  size_t samples = 0;  ///< ok untraced queries behind the figures
};
LoopFigures MedianOfBlocks(const std::vector<Tally>& tallies,
                           const std::vector<bool>& modes,
                           double block_seconds);

// -- Output -------------------------------------------------------------------

/// Prints the machine record line (seed, nproc, compiler, build type, source
/// identity) that precedes every result.
void PrintMachineRecord(const Args& args);

/// Prints the single-line JSON result — the last line of stdout.
void PrintResult(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
