// Compressed + vectorized scan benchmarks: what the per-morsel encodings
// (RLE / frame-of-reference / dictionary) and zone maps buy on scan-heavy
// work, and proof that they change nothing about the answers.
//
//   footprint  — serialized bytes/row of the v2 encoded page vs the v1 plain
//                page, per column and for the whole table. Expectation: the
//                compression-friendly columns (sorted ints, run-y ints,
//                low-cardinality strings) shrink >= 2x.
//   scan       — SelectAll throughput (GB/s of plain-equivalent column data)
//                over the encoded table vs the sidecar-free scalar scan, for
//                a battery of predicates from skip-everything to scan-
//                everything. Expectation: encoded >= ~0.9x scalar on the
//                worst case (median of interleaved scalar/encoded pairs)
//                and far above it when zone maps prune.
//   pruning    — fraction of complete morsels skipped outright for a
//                selective predicate (sciborq_morsels_skipped_total delta).
//   impression — box, cone and box-plus-measure predicates over a biased,
//                unencoded layer 0 built through ImpressionHierarchy: the
//                gather-filter, cone and folded-conjunction kernels against
//                the row-at-a-time oracle (Predicate::Matches), and the
//                COUNT estimate against one built from InclusionProbability
//                row by row. ns/row is printed for the log only.
//
// Exits non-zero if any encoded answer — selection or aggregate — differs
// bit-for-bit from the scalar oracle, if an impression selection or estimate
// differs from its oracle, or if a footprint/throughput bar is missed.
// BENCH_JSON lines are grep-able from CI logs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "column/encoding/encoding.h"
#include "column/serde.h"
#include "column/table.h"
#include "core/bounded_executor.h"
#include "core/hierarchy.h"
#include "exec/expr.h"
#include "exec/query.h"
#include "obs/metrics.h"
#include "skyserver/catalog.h"
#include "stats/descriptive.h"
#include "stats/estimators.h"
#include "util/binio.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/interest_tracker.h"

using namespace sciborq;
using sciborq::bench::Header;
using sciborq::bench::JsonLine;
using sciborq::bench::Unwrap;

namespace {

constexpr int64_t kRows = 512 * 1024;  // 32 complete morsels
constexpr int kScanReps = 5;
constexpr int kScanPairs = 9;

/// Scan-bench table: one column per encoding regime.
///   id      int64  0..n sorted        -> frame-of-reference bit-packing
///   flag    int64  4096-row plateaus  -> run-length
///   station string 8 distinct values  -> dictionary
///   val     double uniform random     -> plain (zone maps only)
Table MakeScanTable() {
  const std::vector<std::string> stations = {"apo", "lick", "keck", "palomar",
                                             "gemini", "vlt", "subaru", "lbt"};
  Rng rng(1905);
  Column id(DataType::kInt64), flag(DataType::kInt64), val(DataType::kDouble),
      station(DataType::kString);
  for (Column* c : {&id, &flag, &val, &station}) c->Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    id.AppendInt64(i);
    flag.AppendInt64(i / 4096);
    val.AppendDouble(rng.NextDouble() * 100.0);
    station.AppendString(stations[static_cast<size_t>(rng.NextUint64() % 8)]);
  }
  return Unwrap(Table::FromColumns(
      Schema({Field{"id", DataType::kInt64, false},
              Field{"flag", DataType::kInt64, false},
              Field{"val", DataType::kDouble, false},
              Field{"station", DataType::kString, false}}),
      {std::move(id), std::move(flag), std::move(val), std::move(station)}));
}

int64_t EncodedBytes(const Column& col, bool encoded_page) {
  BinaryWriter w;
  if (encoded_page) {
    EncodeColumnEncoded(col, &w);
  } else {
    EncodeColumn(col, &w);
  }
  return static_cast<int64_t>(w.buffer().size());
}

struct ScanCase {
  const char* name;
  PredicatePtr pred;
  /// Plain-equivalent bytes a scalar scan must touch (the filtered column's
  /// storage), the numerator of the GB/s figure for both paths.
  int64_t scanned_bytes;
};

std::vector<ScanCase> MakeScanCases(int64_t station_bytes) {
  std::vector<ScanCase> cases;
  const int64_t num_bytes = kRows * 8;
  // Zone maps kill every morsel: the headline pruning case.
  cases.push_back({"skip_all", Lt("val", Value(-1.0)), num_bytes});
  // Zone maps blanket-accept every morsel.
  cases.push_back({"match_all", Ge("val", Value(-1.0)), num_bytes});
  // Selective range on the sorted column: prunes all but one morsel, scans
  // the survivor through the FOR kernel path.
  cases.push_back({"id_band", Between("id", 100'000.0, 110'000.0), num_bytes});
  // Run-length domain scan: one comparison per 4096-row run.
  cases.push_back({"flag_eq", Eq("flag", Value(int64_t{64})), num_bytes});
  // Dictionary domain scan: 8 comparisons per morsel plus a code walk.
  cases.push_back({"station_eq", Eq("station", Value("keck")), station_bytes});
  // No pruning possible (uniform doubles, mid-range literal): the honest
  // kernel-vs-scalar case.
  cases.push_back({"val_half", Lt("val", Value(50.0)), num_bytes});
  return cases;
}

double ScanSeconds(const Table& t, const Predicate& pred) {
  Stopwatch watch;
  const SelectionVector sel = Unwrap(SelectAll(t, pred));
  const double s = watch.ElapsedSeconds();
  if (!sel.empty() && sel.front() < 0) std::abort();  // keep the scan alive
  return s;
}

double BestScanSeconds(const Table& t, const Predicate& pred) {
  double best = 1e100;
  for (int rep = 0; rep < kScanReps; ++rep) {
    best = std::min(best, ScanSeconds(t, pred));
  }
  return best;
}

/// Scalar and encoded scans timed in adjacent pairs, alternating which runs
/// first, so host drift lands on both sides of each pair's ratio.
struct PairedScan {
  double scalar_s = 1e100;   ///< best scalar time
  double encoded_s = 1e100;  ///< best encoded time
  double median_ratio = 0;   ///< median over pairs of scalar / encoded time
};

PairedScan TimePaired(const Table& plain, const Table& encoded,
                      const Predicate& pred) {
  PairedScan out;
  std::vector<double> ratios;
  for (int pair = 0; pair < kScanPairs; ++pair) {
    double scalar_s;
    double encoded_s;
    if (pair % 2 == 0) {
      scalar_s = ScanSeconds(plain, pred);
      encoded_s = ScanSeconds(encoded, pred);
    } else {
      encoded_s = ScanSeconds(encoded, pred);
      scalar_s = ScanSeconds(plain, pred);
    }
    out.scalar_s = std::min(out.scalar_s, scalar_s);
    out.encoded_s = std::min(out.encoded_s, encoded_s);
    ratios.push_back(scalar_s / encoded_s);
  }
  std::sort(ratios.begin(), ratios.end());
  out.median_ratio = QuantileSorted(ratios, 0.5);
  return out;
}

bool BitIdenticalAggregates(const Table& plain, const Table& encoded,
                            ThreadPool* pool) {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""},  {AggKind::kSum, "val"},
                  {AggKind::kAvg, "val"}, {AggKind::kMin, "id"},
                  {AggKind::kMax, "id"},  {AggKind::kVariance, "val"}};
  q.filter = Between("id", 50'000.0, 400'000.0);
  const auto a = Unwrap(RunExact(plain, q));
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), pool}) {
    const auto b = Unwrap(RunExact(encoded, q, p));
    if (a.size() != b.size()) return false;
    for (size_t r = 0; r < a.size(); ++r) {
      if (a[r].input_rows != b[r].input_rows) return false;
      if (a[r].values.size() != b[r].values.size()) return false;
      if (std::memcmp(a[r].values.data(), b[r].values.data(),
                      a[r].values.size() * sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Layer 0 of a two-layer hierarchy over a SkyServer catalogue, biased
/// toward the focal point (150, 12) by a workload tracker: the shape every
/// bounded query scans first. Impressions carry no encodings or zone maps.
ImpressionHierarchy MakeBiasedHierarchy(const InterestTracker& tracker) {
  SkyCatalogConfig config;
  config.num_rows = 400'000;
  const Table sky = Unwrap(GenerateSkyCatalog(config, 7)).photo_obj_all;
  ImpressionSpec spec;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  spec.seed = 3;
  ImpressionHierarchy h = Unwrap(ImpressionHierarchy::Make(
      sky.schema(), {{"l0", 100'000}, {"l1", 10'000}}, spec));
  if (!h.IngestBatch(sky).ok()) std::abort();
  return h;
}

/// Checks one predicate on the impression against Matches (selection, serial
/// and pooled) and the COUNT estimate against per-row InclusionProbability;
/// prints the scan's ns/row. Returns the number of mismatches.
int CheckImpressionCase(const Impression& imp, const char* name,
                        PredicatePtr pred, ThreadPool* pool) {
  const Table& rows = imp.rows();
  SelectionVector oracle;
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    if (pred->Matches(rows, r)) oracle.push_back(r);
  }
  int bad = 0;
  if (Unwrap(SelectAll(rows, *pred)) != oracle ||
      Unwrap(SelectAll(rows, *pred, pool)) != oracle) {
    std::fprintf(stderr, "FAILED: impression selection mismatch on %s\n",
                 name);
    ++bad;
  }
  std::vector<double> probs;
  probs.reserve(oracle.size());
  for (const int64_t r : oracle) probs.push_back(imp.InclusionProbability(r));
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  q.filter = pred->Clone();
  const BoundedAnswer got = Unwrap(EstimateOnImpression(imp, q, 0.95));
  if (!oracle.empty()) {
    const AggregateEstimate want =
        Unwrap(EstimateCountHorvitzThompson(probs, 0.95));
    const AggregateEstimate& est = got.estimates[0][0];
    if (std::memcmp(&est.estimate, &want.estimate, sizeof(double)) != 0 ||
        std::memcmp(&est.std_error, &want.std_error, sizeof(double)) != 0) {
      std::fprintf(stderr, "FAILED: impression COUNT estimate mismatch on %s\n",
                   name);
      ++bad;
    }
  }
  const double ns_per_row =
      BestScanSeconds(rows, *pred) * 1e9 / static_cast<double>(rows.num_rows());
  std::printf("impression %-12s %6.2f ns/row, %zu of %lld rows selected\n",
              name, ns_per_row, oracle.size(),
              static_cast<long long>(rows.num_rows()));
  JsonLine("scan_impression")
      .Str("predicate", name)
      .Num("ns_per_row", ns_per_row)
      .Int("selected_rows", static_cast<int64_t>(oracle.size()))
      .Emit();
  return bad;
}

}  // namespace

int main() {
  Header("scan: compressed columns + zone maps vs the scalar scan");

  const Table plain = MakeScanTable();
  Table encoded = plain;
  encoded.BuildEncoding();
  ThreadPool pool(4);

  // ---- footprint -----------------------------------------------------------
  bool footprint_ok = true;
  double table_plain_bytes = 0;
  double table_encoded_bytes = 0;
  for (int c = 0; c < plain.num_columns(); ++c) {
    const std::string& name = plain.schema().field(c).name;
    const int64_t v1 = EncodedBytes(plain.column(c), false);
    const int64_t v2 = EncodedBytes(plain.column(c), true);
    table_plain_bytes += static_cast<double>(v1);
    table_encoded_bytes += static_cast<double>(v2);
    const double ratio = static_cast<double>(v1) / static_cast<double>(v2);
    const bool friendly = name != "val";
    if (friendly && ratio < 2.0) footprint_ok = false;
    std::printf("footprint %-8s %8.2f B/row plain, %8.2f B/row encoded "
                "(%.1fx)%s\n",
                name.c_str(), static_cast<double>(v1) / kRows,
                static_cast<double>(v2) / kRows, ratio,
                friendly ? " [>=2x gate]" : "");
    JsonLine("scan_footprint")
        .Str("column", name)
        .Num("plain_bytes_per_row", static_cast<double>(v1) / kRows)
        .Num("encoded_bytes_per_row", static_cast<double>(v2) / kRows)
        .Num("compression_ratio", ratio)
        .Flag("gated", friendly)
        .Emit();
  }
  JsonLine("scan_footprint_table")
      .Int("rows", kRows)
      .Num("plain_bytes_per_row", table_plain_bytes / kRows)
      .Num("encoded_bytes_per_row", table_encoded_bytes / kRows)
      .Num("compression_ratio", table_plain_bytes / table_encoded_bytes)
      .Emit();

  // ---- scan throughput + answer equality -----------------------------------
  int mismatches = 0;
  double worst_relative = 1e100;
  for (ScanCase& sc : MakeScanCases(EncodedBytes(plain.column(3), false))) {
    // Equality gate first: serial and 4-thread encoded scans must reproduce
    // the scalar selection exactly.
    const SelectionVector oracle = Unwrap(SelectAll(plain, *sc.pred));
    if (Unwrap(SelectAll(encoded, *sc.pred)) != oracle ||
        Unwrap(SelectAll(encoded, *sc.pred, &pool)) != oracle) {
      std::fprintf(stderr, "FAILED: selection mismatch on %s\n", sc.name);
      ++mismatches;
      continue;
    }
    const PairedScan timed = TimePaired(plain, encoded, *sc.pred);
    const double scalar_s = timed.scalar_s;
    const double encoded_s = timed.encoded_s;
    const double gb = static_cast<double>(sc.scanned_bytes) / 1e9;
    const double relative = timed.median_ratio;
    // Only the no-pruning case gates throughput: pruned cases are trivially
    // faster, and tiny absolute times are too noisy to gate individually.
    // The gate reads the median of the paired ratios, not best-of-each.
    if (std::string(sc.name) == "val_half") worst_relative = relative;
    std::printf("scan %-10s scalar %7.2f GB/s, encoded %7.2f GB/s (%.2fx), "
                "%zu rows selected\n",
                sc.name, gb / scalar_s, gb / encoded_s, relative,
                oracle.size());
    JsonLine("scan_throughput")
        .Str("predicate", sc.name)
        .Num("scalar_gb_per_s", gb / scalar_s)
        .Num("encoded_gb_per_s", gb / encoded_s)
        .Num("encoded_over_scalar", relative)
        .Int("selected_rows", static_cast<int64_t>(oracle.size()))
        .Emit();
  }

  // ---- aggregate equality --------------------------------------------------
  const bool aggregates_identical =
      BitIdenticalAggregates(plain, encoded, &pool);
  if (!aggregates_identical) {
    std::fprintf(stderr, "FAILED: aggregate mismatch encoded vs scalar\n");
    ++mismatches;
  }

  // ---- impression scans vs the row-at-a-time oracle ------------------------
  {
    InterestTracker tracker = Unwrap(InterestTracker::Make(
        {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}}));
    Rng focal(11);
    for (int i = 0; i < 500; ++i) {
      tracker.ObserveValue("ra", focal.Gaussian(150.0, 4.0));
      tracker.ObserveValue("dec", focal.Gaussian(12.0, 3.0));
    }
    const ImpressionHierarchy h = MakeBiasedHierarchy(tracker);
    const Impression& l0 = h.layer(0);
    mismatches += CheckImpressionCase(
        l0, "box",
        And(Ge("ra", Value(145.0)), Le("ra", Value(155.0)),
            Ge("dec", Value(8.0)), Le("dec", Value(16.0))),
        &pool);
    mismatches += CheckImpressionCase(
        l0, "cone", Cone("ra", "dec", 150.0, 12.0, 4.0), &pool);
    mismatches += CheckImpressionCase(
        l0, "box_measure",
        And(Ge("ra", Value(140.0)), Le("ra", Value(160.0)),
            Ge("dec", Value(5.0)), Le("dec", Value(20.0)),
            Lt("r", Value(20.0))),
        &pool);
    mismatches += CheckImpressionCase(
        l0, "cone_measure",
        And(Cone("ra", "dec", 150.0, 12.0, 6.0), Gt("r", Value(18.0))),
        &pool);
  }

  // ---- morsel pruning ratio ------------------------------------------------
  obs::Counter* skipped = obs::DefaultRegistry()->GetCounter(
      "sciborq_morsels_skipped_total",
      "Scan morsels skipped entirely by zone-map pruning");
  const PredicatePtr selective = Between("id", 100'000.0, 110'000.0);
  const int64_t before = skipped->Value();
  (void)Unwrap(SelectAll(encoded, *selective));
  const int64_t morsels = kRows / kEncodingMorselRows;
  const double skip_ratio =
      static_cast<double>(skipped->Value() - before) /
      static_cast<double>(morsels);
  std::printf("pruning: %.0f%% of %lld morsels skipped for the id band\n",
              100.0 * skip_ratio, static_cast<long long>(morsels));
  JsonLine("scan_pruning")
      .Int("morsels", morsels)
      .Num("skip_ratio", skip_ratio)
      .Flag("aggregates_bit_identical", aggregates_identical)
      .Emit();

  // ---- gates ---------------------------------------------------------------
  if (mismatches > 0) {
    std::fprintf(stderr, "FAILED: %d answer mismatch(es) against an oracle\n",
                 mismatches);
    return 1;
  }
  if (!footprint_ok) {
    std::fprintf(stderr,
                 "FAILED: a compression-friendly column missed the 2x bar\n");
    return 1;
  }
  if (worst_relative < 0.9) {
    std::fprintf(stderr,
                 "FAILED: encoded scan %.2fx of scalar on the no-pruning "
                 "case (bar: 0.9x)\n",
                 worst_relative);
    return 1;
  }
  if (skip_ratio < 0.9) {
    std::fprintf(stderr, "FAILED: skip ratio %.2f below 0.9\n", skip_ratio);
    return 1;
  }
  std::printf("scan bench OK\n");
  return 0;
}
