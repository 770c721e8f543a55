#ifndef SCIBORQ_CORE_BOUNDED_EXECUTOR_H_
#define SCIBORQ_CORE_BOUNDED_EXECUTOR_H_

#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/impression.h"
#include "exec/query.h"
#include "stats/estimators.h"
#include "util/result.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace sciborq {

// QualityBound lives in exec/query.h (included above): the contract is part
// of the query dialect now that bounds are stated in the SQL text.

/// What happened on one layer during escalation.
struct LayerAttempt {
  std::string layer_name;
  int64_t layer_rows = 0;
  int64_t matching_rows = 0;
  double elapsed_seconds = 0.0;
  double worst_relative_error = 0.0;
  bool met_error_bound = false;
  bool is_base = false;
};

/// A bounded answer: point estimates in the shape of RunExact's rows, plus a
/// parallel matrix of AggregateEstimate (CI, stderr) per row per aggregate,
/// and the full escalation trace.
struct BoundedAnswer {
  std::vector<QueryResultRow> rows;
  std::vector<std::vector<AggregateEstimate>> estimates;
  std::string answered_by;      ///< layer name or "base"
  bool error_bound_met = false;
  bool deadline_exceeded = false;
  double elapsed_seconds = 0.0;
  std::vector<LayerAttempt> attempts;

  std::string ToString() const;
};

/// Statistical evaluation of an aggregate query against one impression:
/// Horvitz–Thompson expansion through the impression's inclusion
/// probabilities (exact-scaling for uniform impressions, weight-aware for
/// biased ones). MIN/MAX report the sample extreme with an *infinite*
/// relative error — extremes carry no CLT guarantee, so an error-bounded
/// query falls through to the base data, which is the correct behaviour.
/// With a pool, the filter scan over the sampled rows runs morsel-parallel;
/// estimates are bit-identical to the serial path at any thread count.
Result<BoundedAnswer> EstimateOnImpression(const Impression& impression,
                                           const AggregateQuery& query,
                                           double confidence,
                                           ThreadPool* pool = nullptr);

/// Multi-layer bounded query processing (§3.2), and the one answer path of
/// every query kind: walk the hierarchy from the smallest impression upward;
/// accept the first answer within the error bound; stop early when the time
/// budget would be blown; fall back to the base columns for a zero error
/// margin. EXACT skips the walk (no sample serves the zero-error contract),
/// and LAST ranks rows by the retention time column, scanning the last-seen
/// sample or, under EXACT, the base window. All of them end in one base step
/// that shapes scanned rows into an answer: zero-width estimates, one
/// attempt, and the deadline flag.
///
/// Scans run morsel-parallel on the given pool (null = serial); answers are
/// bit-identical at any thread count. ParallelFor tracks completion per
/// call, so many executors (the Engine's concurrent queries) can share one
/// pool. The adaptive feedback loop of §3.1 (query log, interest tracker)
/// belongs to the caller: Engine::Query records every answered query.
class BoundedExecutor {
 public:
  /// All pointers non-owning; base/hierarchy required. `last_seen` and
  /// `time_col` (the retention time column's index) serve LAST queries; a
  /// table without a retention policy passes null and -1.
  BoundedExecutor(const Table* base, const ImpressionHierarchy* hierarchy,
                  ThreadPool* pool = nullptr,
                  const Impression* last_seen = nullptr, int time_col = -1);

  /// Answers `query` under `bound`; `exact` is the SQL's EXACT. Every base
  /// scan runs with `base_options`: a shard of a fan-out asks for lenient
  /// empty aggregates and the Welford state behind each value. Always
  /// returns an answer (the best one achievable within the budget); inspect
  /// error_bound_met / deadline_exceeded for the contract outcome. Fails
  /// only on malformed queries.
  Result<BoundedAnswer> Answer(
      const AggregateQuery& query, const QualityBound& bound,
      bool exact = false,
      const ExactRunOptions& base_options = ExactRunOptions());

 private:
  /// The base step: scans the base columns (or, for a bounded LAST, the
  /// last-seen sample) and appends its attempt to `attempts`.
  Result<BoundedAnswer> BaseStep(const AggregateQuery& query,
                                 const QualityBound& bound, bool exact,
                                 const ExactRunOptions& base_options,
                                 const Deadline& deadline,
                                 std::vector<LayerAttempt> attempts) const;

  const Table* base_;
  const ImpressionHierarchy* hierarchy_;
  ThreadPool* pool_;
  const Impression* last_seen_;
  int time_col_;
  /// Rolling per-row cost estimate (seconds/row) used to predict whether the
  /// next layer fits the remaining budget.
  double est_seconds_per_row_ = 0.0;
};

}  // namespace sciborq

#endif  // SCIBORQ_CORE_BOUNDED_EXECUTOR_H_
