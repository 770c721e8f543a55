#ifndef SCIBORQ_COORD_MERGE_H_
#define SCIBORQ_COORD_MERGE_H_

#include <string>
#include <vector>

#include "api/engine.h"
#include "exec/aggregate.h"
#include "util/result.h"

namespace sciborq {

/// One shard's contribution to a fan-out: its label ("shard0", ...), the
/// transport/engine status, and — when the status is OK — the outcome it
/// returned plus how long the round trip took.
struct ShardAnswer {
  std::string label;
  Status status = Status::OK();
  QueryOutcome outcome;
  double elapsed_seconds = 0.0;
};

struct MergeOptions {
  /// The aggregates of the fanned-out query, in SELECT order — each kind
  /// decides its composition rule (COUNT/SUM add, AVG/VAR merge moments or
  /// weight by rows, MIN/MAX take the extreme).
  std::vector<AggregateSpec> aggregates;
  /// Confidence level for the composed intervals.
  double confidence = 0.95;
  /// Shards the query fanned out to; fewer OK answers => degraded merge.
  int shards_total = 0;
};

/// Composes the shards' partial answers into one global QueryOutcome.
///
/// Two regimes:
///  - *Moments merge* — every responder answered exactly and shipped its
///    Welford partials (QueryExecOptions::mergeable). States merge per group
///    key in shard order via RunningMoments::Merge, then finish; whenever
///    each shard's slice folded as one morsel, the merged values are
///    bit-identical to a single-node run over the concatenated data.
///  - *Estimate composition* — at least one responder answered from an
///    impression (no partials). Point estimates compose per the aggregate's
///    kind with error propagation: COUNT/SUM sum (se^2 adds), AVG weights by
///    input rows, VAR row-weights the shard variances, MIN/MAX take the
///    extreme (se of the winning shard). Intervals use the normal quantile
///    at `confidence`. Exact rows over zero input rows (an empty shard
///    slice, whose lenient AVG/VAR/MIN/MAX are NaN) are skipped.
///
/// Degraded mode (OK answers < shards_total): the merge still answers from
/// the responders, but flags `partial`, scales COUNT/SUM up by
/// total/responded, widens every standard error by the missing fraction,
/// and clears exact/error_bound_met — the caller knows exactly what the
/// answer covers. The escalation trace lists every shard's attempts under a
/// "shardN/" prefix; unreachable shards contribute a synthetic attempt with
/// infinite error.
///
/// Errors: InvalidArgument when no shard answered OK, or when responders
/// disagree on result shape (different aggregate counts).
Result<QueryOutcome> MergeShardOutcomes(const std::vector<ShardAnswer>& shards,
                                        const MergeOptions& options);

/// Merges per-shard catalog listings into the coordinator's view: one entry
/// per table name with rows/population/log depth summed, the first
/// responder's schema and layer geometry, and `shards` = how many shards
/// hold the table. Output sorted by name.
std::vector<TableInfo> MergeTableInfos(
    const std::vector<std::vector<TableInfo>>& per_shard);

}  // namespace sciborq

#endif  // SCIBORQ_COORD_MERGE_H_
