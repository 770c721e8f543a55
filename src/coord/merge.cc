#include "coord/merge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "stats/estimators.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

/// One output row's contributions: which responder rows carry this group key.
struct KeySlot {
  Value key;
  std::vector<std::pair<size_t, size_t>> contribs;  ///< (responder, row)
};

/// True when every responder answered exactly AND shipped full-shape Welford
/// partials — the bit-exact merge regime.
bool AllMergeable(const std::vector<const ShardAnswer*>& ok, size_t num_aggs) {
  for (const ShardAnswer* shard : ok) {
    const QueryOutcome& o = shard->outcome;
    if (!o.exact) return false;
    if (o.partials.size() != o.rows.size()) return false;
    for (const std::vector<AggregateMoments>& row : o.partials) {
      if (row.size() != num_aggs) return false;
    }
  }
  return true;
}

}  // namespace

Result<QueryOutcome> MergeShardOutcomes(const std::vector<ShardAnswer>& shards,
                                        const MergeOptions& options) {
  std::vector<const ShardAnswer*> ok;
  for (const ShardAnswer& shard : shards) {
    if (shard.status.ok()) ok.push_back(&shard);
  }
  if (ok.empty()) {
    Status first = Status::InvalidArgument("no shards were asked");
    for (const ShardAnswer& shard : shards) {
      if (!shard.status.ok()) {
        first = shard.status;
        break;
      }
    }
    return Status::IOError(StrFormat(
        "no shard answered (0/%d): %s", static_cast<int>(shards.size()),
        first.message().c_str()));
  }

  const size_t num_aggs = options.aggregates.size();
  for (const ShardAnswer* shard : ok) {
    for (const QueryResultRow& row : shard->outcome.rows) {
      if (row.values.size() != num_aggs) {
        return Status::Internal(StrFormat(
            "%s answered %zu aggregates, expected %zu — shards disagree "
            "on query shape",
            shard->label.c_str(), row.values.size(), num_aggs));
      }
    }
    if (shard->outcome.estimates.size() != shard->outcome.rows.size()) {
      return Status::Internal(
          StrFormat("%s: estimate matrix does not match its rows",
                    shard->label.c_str()));
    }
  }

  const int responded = static_cast<int>(ok.size());
  const int total = std::max(options.shards_total, responded);
  const bool degraded = responded < total;
  const double missing_frac =
      total > 0 ? static_cast<double>(total - responded) / total : 0.0;
  const double scale =
      responded > 0 ? static_cast<double>(total) / responded : 1.0;
  const double z = NormalQuantile(0.5 + options.confidence / 2.0);
  const bool moments_mode = AllMergeable(ok, num_aggs);

  // Align rows across responders by group key, first-seen in shard order —
  // with contiguous ingest routing shard 0 holds the earliest slice, so this
  // tracks the single-node first-seen group order.
  std::vector<KeySlot> slots;
  for (size_t s = 0; s < ok.size(); ++s) {
    const std::vector<QueryResultRow>& rows = ok[s]->outcome.rows;
    for (size_t r = 0; r < rows.size(); ++r) {
      const Value& key = rows[r].group_key;
      auto it = std::find_if(slots.begin(), slots.end(), [&](const KeySlot& k) {
        return k.key == key;
      });
      if (it == slots.end()) {
        slots.push_back(KeySlot{key, {}});
        it = std::prev(slots.end());
      }
      it->contribs.emplace_back(s, r);
    }
  }

  QueryOutcome merged;
  merged.table = ok.front()->outcome.table;
  merged.sql = ok.front()->outcome.sql;
  merged.partial = degraded;
  merged.shards_responded = responded;
  merged.shards_total = total;

  for (const KeySlot& slot : slots) {
    QueryResultRow out_row;
    out_row.group_key = slot.key;
    out_row.values.resize(num_aggs, 0.0);
    std::vector<AggregateEstimate> out_ests(num_aggs);
    for (const auto& [s, r] : slot.contribs) {
      out_row.input_rows += ok[s]->outcome.rows[r].input_rows;
    }

    for (size_t a = 0; a < num_aggs; ++a) {
      const AggKind kind = options.aggregates[a].kind;
      double est = 0.0;
      double se = 0.0;
      int64_t sample_rows = 0;
      bool exact = true;

      if (moments_mode) {
        AggregateMoments state;
        for (const auto& [s, r] : slot.contribs) {
          state.Merge(ok[s]->outcome.partials[r][a]);
        }
        // Strict finish: a globally degenerate aggregate (AVG over zero
        // matching rows anywhere) fails exactly like the single-node run.
        SCIBORQ_ASSIGN_OR_RETURN(est, state.Finish(kind));
        sample_rows = out_row.input_rows;
      } else {
        // Estimate composition with error propagation.
        double sum_est = 0.0, sum_var = 0.0;
        double wsum_est = 0.0, wsum_var = 0.0, wtotal = 0.0;
        double ext_est = 0.0, ext_se = 0.0;
        bool ext_seen = false;
        for (const auto& [s, r] : slot.contribs) {
          const AggregateEstimate& e = ok[s]->outcome.estimates[r][a];
          const int64_t input_rows = ok[s]->outcome.rows[r].input_rows;
          // An empty exact slice adds nothing to any aggregate, and its
          // lenient AVG/VAR/MIN/MAX (NaN) would poison the composition.
          if (e.exact && input_rows == 0) continue;
          const double w =
              std::max<double>(1.0, static_cast<double>(input_rows));
          sum_est += e.estimate;
          sum_var += e.std_error * e.std_error;
          wsum_est += w * e.estimate;
          wsum_var += w * w * e.std_error * e.std_error;
          wtotal += w;
          const bool better =
              !ext_seen || (kind == AggKind::kMin ? e.estimate < ext_est
                                                  : e.estimate > ext_est);
          if (better) {
            ext_est = e.estimate;
            ext_se = e.std_error;
            ext_seen = true;
          }
          sample_rows += e.sample_rows;
          exact = exact && e.exact;
        }
        switch (kind) {
          case AggKind::kCount:
          case AggKind::kSum:
            est = sum_est;
            se = std::sqrt(sum_var);
            break;
          case AggKind::kAvg:
          case AggKind::kVariance:
            est = wtotal > 0.0 ? wsum_est / wtotal : sum_est;
            se = wtotal > 0.0 ? std::sqrt(wsum_var) / wtotal
                              : std::sqrt(sum_var);
            break;
          case AggKind::kMin:
          case AggKind::kMax:
            est = ext_est;
            se = ext_se;
            break;
          case AggKind::kLast:
            return Status::InvalidArgument(
                "LAST is not mergeable across shards");
        }
      }

      if (degraded) {
        // Answer from who responded, say so in the bound: additive
        // aggregates extrapolate to the missing slice, and every error bar
        // widens by at least the missing fraction of the estimate.
        if (kind == AggKind::kCount || kind == AggKind::kSum) {
          est *= scale;
          se *= scale;
        }
        se = std::max(se, std::fabs(est) * missing_frac);
        exact = false;
      } else if (moments_mode) {
        se = 0.0;
      }

      AggregateEstimate& out = out_ests[a];
      out.estimate = est;
      out.std_error = se;
      out.ci_lo = se > 0.0 ? est - z * se : est;
      out.ci_hi = se > 0.0 ? est + z * se : est;
      out.confidence = options.confidence;
      out.sample_rows = sample_rows;
      out.exact = (moments_mode || exact) && !degraded;
      out_row.values[a] = est;
    }

    merged.rows.push_back(std::move(out_row));
    merged.estimates.push_back(std::move(out_ests));
  }

  // Outcome-level flags: the merged answer is only as good as its weakest
  // contributor, and never better than its coverage.
  bool all_exact = true, all_met = true, any_deadline = false;
  std::string answered_by;
  bool answered_uniform = true;
  for (const ShardAnswer* shard : ok) {
    all_exact = all_exact && shard->outcome.exact;
    all_met = all_met && shard->outcome.error_bound_met;
    any_deadline = any_deadline || shard->outcome.deadline_exceeded;
    merged.elapsed_seconds =
        std::max(merged.elapsed_seconds, shard->elapsed_seconds);
    if (answered_by.empty()) {
      answered_by = shard->outcome.answered_by;
    } else if (answered_by != shard->outcome.answered_by) {
      answered_uniform = false;
    }
  }
  merged.exact = all_exact && !degraded;
  merged.error_bound_met = all_met && !degraded;
  merged.deadline_exceeded = any_deadline;
  merged.answered_by = answered_uniform ? answered_by : "mixed";

  // The escalation trace becomes a per-shard ledger: every shard's attempts
  // under its label, unreachable shards with an infinite-error marker.
  for (const ShardAnswer& shard : shards) {
    if (shard.status.ok()) {
      for (const LayerAttempt& attempt : shard.outcome.attempts) {
        LayerAttempt tagged = attempt;
        tagged.layer_name = shard.label + "/" + attempt.layer_name;
        merged.attempts.push_back(std::move(tagged));
      }
    } else {
      LayerAttempt dead;
      dead.layer_name =
          StrFormat("%s/unreachable: %s", shard.label.c_str(),
                    shard.status.message().c_str());
      dead.elapsed_seconds = shard.elapsed_seconds;
      dead.worst_relative_error = std::numeric_limits<double>::infinity();
      dead.met_error_bound = false;
      merged.attempts.push_back(std::move(dead));
    }
  }
  return merged;
}

std::vector<TableInfo> MergeTableInfos(
    const std::vector<std::vector<TableInfo>>& per_shard) {
  std::map<std::string, TableInfo> by_name;
  for (const std::vector<TableInfo>& tables : per_shard) {
    for (const TableInfo& info : tables) {
      auto it = by_name.find(info.name);
      if (it == by_name.end()) {
        TableInfo merged = info;
        merged.shards = 1;
        by_name.emplace(info.name, std::move(merged));
        continue;
      }
      TableInfo& merged = it->second;
      merged.rows += info.rows;
      merged.population_seen += info.population_seen;
      merged.logged_queries += info.logged_queries;
      for (size_t i = 0;
           i < merged.layers.size() && i < info.layers.size(); ++i) {
        merged.layers[i].rows += info.layers[i].rows;
        merged.layers[i].capacity += info.layers[i].capacity;
      }
      merged.biased = merged.biased || info.biased;
      ++merged.shards;
    }
  }
  std::vector<TableInfo> out;
  out.reserve(by_name.size());
  for (auto& [name, info] : by_name) out.push_back(std::move(info));
  return out;
}

}  // namespace sciborq
