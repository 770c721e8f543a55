#ifndef SCIBORQ_COORD_COORDINATOR_H_
#define SCIBORQ_COORD_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/client.h"
#include "coord/merge.h"
#include "coord/shard_map.h"
#include "exec/query.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "server/service.h"
#include "server/wire.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sciborq {

struct CoordinatorOptions {
  /// TCP port the coordinator itself listens on; 0 picks a free one.
  int port = 0;
  /// Concurrent client connections (one blocking handler each).
  int max_connections = 8;
  int64_t max_frame_bytes = kMaxFrameBytes;
  /// Fan-out budget split: a query's WITHIN budget is passed to shards minus
  /// a margin covering network + merge overhead — margin =
  /// max(min_margin_ms, budget_margin_fraction * budget).
  double budget_margin_fraction = 0.10;
  double min_margin_ms = 5.0;
  /// Response deadline for shard round trips of unbounded queries; keeps a
  /// hung shard from wedging the coordinator forever.
  int default_shard_timeout_ms = 30000;
  /// Deadline for (re)connecting to a shard.
  int connect_timeout_ms = 2000;
  /// Default bounds for SQL with no bounds clause (what a single node's
  /// EngineOptions::default_bound provides).
  QualityBound default_bound;
};

/// The distributed front door: speaks the sciborq wire protocol to clients
/// — sciborq_cli / SciborqClient work against it unchanged — and fans every
/// query out over the shard servers of a ShardMap, merging the partial
/// answers with composed bounds (coord/merge.h).
///
/// Fan-out is concurrent (one shard round trip per ThreadPool task) with a
/// split time budget, so a bounded query's wall clock stays within the
/// client's WITHIN term even when shards are slow; a shard that is down or
/// misses its deadline degrades the answer (partial flag, widened bounds)
/// instead of failing or hanging it. Ingest routes rows contiguously across
/// a table's shards with per-shard derived sampler seeds.
///
/// The wire face runs on the shared WireService (server/service.h), the
/// connection loop and request dispatcher SciborqServer uses too. The same
/// operations are callable in-process (Query, RegisterCsv, ...) — the admin
/// face the coordinator tool and benches use. These are serialized
/// internally; wire connections each get their own state.
class SciborqCoordinator {
 public:
  SciborqCoordinator(ShardMap shards,
                     CoordinatorOptions options = CoordinatorOptions());
  ~SciborqCoordinator();

  SciborqCoordinator(const SciborqCoordinator&) = delete;
  SciborqCoordinator& operator=(const SciborqCoordinator&) = delete;

  /// Binds the listener and starts accepting clients. FailedPrecondition if
  /// already started. A coordinator is usable in-process without Start().
  Status Start();

  /// Graceful shutdown, mirroring SciborqServer::Stop(). Idempotent.
  void Stop();

  int port() const { return service_.port(); }
  bool running() const { return service_.running(); }

  const ShardMap& shard_map() const { return shards_; }

  // -- In-process admin face -------------------------------------------------

  /// Parses and answers one SQL statement by fanning out over the table's
  /// shards and merging.
  Result<QueryOutcome> Query(std::string_view sql);

  /// Loads a CSV and distributes it: the table is created on every shard
  /// (with per-shard derived sampler seeds) and the rows are routed in
  /// contiguous slices. Returns total rows ingested.
  Result<int64_t> RegisterCsv(const std::string& name, const std::string& path,
                              uint64_t seed = 42);

  /// Creates an empty table on every shard of the table's shard list.
  Status CreateTable(const std::string& name, const Schema& schema,
                     uint64_t seed = 42);

  /// Routes one batch across the table's shards in contiguous slices.
  Result<int64_t> IngestBatch(const std::string& table, const Table& batch);

  /// Merged catalog: per-table totals with the shard count.
  Result<std::vector<TableInfo>> ListTables();

  // Thin reads of this instance's registry counters (each coordinator gets
  // its own `instance`-labeled series; see obs/metrics.h).
  int64_t connections_accepted() const {
    return service_.connections_accepted();
  }
  int64_t queries_served() const { return metrics_.queries_served->Value(); }
  int64_t protocol_errors() const { return service_.protocol_errors(); }
  int64_t partial_answers() const { return metrics_.partial_answers->Value(); }
  int64_t deadlines_exceeded() const {
    return metrics_.deadline_exceeded->Value();
  }

  /// The coordinator's own bound-miss/degraded-answer ring (merged
  /// outcomes), oldest first — served over the wire via the slow_log opcode.
  std::vector<obs::SlowQueryEntry> SlowQueries() const {
    return slow_log_.Snapshot();
  }

 private:
  /// One wire connection's (or the admin face's) fan-out backend: default
  /// table/bounds, lazily connected per-shard clients, locally prepared
  /// statements, and the fan-out/merge logic (defined in coordinator.cc).
  class CoordSession;

  ShardMap shards_;
  CoordinatorOptions options_;

  /// Fan-out workers: sized to the widest shard list so one query's round
  /// trips all run concurrently.
  std::unique_ptr<ThreadPool> fanout_pool_;

  /// This instance's fan-out series in the process registry
  /// (obs/metrics.h), resolved once in the constructor. Pointees are
  /// internally atomic; shard_rtt is keyed by endpoint ("host:port") and
  /// immutable after construction, so fan-out tasks read it lock-free.
  struct Metrics {
    obs::Counter* queries_served = nullptr;
    obs::Counter* partial_answers = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* shard_errors = nullptr;
    obs::Histogram* query_seconds = nullptr;
    std::unordered_map<std::string, obs::Histogram*> shard_rtt;
  };
  Metrics metrics_;

  /// Merged outcomes that missed a bound or degraded (PARTIAL / deadline).
  obs::SlowQueryLog slow_log_;

  /// The admin face's session (in-process Query/ingest calls), serialized.
  Mutex admin_mu_;
  std::unique_ptr<CoordSession> admin_session_ GUARDED_BY(admin_mu_);

  /// Declared last: destroyed first, so no handler outlives the members
  /// its sessions use.
  WireService service_;
};

}  // namespace sciborq

#endif  // SCIBORQ_COORD_COORDINATOR_H_
