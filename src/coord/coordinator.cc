#include "coord/coordinator.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <utility>

#include "column/csv.h"
#include "exec/parser.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

/// Coordinator-side query-id source; the `qc-` prefix keeps coordinator ids
/// from colliding with engine-assigned `q-` ids in mixed traces.
std::string NextCoordQueryId() {
  static std::atomic<int64_t> next{1};
  return StrFormat("qc-%lld", static_cast<long long>(next.fetch_add(
                                  1, std::memory_order_relaxed)));
}

Status NoShardsFor(const std::string& table) {
  return Status::FailedPrecondition(
      StrFormat("no shards mapped for table '%s'", table.c_str()));
}

Status NotPreparedHere(StatementHandle handle) {
  return Status::NotFound(
      StrFormat("statement handle %lld was not prepared on this session",
                static_cast<long long>(handle.id)));
}

}  // namespace

class SciborqCoordinator::CoordSession final : public WireSession {
 public:
  explicit CoordSession(SciborqCoordinator* coord) : coord_(coord) {}

  Result<QueryOutcome> Query(const std::string& sql,
                             const QueryExecOptions& exec) override {
    // The coordinator merges for itself; a client's mergeable flag is
    // accepted and ignored (re-sharding a merged answer is not supported).
    SCIBORQ_ASSIGN_OR_RETURN(BoundedQuery bounded, ParseBoundedQuery(sql));
    SCIBORQ_RETURN_NOT_OK(FillSessionDefaults(&bounded));
    return DistributedQuery(bounded, exec.query_id);
  }

  Status Use(const std::string& table) override {
    // USE validates existence like api/Session: the merged catalog must
    // list the table.
    SCIBORQ_ASSIGN_OR_RETURN(const std::vector<TableInfo> tables, Catalog());
    const bool known =
        std::any_of(tables.begin(), tables.end(),
                    [&](const TableInfo& t) { return t.name == table; });
    if (!known) {
      return Status::NotFound(StrFormat(
          "table '%s' is not registered on any shard", table.c_str()));
    }
    table_ = table;
    return Status::OK();
  }

  Status SetBounds(const QueryBounds& bounds) override {
    bounds_ = bounds;
    return Status::OK();
  }

  /// Fans ListTables over every endpoint. Tolerates down shards (their
  /// tables just report fewer shards) but not a total outage.
  Result<std::vector<TableInfo>> Catalog() override {
    const std::vector<ShardEndpoint> endpoints = coord_->shards_.AllEndpoints();
    if (endpoints.empty()) {
      return Status::FailedPrecondition("coordinator has no shards configured");
    }
    const std::vector<ClientSlot*> slots = SlotsFor(endpoints);
    std::vector<std::vector<TableInfo>> per_shard(endpoints.size());
    std::vector<Status> statuses(endpoints.size(), Status::OK());
    ParallelFor(coord_->fanout_pool_.get(),
                static_cast<int64_t>(endpoints.size()), 1,
                [&](int64_t i, int64_t, int64_t) {
                  const size_t s = static_cast<size_t>(i);
                  Status st = EnsureConnected(
                      slots[s], endpoints[s],
                      coord_->options_.default_shard_timeout_ms);
                  if (st.ok()) {
                    Result<std::vector<TableInfo>> tables =
                        slots[s]->client->ListTables();
                    if (tables.ok()) {
                      per_shard[s] = std::move(tables).value();
                    } else {
                      st = tables.status();
                    }
                  }
                  if (!st.ok()) {
                    statuses[s] = std::move(st);
                    slots[s]->client.reset();
                  }
                });
    bool any_ok = false;
    for (const Status& st : statuses) any_ok = any_ok || st.ok();
    if (!any_ok) {
      return Status::IOError(StrFormat("no shard reachable: %s",
                                       statuses.front().message().c_str()));
    }
    return MergeTableInfos(per_shard);
  }

  Result<StatementInfo> Prepare(const std::string& sql) override {
    // Parse-once happens on the coordinator; Execute binds locally and fans
    // the bound SQL out, so shards stay stateless for statements.
    SCIBORQ_ASSIGN_OR_RETURN(PreparedQuery prepared, ParsePreparedQuery(sql));
    if (prepared.query.table.empty()) {
      if (table_.empty()) return NoDefaultTable();
      prepared.query.table = table_;
    }
    const bool has_bounds = prepared.bounds.any() ||
                            prepared.time_budget_slot >= 0 ||
                            prepared.error_slot >= 0;
    if (!has_bounds) prepared.bounds = bounds_;
    StatementInfo info;
    info.handle = StatementHandle{next_stmt_++};
    info.table = prepared.query.table;
    info.sql = prepared.ToString();
    info.num_params = prepared.num_params();
    statements_.emplace(info.handle.id, std::move(prepared));
    return info;
  }

  Result<QueryOutcome> Execute(StatementHandle handle,
                               const std::vector<Value>& params) override {
    const auto it = statements_.find(handle.id);
    if (it == statements_.end()) return NotPreparedHere(handle);
    SCIBORQ_ASSIGN_OR_RETURN(const BoundedQuery bound,
                             BindParams(it->second, params));
    return DistributedQuery(bound, {});
  }

  Status CloseStatement(StatementHandle handle) override {
    if (statements_.erase(handle.id) == 0) return NotPreparedHere(handle);
    return Status::OK();
  }

  /// Fans the checkpoint to every shard and sums how many tables were
  /// written; any shard failing fails the call (durability is all or
  /// nothing per request).
  Result<int64_t> Checkpoint(const std::string& table) override {
    int64_t count = 0;
    for (const ShardEndpoint& endpoint : coord_->shards_.AllEndpoints()) {
      SCIBORQ_ASSIGN_OR_RETURN(SciborqClient * client, ClientFor(endpoint));
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t n, client->Checkpoint(table));
      count += n;
    }
    return count;
  }

  /// Creates the table on every shard it maps to, with derived per-shard
  /// seeds. Windowed tables are refused: their LAST answers do not merge
  /// across shards (coord/merge.h).
  Status CreateTable(const std::string& name, const Schema& schema,
                     uint64_t seed, const RetentionPolicy& retention) override {
    if (retention.enabled()) {
      return Status::NotImplemented(StrFormat(
          "windowed tables are not served through the coordinator: table "
          "'%s' has a retention policy; create it on a single server",
          name.c_str()));
    }
    const std::vector<ShardEndpoint>& endpoints =
        coord_->shards_.ShardsFor(name);
    if (endpoints.empty()) return NoShardsFor(name);
    // Derived per-shard seeds, like ShardedImpressionBuilder: one seeder
    // stream, one draw per shard, so shard samples are mutually independent
    // yet fully reproducible from the table seed.
    Rng seeder(seed);
    for (const ShardEndpoint& endpoint : endpoints) {
      const uint64_t shard_seed = seeder.NextUint64();
      SCIBORQ_ASSIGN_OR_RETURN(SciborqClient * client, ClientFor(endpoint));
      SCIBORQ_RETURN_NOT_OK(client->CreateTable(name, schema, shard_seed));
    }
    return Status::OK();
  }

  /// Routes the batch across the table's shards in contiguous slices.
  Result<int64_t> Ingest(const std::string& table,
                         const Table& batch) override {
    const std::vector<ShardEndpoint>& endpoints =
        coord_->shards_.ShardsFor(table);
    if (endpoints.empty()) return NoShardsFor(table);
    // Contiguous routing: shard s gets rows [offset, offset + per (+1)), the
    // same deterministic split ShardedImpressionBuilder uses, so a sharded
    // load concatenates back to the single-node row order.
    const int64_t n = batch.num_rows();
    const int64_t num_shards = static_cast<int64_t>(endpoints.size());
    const int64_t per = n / num_shards;
    const int64_t rem = n % num_shards;
    int64_t offset = 0;
    int64_t total = 0;
    for (int64_t s = 0; s < num_shards; ++s) {
      const int64_t rows = per + (s < rem ? 1 : 0);
      Table slice(batch.schema());
      slice.Reserve(rows);
      for (int64_t r = 0; r < rows; ++r) {
        slice.AppendRowFrom(batch, offset + r);
      }
      offset += rows;
      if (rows == 0) continue;
      const ShardEndpoint& endpoint = endpoints[static_cast<size_t>(s)];
      SCIBORQ_ASSIGN_OR_RETURN(SciborqClient * client, ClientFor(endpoint));
      Result<int64_t> ingested = client->Ingest(table, slice);
      if (!ingested.ok()) {
        SlotFor(endpoint)->client.reset();
        return ingested.status();
      }
      total += *ingested;
    }
    return total;
  }

  std::vector<obs::SlowQueryEntry> SlowQueries() override {
    return coord_->SlowQueries();
  }

  /// Fans the drop out to every shard the table maps to. Like checkpointing,
  /// removal is all-or-nothing per request — the first failing shard fails
  /// the call (a retry is idempotent: an already-dropped shard answers
  /// NotFound, which the client surfaces).
  Status DropTable(const std::string& name) override {
    const std::vector<ShardEndpoint>& endpoints =
        coord_->shards_.ShardsFor(name);
    if (endpoints.empty()) return NoShardsFor(name);
    for (const ShardEndpoint& endpoint : endpoints) {
      SCIBORQ_ASSIGN_OR_RETURN(SciborqClient * client, ClientFor(endpoint));
      SCIBORQ_RETURN_NOT_OK(client->DropTable(name));
    }
    return Status::OK();
  }

 private:
  /// One shard client slot, touched by exactly one fan-out task at a time.
  struct ClientSlot {
    std::optional<SciborqClient> client;
  };

  /// The split budget for one fan-out.
  struct BudgetSplit {
    double shard_budget_ms = 0.0;  ///< <= 0: unlimited (WITHIN not given)
    int recv_timeout_ms = 0;       ///< response deadline per round trip
  };

  static Status NoDefaultTable() {
    return Status::InvalidArgument(
        "SQL has no FROM clause and the session has no default table: "
        "call Use() first");
  }

  BudgetSplit SplitBudget(double client_budget_ms) const {
    const CoordinatorOptions& options = coord_->options_;
    BudgetSplit split;
    if (client_budget_ms > 0.0) {
      const double margin =
          std::max(options.min_margin_ms,
                   options.budget_margin_fraction * client_budget_ms);
      split.shard_budget_ms = std::max(1.0, client_budget_ms - margin);
      // The socket deadline sits between the shard budget and the client
      // budget: a shard that overruns its share a little still answers, one
      // that hangs is cut before the client's clock runs out.
      split.recv_timeout_ms = std::max(
          1, static_cast<int>(client_budget_ms - margin * 0.5));
    } else {
      split.shard_budget_ms = 0.0;  // unlimited, like the client asked
      split.recv_timeout_ms = options.default_shard_timeout_ms;
    }
    return split;
  }

  /// The slot for `endpoint`, created (disconnected) on first use.
  ClientSlot* SlotFor(const ShardEndpoint& endpoint) {
    std::unique_ptr<ClientSlot>& slot = clients_[endpoint.ToString()];
    if (slot == nullptr) slot = std::make_unique<ClientSlot>();
    return slot.get();
  }

  /// Pre-creates every slot serially: fan-out tasks then touch disjoint
  /// slots and never mutate the session map concurrently.
  std::vector<ClientSlot*> SlotsFor(
      const std::vector<ShardEndpoint>& endpoints) {
    std::vector<ClientSlot*> slots;
    slots.reserve(endpoints.size());
    for (const ShardEndpoint& endpoint : endpoints) {
      slots.push_back(SlotFor(endpoint));
    }
    return slots;
  }

  /// Connects the slot if needed and re-arms its response deadline.
  Status EnsureConnected(ClientSlot* slot, const ShardEndpoint& endpoint,
                         int recv_timeout_ms) {
    if (!slot->client.has_value() || !slot->client->connected()) {
      ClientOptions client_options;
      client_options.max_frame_bytes = coord_->options_.max_frame_bytes;
      client_options.connect_timeout_ms = coord_->options_.connect_timeout_ms;
      client_options.recv_timeout_ms = recv_timeout_ms;
      SCIBORQ_ASSIGN_OR_RETURN(
          SciborqClient client,
          SciborqClient::Connect(endpoint.host, endpoint.port,
                                 client_options));
      slot->client.emplace(std::move(client));
      return Status::OK();
    }
    return slot->client->SetRecvTimeout(recv_timeout_ms);
  }

  /// The connected client for `endpoint` under the default shard timeout —
  /// the serial admin operations' round trips.
  Result<SciborqClient*> ClientFor(const ShardEndpoint& endpoint) {
    ClientSlot* slot = SlotFor(endpoint);
    SCIBORQ_RETURN_NOT_OK(EnsureConnected(
        slot, endpoint, coord_->options_.default_shard_timeout_ms));
    return &*slot->client;
  }

  /// Fills the session's default table/bounds into a parsed query, exactly
  /// like api/Session does for a single node.
  Status FillSessionDefaults(BoundedQuery* bounded) const {
    if (bounded->query.table.empty()) {
      if (table_.empty()) return NoDefaultTable();
      bounded->query.table = table_;
    }
    if (!bounded->bounds.any()) bounded->bounds = bounds_;
    return Status::OK();
  }

  /// Fans `bounded` out over its table's shards and merges. `query_id`
  /// (empty = the coordinator assigns one) is propagated to every shard and
  /// stamped on the merged outcome, whose spans stitch the coordinator's own
  /// phases (plan/fanout/merge) with each shard's spans under `shardN/`
  /// prefixes.
  Result<QueryOutcome> DistributedQuery(const BoundedQuery& bounded,
                                        std::string query_id) {
    const std::vector<ShardEndpoint>& endpoints =
        coord_->shards_.ShardsFor(bounded.query.table);
    if (endpoints.empty()) return NoShardsFor(bounded.query.table);
    Metrics& metrics = coord_->metrics_;

    if (query_id.empty()) query_id = NextCoordQueryId();
    // The wall clock starts before the tracer's origin, so every span's end
    // stays <= the reported elapsed_seconds.
    Stopwatch wall;
    obs::PhaseTracer tracer;
    tracer.Begin("plan");
    const BudgetSplit split = SplitBudget(bounded.bounds.time_budget_ms);
    QueryBounds shard_bounds = bounded.bounds;
    if (bounded.bounds.time_budget_ms > 0.0) {
      shard_bounds.time_budget_ms = split.shard_budget_ms;
    }
    const std::string shard_sql = RenderSql(bounded.query, shard_bounds);
    const std::vector<ClientSlot*> slots = SlotsFor(endpoints);

    tracer.Begin("fanout");
    const double fanout_start = tracer.ElapsedSeconds();
    std::vector<ShardAnswer> answers(endpoints.size());
    ParallelFor(
        coord_->fanout_pool_.get(), static_cast<int64_t>(endpoints.size()), 1,
        [&](int64_t i, int64_t, int64_t) {
          const size_t s = static_cast<size_t>(i);
          ShardAnswer& answer = answers[s];
          answer.label = StrFormat("shard%d", static_cast<int>(s));
          Stopwatch timer;
          Status st =
              EnsureConnected(slots[s], endpoints[s], split.recv_timeout_ms);
          if (st.ok()) {
            Result<QueryOutcome> outcome =
                slots[s]->client->QueryMergeable(shard_sql, query_id);
            if (outcome.ok()) {
              answer.outcome = std::move(outcome).value();
            } else {
              st = outcome.status();
            }
          }
          if (!st.ok()) {
            answer.status = std::move(st);
            metrics.shard_errors->Inc();
            // A timed-out or broken connection cannot be reused — the late
            // response would desync the stream. Reconnect lazily on the
            // next query.
            slots[s]->client.reset();
          }
          answer.elapsed_seconds = timer.ElapsedSeconds();
          const auto rtt = metrics.shard_rtt.find(endpoints[s].ToString());
          if (rtt != metrics.shard_rtt.end()) {
            rtt->second->Observe(answer.elapsed_seconds);
          }
        });

    tracer.Begin("merge");
    MergeOptions merge_options;
    for (const AggregateSpec& spec : bounded.query.aggregates) {
      merge_options.aggregates.push_back(spec);
    }
    merge_options.confidence = bounded.bounds.confidence >= 0.0
                                   ? bounded.bounds.confidence
                                   : coord_->options_.default_bound.confidence;
    merge_options.shards_total = static_cast<int>(endpoints.size());
    SCIBORQ_ASSIGN_OR_RETURN(QueryOutcome merged,
                             MergeShardOutcomes(answers, merge_options));
    merged.table = bounded.query.table;
    merged.sql = RenderSql(bounded.query, bounded.bounds);
    merged.elapsed_seconds = wall.ElapsedSeconds();
    merged.query_id = query_id;
    merged.spans = tracer.Take();
    // Stitch the shards' traces into the coordinator's timeline: each
    // shard's spans ride under a `shardN/` prefix, starts offset by the
    // moment the fan-out began (shard-local zero = coordinator's fan-out
    // start).
    for (const ShardAnswer& answer : answers) {
      if (!answer.status.ok()) continue;
      for (const PhaseSpan& span : answer.outcome.spans) {
        merged.spans.push_back({answer.label + "/" + span.name,
                                fanout_start + span.start_seconds,
                                span.duration_seconds});
      }
    }

    metrics.queries_served->Inc();
    metrics.query_seconds->Observe(merged.elapsed_seconds);
    if (merged.partial) metrics.partial_answers->Inc();
    if (merged.deadline_exceeded) metrics.deadline_exceeded->Inc();
    if (!merged.error_bound_met || merged.deadline_exceeded ||
        merged.partial) {
      obs::SlowQueryEntry slow;
      slow.query_id = merged.query_id;
      slow.table = merged.table;
      slow.sql = merged.sql;
      slow.asked_max_ms = bounded.bounds.time_budget_ms;
      slow.asked_max_error = bounded.bounds.max_relative_error;
      slow.asked_confidence = bounded.bounds.confidence;
      slow.asked_exact = bounded.bounds.exact;
      slow.error_bound_met = merged.error_bound_met;
      slow.deadline_exceeded = merged.deadline_exceeded;
      slow.elapsed_seconds = merged.elapsed_seconds;
      slow.answered_by = merged.answered_by;
      slow.trace = RenderTrace(merged);
      coord_->slow_log_.Record(std::move(slow));
    }
    return merged;
  }

  SciborqCoordinator* coord_;
  std::string table_;
  QueryBounds bounds_;
  std::unordered_map<std::string, std::unique_ptr<ClientSlot>> clients_;
  std::map<int64_t, PreparedQuery> statements_;
  int64_t next_stmt_ = 1;
};

SciborqCoordinator::SciborqCoordinator(ShardMap shards,
                                       CoordinatorOptions options)
    : shards_(std::move(shards)),
      options_(options),
      admin_session_(std::make_unique<CoordSession>(this)),
      service_("coord",
               [this] { return std::make_unique<CoordSession>(this); }) {
  // Size the fan-out pool to the widest shard list so every round trip of
  // one query runs concurrently (waiting serially would burn the budget
  // margin shard by shard).
  size_t widest = shards_.default_shards().size();
  for (const std::string& table : shards_.MappedTables()) {
    widest = std::max(widest, shards_.ShardsFor(table).size());
  }
  fanout_pool_ =
      std::make_unique<ThreadPool>(static_cast<int>(std::max<size_t>(1, widest)));

  obs::Registry* reg = obs::DefaultRegistry();
  const std::string& instance = service_.instance();
  const obs::Labels by_instance = {{"instance", instance}};
  metrics_.queries_served =
      reg->GetCounter("sciborq_coord_queries_total",
                      "Distributed queries merged and answered.", by_instance);
  metrics_.partial_answers = reg->GetCounter(
      "sciborq_coord_partial_answers_total",
      "Merged answers missing at least one shard (PARTIAL).", by_instance);
  metrics_.deadline_exceeded = reg->GetCounter(
      "sciborq_coord_deadline_exceeded_total",
      "Merged answers that blew the client's time budget.", by_instance);
  metrics_.shard_errors = reg->GetCounter(
      "sciborq_coord_shard_errors_total",
      "Shard round trips that failed (timeout, refusal, error).", by_instance);
  metrics_.query_seconds = reg->GetHistogram(
      "sciborq_coord_query_seconds",
      "Distributed query wall clock (fan-out + merge).",
      obs::DefaultLatencyBounds(), by_instance);
  // The shard set is fixed at construction, so per-shard series pre-register
  // here and fan-out tasks read the map without locks.
  for (const ShardEndpoint& endpoint : shards_.AllEndpoints()) {
    const std::string key = endpoint.ToString();
    metrics_.shard_rtt.emplace(
        key, reg->GetHistogram("sciborq_coord_shard_rtt_seconds",
                               "Per-shard query round-trip latency.",
                               obs::DefaultLatencyBounds(),
                               {{"instance", instance}, {"shard", key}}));
  }
}

SciborqCoordinator::~SciborqCoordinator() { Stop(); }

Status SciborqCoordinator::Start() {
  return service_.Start(options_.port, options_.max_connections,
                        options_.max_frame_bytes);
}

void SciborqCoordinator::Stop() { service_.Stop(); }

// -- In-process admin face ---------------------------------------------------

Result<QueryOutcome> SciborqCoordinator::Query(std::string_view sql) {
  MutexLock lock(&admin_mu_);
  return admin_session_->Query(std::string(sql), QueryExecOptions());
}

Result<int64_t> SciborqCoordinator::RegisterCsv(const std::string& name,
                                                const std::string& path,
                                                uint64_t seed) {
  SCIBORQ_ASSIGN_OR_RETURN(const Table table, ReadCsv(path));
  MutexLock lock(&admin_mu_);
  SCIBORQ_RETURN_NOT_OK(admin_session_->CreateTable(name, table.schema(), seed,
                                                    RetentionPolicy()));
  return admin_session_->Ingest(name, table);
}

Status SciborqCoordinator::CreateTable(const std::string& name,
                                       const Schema& schema, uint64_t seed) {
  MutexLock lock(&admin_mu_);
  return admin_session_->CreateTable(name, schema, seed, RetentionPolicy());
}

Result<int64_t> SciborqCoordinator::IngestBatch(const std::string& table,
                                                const Table& batch) {
  MutexLock lock(&admin_mu_);
  return admin_session_->Ingest(table, batch);
}

Result<std::vector<TableInfo>> SciborqCoordinator::ListTables() {
  MutexLock lock(&admin_mu_);
  return admin_session_->Catalog();
}

}  // namespace sciborq
