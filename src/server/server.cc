#include "server/server.h"

#include <memory>

#include "api/session.h"

namespace sciborq {

/// One connection's engine backend: session state (default table, bounds,
/// prepared statements) in an api/Session, engine-wide operations straight
/// into the Engine.
class SciborqServer::EngineSession final : public WireSession {
 public:
  explicit EngineSession(SciborqServer* server)
      : server_(server), engine_(server->engine_), session_(engine_) {}

  Result<QueryOutcome> Query(const std::string& sql,
                             const QueryExecOptions& exec) override {
    server_->metrics_.queries_served->Inc();
    return session_.Query(sql, exec);
  }

  Status Use(const std::string& table) override { return session_.Use(table); }

  Status SetBounds(const QueryBounds& bounds) override {
    session_.set_default_bounds(bounds);
    return Status::OK();
  }

  Result<std::vector<TableInfo>> Catalog() override {
    return engine_->ListTables();
  }

  Result<StatementInfo> Prepare(const std::string& sql) override {
    SCIBORQ_ASSIGN_OR_RETURN(StatementInfo info, session_.Prepare(sql));
    server_->metrics_.statements_prepared->Inc();
    return info;
  }

  Result<QueryOutcome> Execute(StatementHandle handle,
                               const std::vector<Value>& params) override {
    server_->metrics_.queries_served->Inc();
    return session_.Execute(handle, params);
  }

  Status CloseStatement(StatementHandle handle) override {
    return session_.CloseStatement(handle);
  }

  Result<int64_t> Checkpoint(const std::string& table) override {
    // Engine-wide state, not session state. FailedPrecondition travels back
    // code-intact when the server runs without --db-dir.
    int64_t count = 1;
    if (table.empty()) {
      SCIBORQ_ASSIGN_OR_RETURN(count, engine_->CheckpointAll());
    } else {
      SCIBORQ_RETURN_NOT_OK(engine_->Checkpoint(table));
    }
    server_->metrics_.checkpoints_taken->Inc(count);
    return count;
  }

  Status CreateTable(const std::string& name, const Schema& schema,
                     uint64_t seed, const RetentionPolicy& retention) override {
    // The seed travels explicitly so a coordinator can hand each shard a
    // distinct sampler stream; the retention policy makes it a windowed
    // (time-series) table.
    TableOptions table_options;
    table_options.seed = seed;
    table_options.retention = retention;
    return engine_->CreateTable(name, schema, table_options);
  }

  Result<int64_t> Ingest(const std::string& table,
                         const Table& batch) override {
    SCIBORQ_RETURN_NOT_OK(engine_->IngestBatch(table, batch));
    return batch.num_rows();
  }

  std::vector<obs::SlowQueryEntry> SlowQueries() override {
    return engine_->SlowQueries();
  }

  Status DropTable(const std::string& name) override {
    // Catalog entry plus every on-disk file. The engine serializes against
    // in-flight queries and checkpoints under the table's own locks.
    return engine_->DropTable(name);
  }

 private:
  SciborqServer* server_;
  Engine* engine_;
  Session session_;
};

SciborqServer::SciborqServer(Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(options),
      service_("server",
               [this] { return std::make_unique<EngineSession>(this); }) {
  SCIBORQ_CHECK(engine_ != nullptr);
  obs::Registry* reg = obs::DefaultRegistry();
  const obs::Labels by_instance = {{"instance", service_.instance()}};
  metrics_.queries_served = reg->GetCounter(
      "sciborq_server_queries_total",
      "Query/Execute requests received (before execution).", by_instance);
  metrics_.statements_prepared =
      reg->GetCounter("sciborq_server_statements_prepared_total",
                      "Statements successfully prepared.", by_instance);
  metrics_.checkpoints_taken =
      reg->GetCounter("sciborq_server_checkpoints_total",
                      "Tables checkpointed on request.", by_instance);
}

SciborqServer::~SciborqServer() { Stop(); }

Status SciborqServer::Start() {
  return service_.Start(options_.port, options_.max_connections,
                        options_.max_frame_bytes);
}

void SciborqServer::Stop() { service_.Stop(); }

}  // namespace sciborq
