// End-to-end tests for the distributed coordinator: real shard servers on
// ephemeral loopback ports, a SciborqCoordinator fanning out over them, and
// the failure paths — a dead shard, a silent shard — that must degrade the
// answer instead of failing or hanging it.

#include "coord/coordinator.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "client/client.h"
#include "coord/shard_map.h"
#include "server/server.h"
#include "server/socket.h"
#include "obs/metrics.h"
#include "skyserver/catalog.h"
#include "util/string_util.h"
#include "workload/telemetry.h"

namespace sciborq {
namespace {

TableOptions SmallLayers() {
  TableOptions options;
  options.layers = {{"l0", 2'048}, {"l1", 256}};
  options.seed = 7;
  return options;
}

/// Accepts connections and reads frames but never answers — the "hung
/// shard" the deadline machinery exists for.
class SilentShard {
 public:
  SilentShard() {
    listener_.emplace(TcpListener::Bind(0).value());
    thread_ = std::thread([this] {
      while (true) {
        Result<TcpConn> conn = listener_->Accept();
        if (!conn.ok()) return;  // listener shut down
        conns_.push_back(
            std::make_unique<TcpConn>(std::move(conn).value()));
      }
    });
  }

  ~SilentShard() {
    listener_->Shutdown();
    thread_.join();
    listener_->Close();
  }

  int port() const { return listener_->port(); }

 private:
  std::optional<TcpListener> listener_;
  std::thread thread_;
  // Held open, never serviced.
  std::vector<std::unique_ptr<TcpConn>> conns_;
};

/// Two empty shard servers plus a single-node reference engine holding the
/// same catalog the coordinator will distribute.
class CoordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SkyCatalogConfig config;
    config.num_rows = 32'768;
    catalog_ = GenerateSkyCatalog(config, 11).value();

    ServerOptions server_options;
    server_options.port = 0;
    for (int s = 0; s < 2; ++s) {
      shard_engines_[s] = std::make_unique<Engine>();
      shard_servers_[s] = std::make_unique<SciborqServer>(
          shard_engines_[s].get(), server_options);
      ASSERT_TRUE(shard_servers_[s]->Start().ok());
    }

    ASSERT_TRUE(reference_
                    .CreateTable("photo_obj_all",
                                 catalog_.photo_obj_all.schema(),
                                 SmallLayers())
                    .ok());
    ASSERT_TRUE(
        reference_.IngestBatch("photo_obj_all", catalog_.photo_obj_all).ok());
  }

  void TearDown() override {
    for (auto& server : shard_servers_) {
      if (server) server->Stop();
    }
  }

  ShardMap BothShards() const {
    ShardMap map;
    map.SetDefaultShards({{"127.0.0.1", shard_servers_[0]->port()},
                          {"127.0.0.1", shard_servers_[1]->port()}});
    return map;
  }

  /// Loads the first half of the catalog straight into shard 0's engine —
  /// the fixture for failure-path tests where the coordinator's own ingest
  /// routing would (correctly) refuse to run against a broken topology.
  void LoadHalfIntoShard0() {
    const Table& full = catalog_.photo_obj_all;
    Table half(full.schema());
    const int64_t n = full.num_rows() / 2;
    half.Reserve(n);
    for (int64_t r = 0; r < n; ++r) half.AppendRowFrom(full, r);
    ASSERT_TRUE(shard_engines_[0]
                    ->CreateTable("photo_obj_all", full.schema(),
                                  SmallLayers())
                    .ok());
    ASSERT_TRUE(shard_engines_[0]->IngestBatch("photo_obj_all", half).ok());
  }

  /// Creates + distributes the catalog through the coordinator itself.
  void Distribute(SciborqCoordinator* coordinator) {
    ASSERT_TRUE(coordinator
                    ->CreateTable("photo_obj_all",
                                  catalog_.photo_obj_all.schema(), 42)
                    .ok());
    Result<int64_t> rows =
        coordinator->IngestBatch("photo_obj_all", catalog_.photo_obj_all);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(32'768, *rows);
  }

  SkyCatalog catalog_;
  Engine reference_;
  std::unique_ptr<Engine> shard_engines_[2];
  std::unique_ptr<SciborqServer> shard_servers_[2];
};

TEST_F(CoordTest, IngestRoutesContiguousSlices) {
  SciborqCoordinator coordinator(BothShards());
  Distribute(&coordinator);

  // Rows split evenly across the two shards...
  EXPECT_EQ(16'384, shard_engines_[0]->TableRows("photo_obj_all").value());
  EXPECT_EQ(16'384, shard_engines_[1]->TableRows("photo_obj_all").value());

  // ...and the merged catalog reports the union.
  Result<std::vector<TableInfo>> tables = coordinator.ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(1u, tables->size());
  EXPECT_EQ("photo_obj_all", (*tables)[0].name);
  EXPECT_EQ(32'768, (*tables)[0].rows);
  EXPECT_EQ(2, (*tables)[0].shards);
}

TEST_F(CoordTest, MergedExactAnswerEqualsSingleNode) {
  SciborqCoordinator coordinator(BothShards());
  Distribute(&coordinator);

  const std::string sql =
      "SELECT COUNT(*), SUM(r), AVG(r), VAR(r), MIN(r), MAX(r) "
      "FROM photo_obj_all EXACT";
  Result<QueryOutcome> merged = coordinator.Query(sql);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  Result<QueryOutcome> local = reference_.Query(sql);
  ASSERT_TRUE(local.ok());

  EXPECT_TRUE(EquivalentAnswerData(*merged, *local))
      << "merged: " << merged->ToString()
      << "\nlocal: " << local->ToString();
  // Bit-for-bit: each shard's 16384-row slice is exactly one morsel, so the
  // coordinator's Welford merge is the single node's own fold tree.
  ASSERT_EQ(1u, merged->rows.size());
  for (size_t i = 0; i < local->rows[0].values.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&local->rows[0].values[i],
                             &merged->rows[0].values[i], sizeof(double)))
        << "aggregate " << i;
  }
  EXPECT_TRUE(merged->exact);
  EXPECT_FALSE(merged->partial);
  EXPECT_EQ(2, merged->shards_responded);
  EXPECT_EQ(2, merged->shards_total);
  // Per-shard attempts in the trace.
  bool saw0 = false, saw1 = false;
  for (const LayerAttempt& attempt : merged->attempts) {
    if (attempt.layer_name.rfind("shard0/", 0) == 0) saw0 = true;
    if (attempt.layer_name.rfind("shard1/", 0) == 0) saw1 = true;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST_F(CoordTest, WireFaceServesUnmodifiedClients) {
  CoordinatorOptions options;
  options.port = 0;
  SciborqCoordinator coordinator(BothShards(), options);
  Distribute(&coordinator);
  ASSERT_TRUE(coordinator.Start().ok());

  Result<SciborqClient> client =
      SciborqClient::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  // Catalog over the wire carries the shard count.
  Result<std::vector<TableInfo>> tables = client->ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(1u, tables->size());
  EXPECT_EQ(2, (*tables)[0].shards);

  // Session defaults work like a single node's.
  ASSERT_TRUE(client->Use("photo_obj_all").ok());
  Result<QueryOutcome> remote = client->Query("SELECT COUNT(*) EXACT");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(32'768.0, remote->rows[0].values[0]);
  EXPECT_EQ(2, remote->shards_total);

  // Unknown default table is refused with the session's error shape.
  EXPECT_FALSE(client->Use("nope").ok());

  // Prepared statements execute through the fan-out.
  Result<StatementInfo> stmt =
      client->Prepare("SELECT COUNT(*) FROM photo_obj_all WHERE ra > ? EXACT");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  Result<QueryOutcome> executed =
      client->Execute(stmt->handle, {Value(180.0)});
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  Result<QueryOutcome> local = reference_.Query(
      "SELECT COUNT(*) FROM photo_obj_all WHERE ra > 180 EXACT");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->rows[0].values[0], executed->rows[0].values[0]);
  EXPECT_TRUE(client->CloseStatement(stmt->handle).ok());

  coordinator.Stop();
}

TEST_F(CoordTest, DeadShardDegradesInsteadOfFailing) {
  // The live shard holds the first half of the data in-process; the other
  // endpoint is port 1 on loopback — connection refused immediately.
  LoadHalfIntoShard0();
  ShardMap map;
  map.SetDefaultShards(
      {{"127.0.0.1", shard_servers_[0]->port()}, {"127.0.0.1", 1}});
  CoordinatorOptions options;
  options.connect_timeout_ms = 500;
  SciborqCoordinator coordinator(std::move(map), options);

  Result<QueryOutcome> merged =
      coordinator.Query("SELECT COUNT(*), SUM(r) FROM photo_obj_all EXACT");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->partial);
  EXPECT_EQ(1, merged->shards_responded);
  EXPECT_EQ(2, merged->shards_total);
  EXPECT_FALSE(merged->exact);
  EXPECT_FALSE(merged->error_bound_met);
  // COUNT scales to estimate the full population from the live half.
  EXPECT_EQ(32'768.0, merged->rows[0].values[0]);
  // The interval admits the missing slice.
  EXPECT_GT(merged->estimates[0][0].ci_hi, merged->estimates[0][0].ci_lo);
}

TEST_F(CoordTest, SilentShardHitsDeadlineNotHang) {
  LoadHalfIntoShard0();
  SilentShard silent;
  ShardMap map;
  map.SetDefaultShards(
      {{"127.0.0.1", shard_servers_[0]->port()}, {"127.0.0.1", silent.port()}});
  CoordinatorOptions options;
  options.default_shard_timeout_ms = 400;  // unbounded-query deadline
  options.connect_timeout_ms = 500;
  SciborqCoordinator coordinator(std::move(map), options);

  const auto start = std::chrono::steady_clock::now();
  Result<QueryOutcome> merged =
      coordinator.Query("SELECT COUNT(*) FROM photo_obj_all EXACT");
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->partial);
  EXPECT_EQ(1, merged->shards_responded);
  // Bounded by the shard deadline plus slack, nowhere near a hang.
  EXPECT_LT(wall, 5.0);
}

TEST(ClientDeadlineTest, RecvTimeoutSurfacesAsDeadlineExceeded) {
  SilentShard silent;
  ClientOptions options;
  options.recv_timeout_ms = 200;
  Result<SciborqClient> client =
      SciborqClient::Connect("127.0.0.1", silent.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const Status st = client->Ping();
  EXPECT_EQ(StatusCode::kDeadlineExceeded, st.code()) << st.ToString();
}

TEST_F(CoordTest, StitchedTraceCoversBothShards) {
  SciborqCoordinator coordinator(BothShards());
  Distribute(&coordinator);

  Result<QueryOutcome> merged =
      coordinator.Query("SELECT COUNT(*), AVG(r) FROM photo_obj_all EXACT");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->query_id.empty());

  // One stitched trace: the coordinator's own phases plus each shard's
  // spans re-homed under shardN/ prefixes.
  auto has_phase = [&merged](std::string_view name) {
    for (const PhaseSpan& span : merged->spans) {
      if (span.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_phase("plan"));
  EXPECT_TRUE(has_phase("fanout"));
  EXPECT_TRUE(has_phase("merge"));

  double shard_sums[2] = {0.0, 0.0};
  int shard_spans[2] = {0, 0};
  for (const PhaseSpan& span : merged->spans) {
    EXPECT_GE(span.start_seconds, 0.0) << span.name;
    EXPECT_GE(span.duration_seconds, 0.0) << span.name;
    // Every span — coordinator or stitched shard — lives inside the query's
    // reported wall clock (shard spans are offset by the fan-out start, and
    // each shard finished before the merge did).
    EXPECT_LE(span.start_seconds + span.duration_seconds,
              merged->elapsed_seconds + 5e-3)
        << span.name;
    for (int s = 0; s < 2; ++s) {
      const std::string prefix = "shard" + std::to_string(s) + "/";
      if (span.name.rfind(prefix, 0) == 0) {
        ++shard_spans[s];
        shard_sums[s] += span.duration_seconds;
      }
    }
  }
  for (int s = 0; s < 2; ++s) {
    // Both shards contributed spans, and each shard's sequential phase
    // durations sum to no more than the whole distributed query took.
    EXPECT_GT(shard_spans[s], 0) << "shard " << s;
    EXPECT_LE(shard_sums[s], merged->elapsed_seconds + 5e-3) << "shard " << s;
  }
}

TEST_F(CoordTest, QueryIdPropagatesOverTheWire) {
  // The propagation mechanism itself, without the coordinator's budget
  // rewriting: a mergeable query carries an explicit id to the shard
  // server, whose engine records it in the outcome AND — after a
  // deterministic bound miss (1-microsecond budget, near-zero error: the
  // first layer answers, misses, and the blown deadline forbids
  // escalation) — in its slow-query ring.
  LoadHalfIntoShard0();
  Result<SciborqClient> client =
      SciborqClient::Connect("127.0.0.1", shard_servers_[0]->port());
  ASSERT_TRUE(client.ok());
  Result<QueryOutcome> outcome = client->QueryMergeable(
      "SELECT AVG(r) FROM photo_obj_all WITHIN 0.001 MS ERROR 0.0001%",
      "qc-propagated-7");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ("qc-propagated-7", outcome->query_id);
  EXPECT_FALSE(outcome->error_bound_met);

  const std::vector<obs::SlowQueryEntry> slow =
      shard_engines_[0]->SlowQueries();
  ASSERT_FALSE(slow.empty());
  EXPECT_EQ("qc-propagated-7", slow.back().query_id);
}

TEST_F(CoordTest, DegradedAnswerLandsInCoordinatorSlowLog) {
  // A partial answer (one shard dead) must be recorded in the coordinator's
  // own ring under the merged query's id, with the full stitched trace.
  LoadHalfIntoShard0();
  ShardMap map;
  map.SetDefaultShards(
      {{"127.0.0.1", shard_servers_[0]->port()}, {"127.0.0.1", 1}});
  CoordinatorOptions options;
  options.connect_timeout_ms = 500;
  SciborqCoordinator coordinator(std::move(map), options);

  Result<QueryOutcome> merged =
      coordinator.Query("SELECT COUNT(*) FROM photo_obj_all EXACT");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_TRUE(merged->partial);
  ASSERT_FALSE(merged->query_id.empty());

  const std::vector<obs::SlowQueryEntry> slow = coordinator.SlowQueries();
  ASSERT_FALSE(slow.empty());
  const obs::SlowQueryEntry& entry = slow.back();
  EXPECT_EQ(merged->query_id, entry.query_id);
  EXPECT_EQ("photo_obj_all", entry.table);
  EXPECT_TRUE(entry.asked_exact);
  EXPECT_FALSE(entry.trace.empty());
}

TEST_F(CoordTest, CreateTableOverTheWireReachesEveryShard) {
  CoordinatorOptions options;
  options.port = 0;
  SciborqCoordinator coordinator(BothShards(), options);
  ASSERT_TRUE(coordinator.Start().ok());
  SciborqClient client =
      SciborqClient::Connect("127.0.0.1", coordinator.port()).value();

  // Both overloads carry the retention block; a disabled policy creates a
  // plain table on every shard.
  const Schema schema = catalog_.photo_obj_all.schema();
  ASSERT_TRUE(client.CreateTable("plain", schema, /*seed=*/9).ok());
  ASSERT_TRUE(client.CreateTable("disabled", schema, RetentionPolicy(), 9).ok());
  for (const auto& engine : shard_engines_) {
    EXPECT_EQ(engine->TableRows("plain").value(), 0);
    EXPECT_EQ(engine->TableRows("disabled").value(), 0);
  }
  coordinator.Stop();
}

TEST_F(CoordTest, WindowedCreateTableRefusedByCoordinator) {
  CoordinatorOptions options;
  options.port = 0;
  SciborqCoordinator coordinator(BothShards(), options);
  ASSERT_TRUE(coordinator.Start().ok());
  SciborqClient client =
      SciborqClient::Connect("127.0.0.1", coordinator.port()).value();

  RetentionPolicy policy;
  policy.time_column = "ts";
  policy.bucket_width = 100;
  policy.window_buckets = 3;
  const Status st = client.CreateTable(
      "telemetry", TelemetryGenerator::TableSchema(), policy, 7);
  EXPECT_EQ(st.code(), StatusCode::kNotImplemented) << st.ToString();
  EXPECT_NE(st.message().find("not served through the coordinator"),
            std::string::npos)
      << st.message();
  for (const auto& engine : shard_engines_) {
    EXPECT_FALSE(engine->TableRows("telemetry").ok());
  }
  // A refused request is an answer, not a protocol error.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(coordinator.protocol_errors(), 0);
  coordinator.Stop();
}

/// Sum over every registry sample named `name` whose labels contain `label`.
double SampleSum(const std::string& name, const std::string& label = "") {
  double sum = 0.0;
  for (const obs::StatSample& s : obs::DefaultRegistry()->Samples()) {
    if (s.name == name && s.labels.find(label) != std::string::npos) {
      sum += s.value;
    }
  }
  return sum;
}

/// Sends one request of every opcode through `client` and checks each
/// answer's shape; `table` is a scratch table name for create/ingest/drop.
void DriveEveryOpcode(SciborqClient* client, const std::string& table,
                      const Table& rows) {
  EXPECT_TRUE(client->Ping().ok());
  Result<std::vector<TableInfo>> tables = client->ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_FALSE(tables->empty());
  ASSERT_TRUE(client->Use("photo_obj_all").ok());
  QueryBounds bounds;
  bounds.exact = true;
  ASSERT_TRUE(client->SetDefaultBounds(bounds).ok());
  Result<QueryOutcome> count = client->Query("SELECT COUNT(*)");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_TRUE(count->exact);
  Result<StatementInfo> stmt =
      client->Prepare("SELECT COUNT(*) FROM photo_obj_all WHERE ra > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(client->Execute(stmt->handle, {Value(180.0)}).ok());
  EXPECT_TRUE(client->CloseStatement(stmt->handle).ok());
  // In-memory engines have no database directory: the refusal travels back
  // code-intact through either backend.
  EXPECT_EQ(client->Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client->CreateTable(table, rows.schema(), 5).ok());
  EXPECT_EQ(client->Ingest(table, rows).value(), rows.num_rows());
  Result<std::vector<obs::StatSample>> stats = client->ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->empty());
  EXPECT_TRUE(client->SlowQueries().ok());
  EXPECT_TRUE(client->DropTable(table).ok());
}

TEST_F(CoordTest, EveryOpcodeServedByBothBackends) {
  CoordinatorOptions options;
  options.port = 0;
  SciborqCoordinator coordinator(BothShards(), options);
  Distribute(&coordinator);
  ASSERT_TRUE(coordinator.Start().ok());
  Table rows(catalog_.photo_obj_all.schema());
  for (int64_t r = 0; r < 10; ++r) rows.AppendRowFrom(catalog_.photo_obj_all, r);

  const double coord_in = SampleSum("sciborq_coord_bytes_in_total");
  const double coord_out = SampleSum("sciborq_coord_bytes_out_total");
  std::vector<double> served_before;
  for (const char* kind : {"server", "coord"}) {
    for (uint8_t op = 1; op <= static_cast<uint8_t>(Opcode::kDropTable); ++op) {
      served_before.push_back(SampleSum(
          StrFormat("sciborq_%s_request_seconds_count", kind),
          StrFormat("opcode=\"%s\"",
                    std::string(OpcodeToString(static_cast<Opcode>(op)))
                        .c_str())));
    }
  }

  // The engine backend (a shard server) and the fan-out backend (the
  // coordinator) answer the same requests through the same dispatcher.
  SciborqClient shard =
      SciborqClient::Connect("127.0.0.1", shard_servers_[0]->port()).value();
  DriveEveryOpcode(&shard, "scratch_shard", rows);
  SciborqClient coord =
      SciborqClient::Connect("127.0.0.1", coordinator.port()).value();
  DriveEveryOpcode(&coord, "scratch_coord", rows);

  EXPECT_GT(SampleSum("sciborq_coord_bytes_in_total"), coord_in);
  EXPECT_GT(SampleSum("sciborq_coord_bytes_out_total"), coord_out);
  size_t i = 0;
  for (const char* kind : {"server", "coord"}) {
    for (uint8_t op = 1; op <= static_cast<uint8_t>(Opcode::kDropTable); ++op) {
      const std::string name(OpcodeToString(static_cast<Opcode>(op)));
      EXPECT_GT(SampleSum(StrFormat("sciborq_%s_request_seconds_count", kind),
                          StrFormat("opcode=\"%s\"", name.c_str())),
                served_before[i++])
          << kind << " " << name;
    }
  }
  EXPECT_EQ(coordinator.protocol_errors(), 0);
  coordinator.Stop();
}

TEST(ClientDeadlineTest, ConnectTimeoutDoesNotHang) {
  // RFC 5737 TEST-NET-1 address: on a normal network the packets go
  // nowhere and connect would hang for minutes without the deadline. Some
  // sandboxed environments intercept and accept the connect instead, so
  // the only portable assertion is the timing one: with the deadline set,
  // Connect returns promptly either way.
  ClientOptions options;
  options.connect_timeout_ms = 300;
  const auto start = std::chrono::steady_clock::now();
  Result<SciborqClient> client =
      SciborqClient::Connect("192.0.2.1", 4242, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(wall, 5.0);
}

}  // namespace
}  // namespace sciborq
