#ifndef SCIBORQ_SERVER_SERVICE_H_
#define SCIBORQ_SERVER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/engine.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "server/socket.h"
#include "server/wire.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sciborq {

/// One connection's typed view of a backend: the operations behind the wire
/// opcodes. WireService decodes every request payload and calls these, so an
/// implementation never sees wire bytes. A session is created, used and
/// destroyed on its connection's handler thread.
class WireSession {
 public:
  virtual ~WireSession() = default;

  virtual Result<QueryOutcome> Query(const std::string& sql,
                                     const QueryExecOptions& exec) = 0;
  virtual Status Use(const std::string& table) = 0;
  virtual Status SetBounds(const QueryBounds& bounds) = 0;
  virtual Result<std::vector<TableInfo>> Catalog() = 0;
  virtual Result<StatementInfo> Prepare(const std::string& sql) = 0;
  virtual Result<QueryOutcome> Execute(StatementHandle handle,
                                       const std::vector<Value>& params) = 0;
  virtual Status CloseStatement(StatementHandle handle) = 0;
  /// `table` "" = every table; returns how many tables were checkpointed.
  virtual Result<int64_t> Checkpoint(const std::string& table) = 0;
  virtual Status CreateTable(const std::string& name, const Schema& schema,
                             uint64_t seed,
                             const RetentionPolicy& retention) = 0;
  /// Returns the rows ingested.
  virtual Result<int64_t> Ingest(const std::string& table,
                                 const Table& batch) = 0;
  virtual std::vector<obs::SlowQueryEntry> SlowQueries() = 0;
  virtual Status DropTable(const std::string& name) = 0;
};

/// The connection loop shared by SciborqServer and SciborqCoordinator: a
/// blocking-socket TCP listener, one handler per connection on a ThreadPool,
/// graceful drain, and the single request dispatcher. Each connection gets
/// its own WireSession from the factory; ping and stats are answered here.
///
/// Metrics are registered under `sciborq_<kind>_...` with a per-instance
/// label: connections, protocol errors, bytes in/out (frame prefix included)
/// and request latency per opcode.
class WireService {
 public:
  using SessionFactory = std::function<std::unique_ptr<WireSession>()>;

  /// `kind` names the metric prefix (`sciborq_<kind>_...`) and the instance
  /// label (`<kind>-N`). `new_session` is called once per connection, on
  /// that connection's handler thread.
  WireService(const std::string& kind, SessionFactory new_session);
  ~WireService();

  WireService(const WireService&) = delete;
  WireService& operator=(const WireService&) = delete;

  /// Binds `port` (0 = a free ephemeral port) and starts accepting.
  /// `max_connections` handlers run at once; further connections queue.
  /// FailedPrecondition if already started.
  Status Start(int port, int max_connections, int64_t max_frame_bytes);

  /// Graceful shutdown: stops accepting, half-closes every connection's
  /// read side so handlers finish the request in flight (response
  /// included), then joins. Idempotent; no-op when never started.
  void Stop();

  int port() const { return port_; }
  bool running() const { return started_.load() && !stopping_.load(); }
  /// The `instance` label of this service's series.
  const std::string& instance() const { return instance_; }

  int64_t connections_accepted() const {
    return metrics_.connections_accepted->Value();
  }
  int64_t protocol_errors() const { return metrics_.protocol_errors->Value(); }
  int64_t bytes_received() const { return metrics_.bytes_in->Value(); }
  int64_t bytes_sent() const { return metrics_.bytes_out->Value(); }

 private:
  void AcceptLoop();
  void HandleConnection(TcpConn* conn);

  const std::string instance_;
  SessionFactory new_session_;
  int port_ = -1;
  int64_t max_frame_bytes_ = kMaxFrameBytes;

  std::optional<TcpListener> listener_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  /// Live connections, for Stop() to half-close. Handlers register on entry
  /// and deregister (under the same lock) before destroying the conn.
  Mutex conns_mu_;
  std::unordered_map<int64_t, TcpConn*> active_conns_ GUARDED_BY(conns_mu_);
  int64_t next_conn_id_ GUARDED_BY(conns_mu_) = 0;

  /// Resolved once in the constructor; pointees are internally atomic.
  struct Metrics {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    /// Per-opcode request latency, indexed by the opcode byte.
    obs::Histogram* request_seconds[16] = {};
  };
  Metrics metrics_;

  /// Declared after everything the handlers and the accept loop use.
  std::unique_ptr<ThreadPool> handler_pool_;
  std::thread accept_thread_;
};

}  // namespace sciborq

#endif  // SCIBORQ_SERVER_SERVICE_H_
