#ifndef SCIBORQ_SERVER_SERVER_H_
#define SCIBORQ_SERVER_SERVER_H_

#include <cstdint>

#include "api/engine.h"
#include "obs/metrics.h"
#include "server/service.h"
#include "server/wire.h"

namespace sciborq {

struct ServerOptions {
  /// TCP port to listen on; 0 picks a free ephemeral port (port() reports
  /// the bound one — the tests' and benches' no-conflict mode).
  int port = 0;
  /// Concurrent connections served at once: the size of the handler
  /// ThreadPool, one (blocking) handler per connection. Further accepted
  /// connections queue in the pool until a worker frees up.
  int max_connections = 8;
  /// Per-frame ceiling enforced before a request body is read.
  int64_t max_frame_bytes = kMaxFrameBytes;
};

/// The network face of an Engine: the shared WireService (server/service.h)
/// speaking the length-prefixed protocol of server/wire.h, one blocking
/// handler per connection. Each connection owns one api/Session, so `USE`
/// and default bounds persist per client while every query still flows
/// through the one thread-safe Engine — N connections are just N concurrent
/// callers of Engine::Query, the shape engine_test already proves
/// deterministic.
///
/// Lifecycle: Start() binds and returns; Stop() is graceful — it stops
/// accepting, half-closes every connection's read side so handlers finish
/// the request in flight (response included), then joins. The destructor
/// calls Stop().
class SciborqServer {
 public:
  /// `engine` is non-owning and must outlive the server.
  SciborqServer(Engine* engine, ServerOptions options = ServerOptions());
  ~SciborqServer();

  SciborqServer(const SciborqServer&) = delete;
  SciborqServer& operator=(const SciborqServer&) = delete;

  /// Binds the listener and starts the accept thread. FailedPrecondition if
  /// already started.
  Status Start();

  /// Graceful shutdown: drains in-flight requests, then joins all threads.
  /// Idempotent; no-op when never started.
  void Stop();

  /// The bound port (valid after a successful Start).
  int port() const { return service_.port(); }
  bool running() const { return service_.running(); }

  // Thin reads of this instance's registry counters (each server gets its
  // own `instance`-labeled series, so the values stay exact per instance
  // even with several servers in one process).
  int64_t connections_accepted() const {
    return service_.connections_accepted();
  }
  int64_t queries_served() const { return metrics_.queries_served->Value(); }
  int64_t statements_prepared() const {
    return metrics_.statements_prepared->Value();
  }
  int64_t checkpoints_taken() const {
    return metrics_.checkpoints_taken->Value();
  }
  int64_t protocol_errors() const { return service_.protocol_errors(); }
  int64_t bytes_received() const { return service_.bytes_received(); }
  int64_t bytes_sent() const { return service_.bytes_sent(); }

 private:
  /// The engine backend behind one connection (defined in server.cc).
  class EngineSession;

  Engine* engine_;
  ServerOptions options_;

  /// The engine-side series in the process registry (obs/metrics.h),
  /// resolved once in the constructor. Pointees are internally atomic.
  struct Metrics {
    obs::Counter* queries_served = nullptr;
    obs::Counter* statements_prepared = nullptr;
    obs::Counter* checkpoints_taken = nullptr;
  };
  Metrics metrics_;

  /// Declared last: destroyed first, so no handler outlives the members
  /// its sessions use.
  WireService service_;
};

}  // namespace sciborq

#endif  // SCIBORQ_SERVER_SERVER_H_
