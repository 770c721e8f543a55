#include "server/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

/// Distinct `instance` label per service object, so several servers and
/// coordinators in one process keep exact per-instance series.
std::string NextInstance(const std::string& kind) {
  static std::atomic<int64_t> next{0};
  return StrFormat("%s-%lld", kind.c_str(),
                   static_cast<long long>(
                       next.fetch_add(1, std::memory_order_relaxed)));
}

/// Decodes the request's payload, calls the session, and returns the
/// response payload. The one place request payloads are read: every case
/// decodes its fields and checks the payload is used up before acting.
Result<std::string> Serve(const RequestFrame& request, WireSession* session) {
  WireReader in(request.payload);
  WireWriter out;
  switch (request.opcode) {
    case Opcode::kQuery: {
      SCIBORQ_ASSIGN_OR_RETURN(const std::string sql, in.ReadString());
      SCIBORQ_ASSIGN_OR_RETURN(const uint8_t flags, in.ReadU8());
      QueryExecOptions exec;
      exec.mergeable = (flags & 0x1) != 0;
      SCIBORQ_ASSIGN_OR_RETURN(exec.query_id, in.ReadString());
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_ASSIGN_OR_RETURN(const QueryOutcome outcome,
                               session->Query(sql, exec));
      EncodeOutcome(outcome, &out);
      break;
    }
    case Opcode::kUse: {
      SCIBORQ_ASSIGN_OR_RETURN(const std::string table, in.ReadString());
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_RETURN_NOT_OK(session->Use(table));
      break;
    }
    case Opcode::kSetBounds: {
      SCIBORQ_ASSIGN_OR_RETURN(const QueryBounds bounds, DecodeBounds(&in));
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_RETURN_NOT_OK(session->SetBounds(bounds));
      break;
    }
    case Opcode::kCatalog: {
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_ASSIGN_OR_RETURN(const std::vector<TableInfo> tables,
                               session->Catalog());
      out.PutU32(static_cast<uint32_t>(tables.size()));
      for (const TableInfo& info : tables) EncodeTableInfo(info, &out);
      break;
    }
    case Opcode::kPing:
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      break;
    case Opcode::kPrepare: {
      SCIBORQ_ASSIGN_OR_RETURN(const std::string sql, in.ReadString());
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_ASSIGN_OR_RETURN(const StatementInfo info,
                               session->Prepare(sql));
      EncodeStatementInfo(info, &out);
      break;
    }
    case Opcode::kExecute: {
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t id, in.ReadI64());
      SCIBORQ_ASSIGN_OR_RETURN(const std::vector<Value> params,
                               DecodeParams(&in));
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_ASSIGN_OR_RETURN(const QueryOutcome outcome,
                               session->Execute(StatementHandle{id}, params));
      EncodeOutcome(outcome, &out);
      break;
    }
    case Opcode::kCloseStmt: {
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t id, in.ReadI64());
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_RETURN_NOT_OK(session->CloseStatement(StatementHandle{id}));
      break;
    }
    case Opcode::kCheckpoint: {
      SCIBORQ_ASSIGN_OR_RETURN(const std::string table, in.ReadString());
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t count, session->Checkpoint(table));
      out.PutU32(static_cast<uint32_t>(count));
      break;
    }
    case Opcode::kCreateTable: {
      SCIBORQ_ASSIGN_OR_RETURN(const std::string name, in.ReadString());
      SCIBORQ_ASSIGN_OR_RETURN(const Schema schema, DecodeSchema(&in));
      SCIBORQ_ASSIGN_OR_RETURN(const uint64_t seed, in.ReadU64());
      SCIBORQ_ASSIGN_OR_RETURN(const RetentionPolicy retention,
                               DecodeRetentionPolicy(&in));
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_RETURN_NOT_OK(
          session->CreateTable(name, schema, seed, retention));
      break;
    }
    case Opcode::kIngest: {
      SCIBORQ_ASSIGN_OR_RETURN(const std::string table, in.ReadString());
      SCIBORQ_ASSIGN_OR_RETURN(const Table batch, DecodeTable(&in));
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t rows,
                               session->Ingest(table, batch));
      out.PutI64(rows);
      break;
    }
    case Opcode::kStats:
      // The whole process registry, flattened: one process, one scrape.
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      EncodeStatSamples(obs::DefaultRegistry()->Samples(), &out);
      break;
    case Opcode::kSlowLog:
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      EncodeSlowQueries(session->SlowQueries(), &out);
      break;
    case Opcode::kDropTable: {
      SCIBORQ_ASSIGN_OR_RETURN(const std::string name, in.ReadString());
      SCIBORQ_RETURN_NOT_OK(in.ExpectEnd());
      SCIBORQ_RETURN_NOT_OK(session->DropTable(name));
      break;
    }
    case Opcode::kInvalid:
      return Status::Internal("unhandled opcode");  // DecodeRequest refuses it
  }
  return out.Take();
}

}  // namespace

WireService::WireService(const std::string& kind, SessionFactory new_session)
    : instance_(NextInstance(kind)), new_session_(std::move(new_session)) {
  obs::Registry* reg = obs::DefaultRegistry();
  const std::string prefix = "sciborq_" + kind;
  const obs::Labels by_instance = {{"instance", instance_}};
  metrics_.connections_accepted = reg->GetCounter(
      prefix + "_connections_total", "TCP connections accepted.", by_instance);
  metrics_.protocol_errors =
      reg->GetCounter(prefix + "_protocol_errors_total",
                      "Undecodable or misframed requests.", by_instance);
  metrics_.bytes_in = reg->GetCounter(
      prefix + "_bytes_in_total",
      "Request bytes received (frame prefix included).", by_instance);
  metrics_.bytes_out = reg->GetCounter(
      prefix + "_bytes_out_total",
      "Response bytes sent (frame prefix included).", by_instance);
  for (uint8_t op = 0; op <= static_cast<uint8_t>(Opcode::kDropTable); ++op) {
    metrics_.request_seconds[op] = reg->GetHistogram(
        prefix + "_request_seconds", "Request handling latency.",
        obs::DefaultLatencyBounds(),
        {{"instance", instance_},
         {"opcode", std::string(OpcodeToString(static_cast<Opcode>(op)))}});
  }
}

WireService::~WireService() { Stop(); }

Status WireService::Start(int port, int max_connections,
                          int64_t max_frame_bytes) {
  if (started_.load()) {
    return Status::FailedPrecondition(instance_ + " already started");
  }
  SCIBORQ_ASSIGN_OR_RETURN(TcpListener listener, TcpListener::Bind(port));
  port_ = listener.port();
  max_frame_bytes_ = max_frame_bytes;
  listener_.emplace(std::move(listener));
  handler_pool_ = std::make_unique<ThreadPool>(std::max(1, max_connections));
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void WireService::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // 1. No new connections: wake and join the accept thread.
  listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Drain: half-close every live connection's read side. A handler busy
  //    with a request finishes it, sends the response over the still-open
  //    write side, then reads a clean EOF and exits; idle and queued
  //    connections see the EOF immediately.
  {
    MutexLock lock(&conns_mu_);
    for (auto& [id, conn] : active_conns_) conn->ShutdownRead();
  }
  // 3. Join the handlers.
  if (handler_pool_) {
    handler_pool_->Wait();
    handler_pool_.reset();
  }
  listener_->Close();
}

void WireService::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<TcpConn> accepted = listener_->Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      // Transient accept failure (e.g. fd pressure): back off briefly
      // rather than spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    metrics_.connections_accepted->Inc();
    auto conn = std::make_shared<TcpConn>(std::move(accepted).value());
    int64_t id;
    {
      MutexLock lock(&conns_mu_);
      id = next_conn_id_++;
      active_conns_.emplace(id, conn.get());
    }
    handler_pool_->Submit([this, id, conn] {
      HandleConnection(conn.get());
      MutexLock lock(&conns_mu_);
      active_conns_.erase(id);
    });
  }
}

void WireService::HandleConnection(TcpConn* conn) {
  // The connection's whole life runs on this one pool worker, so a session's
  // single-thread ownership contract holds by construction.
  const std::unique_ptr<WireSession> session = new_session_();
  for (;;) {
    Result<std::optional<std::string>> frame =
        conn->RecvFrame(max_frame_bytes_);
    if (!frame.ok()) {
      // Framing is broken (oversized/truncated prefix): report best-effort
      // and close — the stream can't be resynchronized.
      metrics_.protocol_errors->Inc();
      (void)conn->SendFrame(
          EncodeResponse(Opcode::kInvalid, frame.status(), ""));
      break;
    }
    if (!frame->has_value()) break;  // peer closed cleanly between frames
    metrics_.bytes_in->Inc(static_cast<int64_t>((*frame)->size()) + 4);
    Result<RequestFrame> request = DecodeRequest(**frame);
    if (!request.ok()) {
      // Bad version or opcode: the peer speaks something else; answer once
      // and hang up.
      metrics_.protocol_errors->Inc();
      (void)conn->SendFrame(
          EncodeResponse(Opcode::kInvalid, request.status(), ""));
      break;
    }
    Stopwatch request_watch;
    const Result<std::string> payload = Serve(*request, session.get());
    const std::string response =
        payload.ok() ? EncodeResponse(request->opcode, Status::OK(), *payload)
                     : EncodeResponse(request->opcode, payload.status(), "");
    metrics_.request_seconds[static_cast<uint8_t>(request->opcode)]->Observe(
        request_watch.ElapsedSeconds());
    metrics_.bytes_out->Inc(static_cast<int64_t>(response.size()) + 4);
    if (!conn->SendFrame(response).ok()) break;
  }
}

}  // namespace sciborq
