#include "client/client.h"

#include <utility>

#include "util/string_util.h"

namespace sciborq {

Result<SciborqClient> SciborqClient::Connect(const std::string& host, int port,
                                             ClientOptions options) {
  SCIBORQ_ASSIGN_OR_RETURN(
      TcpConn conn, TcpConn::Connect(host, port, options.connect_timeout_ms));
  if (options.recv_timeout_ms > 0) {
    SCIBORQ_RETURN_NOT_OK(conn.SetRecvTimeout(options.recv_timeout_ms));
  }
  return SciborqClient(std::move(conn), options);
}

Result<std::string> SciborqClient::RoundTrip(Opcode op,
                                             std::string_view payload) {
  if (!conn_.valid()) {
    return Status::FailedPrecondition("client is not connected");
  }
  if (Status st = conn_.SendFrame(EncodeRequest(op, payload)); !st.ok()) {
    conn_.Close();
    return st;
  }
  Result<std::optional<std::string>> frame =
      conn_.RecvFrame(options_.max_frame_bytes);
  if (!frame.ok()) {
    // Frame-level failure (oversized response, mid-frame EOF): unread bytes
    // may remain in the stream, so it cannot be resynchronized — hang up
    // rather than let the next round-trip read garbage.
    conn_.Close();
    return frame.status();
  }
  if (!frame->has_value()) {
    conn_.Close();
    return Status::IOError("server closed the connection before responding");
  }
  Result<ResponseFrame> decoded = DecodeResponse(**frame);
  if (!decoded.ok()) {
    conn_.Close();  // the server speaks something we don't understand
    return decoded.status();
  }
  ResponseFrame& response = *decoded;
  if (response.opcode == Opcode::kInvalid) {
    // The server rejected the stream at frame level; it will hang up next.
    conn_.Close();
    return response.status.ok()
               ? Status::Internal("server sent an OK kInvalid response")
               : response.status;
  }
  if (response.opcode != op) {
    conn_.Close();
    return Status::Internal(StrFormat(
        "server echoed opcode %u for a %u request — stream out of sync",
        static_cast<unsigned>(response.opcode), static_cast<unsigned>(op)));
  }
  if (!response.status.ok()) return response.status;
  return std::move(response.payload);
}

Result<QueryOutcome> SciborqClient::QueryWithFlags(std::string_view sql,
                                                   uint8_t flags,
                                                   std::string_view query_id) {
  WireWriter w;
  w.PutString(sql);
  w.PutU8(flags);
  w.PutString(query_id);
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload,
                           RoundTrip(Opcode::kQuery, w.buffer()));
  WireReader r(payload);
  SCIBORQ_ASSIGN_OR_RETURN(QueryOutcome outcome, DecodeOutcome(&r));
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return outcome;
}

Result<QueryOutcome> SciborqClient::Query(std::string_view sql) {
  return QueryWithFlags(sql, 0, {});
}

Result<QueryOutcome> SciborqClient::QueryMergeable(std::string_view sql,
                                                   std::string_view query_id) {
  return QueryWithFlags(sql, 0x1, query_id);
}

Result<StatementInfo> SciborqClient::Prepare(std::string_view sql) {
  WireWriter w;
  w.PutString(sql);
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload,
                           RoundTrip(Opcode::kPrepare, w.buffer()));
  WireReader r(payload);
  SCIBORQ_ASSIGN_OR_RETURN(StatementInfo info, DecodeStatementInfo(&r));
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return info;
}

Result<QueryOutcome> SciborqClient::Execute(StatementHandle handle,
                                            const std::vector<Value>& params) {
  WireWriter w;
  w.PutI64(handle.id);
  EncodeParams(params, &w);
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload,
                           RoundTrip(Opcode::kExecute, w.buffer()));
  WireReader r(payload);
  SCIBORQ_ASSIGN_OR_RETURN(QueryOutcome outcome, DecodeOutcome(&r));
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return outcome;
}

Status SciborqClient::CloseStatement(StatementHandle handle) {
  WireWriter w;
  w.PutI64(handle.id);
  return RoundTrip(Opcode::kCloseStmt, w.buffer()).status();
}

Status SciborqClient::Use(const std::string& table) {
  WireWriter w;
  w.PutString(table);
  return RoundTrip(Opcode::kUse, w.buffer()).status();
}

Status SciborqClient::SetDefaultBounds(const QueryBounds& bounds) {
  WireWriter w;
  EncodeBounds(bounds, &w);
  return RoundTrip(Opcode::kSetBounds, w.buffer()).status();
}

Result<std::vector<TableInfo>> SciborqClient::ListTables() {
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload,
                           RoundTrip(Opcode::kCatalog, ""));
  WireReader r(payload);
  // A TableInfo is at least its name, counts and flags: 37 bytes.
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, r.ReadCount(37, "table"));
  std::vector<TableInfo> tables;
  tables.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(TableInfo info, DecodeTableInfo(&r));
    tables.push_back(std::move(info));
  }
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return tables;
}

Status SciborqClient::CreateTable(const std::string& name, const Schema& schema,
                                  uint64_t seed) {
  return CreateTable(name, schema, RetentionPolicy(), seed);
}

Status SciborqClient::CreateTable(const std::string& name, const Schema& schema,
                                  const RetentionPolicy& retention,
                                  uint64_t seed) {
  WireWriter w;
  w.PutString(name);
  EncodeSchema(schema, &w);
  w.PutU64(seed);
  EncodeRetentionPolicy(retention, &w);
  return RoundTrip(Opcode::kCreateTable, w.buffer()).status();
}

Status SciborqClient::DropTable(const std::string& table) {
  WireWriter w;
  w.PutString(table);
  return RoundTrip(Opcode::kDropTable, w.buffer()).status();
}

Result<int64_t> SciborqClient::Ingest(const std::string& table,
                                      const Table& batch) {
  WireWriter w;
  w.PutString(table);
  EncodeTable(batch, &w);
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload,
                           RoundTrip(Opcode::kIngest, w.buffer()));
  WireReader r(payload);
  SCIBORQ_ASSIGN_OR_RETURN(const int64_t rows, r.ReadI64());
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return rows;
}

Result<int64_t> SciborqClient::Checkpoint(const std::string& table) {
  WireWriter w;
  w.PutString(table);
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload,
                           RoundTrip(Opcode::kCheckpoint, w.buffer()));
  WireReader r(payload);
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t count, r.ReadU32());
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return static_cast<int64_t>(count);
}

Status SciborqClient::Ping() { return RoundTrip(Opcode::kPing, "").status(); }

Result<std::vector<obs::StatSample>> SciborqClient::ServerStats() {
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload,
                           RoundTrip(Opcode::kStats, ""));
  WireReader r(payload);
  SCIBORQ_ASSIGN_OR_RETURN(std::vector<obs::StatSample> samples,
                           DecodeStatSamples(&r));
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return samples;
}

Result<std::vector<obs::SlowQueryEntry>> SciborqClient::SlowQueries() {
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload,
                           RoundTrip(Opcode::kSlowLog, ""));
  WireReader r(payload);
  SCIBORQ_ASSIGN_OR_RETURN(std::vector<obs::SlowQueryEntry> entries,
                           DecodeSlowQueries(&r));
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return entries;
}

}  // namespace sciborq
