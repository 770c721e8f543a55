#include "harness.h"


#include <algorithm>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
  correct = false;
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void EndToEnd::AddTo(RunResult* r) const {
  r->Add("setup_s", setup_s, "s");
  r->Add("qps", qps, "1/s");
  r->Add("query_p50_ms", query_p50_ms, "ms");
  r->Add("query_p99_ms", query_p99_ms, "ms");
  r->Add("bound_met_frac", bound_met_frac, "ratio");
  r->Add("peak_rss_mb", peak_rss_mb, "MB");
  r->Add("ci_coverage", ci_coverage, "ratio");
  r->Add("ingest_p50_ms", ingest_p50_ms, "ms");
  r->Add("ingest_p95_ms", ingest_p95_ms, "ms");
  r->Add("disk_bytes_per_row", disk_bytes_per_row, "B/row");
  r->Add("recover_s", recover_s, "s");
}

void PerLayer::AddTo(RunResult* r) const {
  r->Add("exec.parse_us", exec_parse_us, "us");
  r->Add("exec.base_scan_ns_per_row", exec_base_scan_ns_per_row, "ns/row");
  r->Add("column.morsels_skipped_per_scan", column_morsels_skipped_per_scan,
         "count/scan");
  r->Add("api.engine_self_us", api_engine_self_us, "us");
  r->Add("api.overlap_wait_ratio", api_overlap_wait_ratio, "ratio");
  r->Add("core.attempts_per_query", core_attempts_per_query, "count/query");
  r->Add("core.useful_attempt_frac", core_useful_attempt_frac, "ratio");
  r->Add("core.impression_answer_frac", core_impression_answer_frac, "ratio");
  r->Add("core.impression_scan_ns_per_row", core_impression_scan_ns_per_row,
         "ns/row");
  r->Add("core.rel_err_p50", core_rel_err_p50, "ratio");
  r->Add("core.hierarchy_ingest_us_per_krow",
         core_hierarchy_ingest_us_per_krow, "us/krow");
  r->Add("storage.wal_fsync_ms_p50", storage_wal_fsync_ms_p50, "ms");
  r->Add("storage.checkpoint_ms_p50", storage_checkpoint_ms_p50, "ms");
  r->Add("storage.checkpoints", storage_checkpoints, "count");
  r->Add("storage.wal_bytes_per_row", storage_wal_bytes_per_row, "B/row");
  r->Add("retention.rows_evicted_per_row", retention_rows_evicted_per_row,
         "ratio");
  r->Add("server.ping_rtt_us", server_ping_rtt_us, "us");
  r->Add("server.wire_self_us", server_wire_self_us, "us");
  r->Add("server.bytes_out_per_query", server_bytes_out_per_query, "B/query");
  r->Add("coord.shard_rtt_us_p50", coord_shard_rtt_us_p50, "us");
  r->Add("coord.merge_us", coord_merge_us, "us");
  r->Add("coord.fanout_self_us", coord_fanout_self_us, "us");
  r->Add("workload.side_effect_us", workload_side_effect_us, "us");
  r->Add("obs.trace_overhead_frac", obs_trace_overhead_frac, "ratio");
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    std::exit(2);
  }
}

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

int RecoverProbe(const std::string& dir, int cpu) {
  // Dies with the run that spawned it, however that run ends.
  (void)prctl(PR_SET_PDEATHSIG, SIGKILL);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);  // best effort
  const double t0 = Now();
  sciborq::Result<std::unique_ptr<sciborq::Engine>> engine =
      sciborq::Engine::Open(dir);
  const double seconds = Now() - t0;
  if (!engine.ok()) {
    std::fprintf(stderr, "recover-probe %s: %s\n", dir.c_str(),
                 engine.status().ToString().c_str());
    return 1;
  }
  std::printf("%.9f\n", seconds);
  return 0;
}

std::vector<double> TimeRecoveries(const std::string& dir, int runs,
                                   RunResult* result) {
  std::vector<double> seconds;
  std::vector<char> self(4096);
  const ssize_t len = readlink("/proc/self/exe", self.data(), self.size() - 1);
  if (len <= 0) {
    result->Fail("recover: cannot locate this binary");
    return seconds;
  }
  self[static_cast<size_t>(len)] = '\0';
  // The CPUs this process may run on; probe k is pinned to the k-th, round
  // robin, so the fastest open is taken over every CPU the host lends.
  std::vector<int> cpus;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  for (int k = 0; k < runs; ++k) {
    int fds[2];
    if (pipe(fds) != 0) {
      result->Fail("recover: pipe failed");
      return seconds;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::string flag = "--recover-probe";
    std::string path = dir;
    std::string cpu = std::to_string(cpus[static_cast<size_t>(k) % cpus.size()]);
    char* argv[] = {self.data(), flag.data(), path.data(), cpu.data(), nullptr};
    pid_t pid = -1;
    const int spawned =
        posix_spawn(&pid, self.data(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char buf[256];
    for (ssize_t n; spawned == 0 && (n = read(fds[0], buf, sizeof(buf))) != 0;) {
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      out.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      result->Fail("recover: probe process failed on " + dir);
      return seconds;
    }
    seconds.push_back(std::strtod(out.c_str(), nullptr));
  }
  return seconds;
}

uint64_t FoldDigest(uint64_t digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 1099511628211ull;
  }
  return digest;
}

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t FoldString(uint64_t digest, const std::string& s) {
  for (const char c : s) digest = FoldDigest(digest, static_cast<uint8_t>(c));
  return FoldDigest(digest, s.size());
}

}  // namespace

uint64_t AnswerDigest(const sciborq::QueryOutcome& outcome) {
  uint64_t d = 1469598103934665603ull;
  d = FoldString(d, outcome.answered_by);
  d = FoldDigest(d, (outcome.exact ? 1u : 0u) |
                        (outcome.error_bound_met ? 2u : 0u) |
                        (outcome.partial ? 4u : 0u));
  for (const sciborq::QueryResultRow& row : outcome.rows) {
    d = FoldString(d, row.group_key.ToString());
    d = FoldDigest(d, static_cast<uint64_t>(row.input_rows));
    for (const double v : row.values) d = FoldDigest(d, DoubleBits(v));
  }
  for (const auto& row : outcome.estimates) {
    for (const sciborq::AggregateEstimate& e : row) {
      d = FoldDigest(d, DoubleBits(e.estimate));
      d = FoldDigest(d, DoubleBits(e.ci_lo));
      d = FoldDigest(d, DoubleBits(e.ci_hi));
    }
  }
  return d;
}

bool Covers(const sciborq::AggregateEstimate& e, double truth) {
  const double slack = 1e-9 * std::max(1.0, std::fabs(truth));
  return e.ci_lo - slack <= truth && truth <= e.ci_hi + slack;
}

Scrape ScrapeRegistry() { return sciborq::obs::DefaultRegistry()->Samples(); }

double SeriesTotal(const Scrape& scrape, const std::string& name) {
  double total = 0.0;
  for (const auto& s : scrape) {
    if (s.name == name) total += s.value;
  }
  return total;
}

namespace {

/// Cumulative bucket counts of a histogram family, summed over label sets,
/// keyed by upper bound (+inf for the overflow bucket).
std::map<double, double> CumulativeBuckets(const Scrape& scrape,
                                           const std::string& family) {
  std::map<double, double> buckets;
  const std::string name = family + "_bucket";
  for (const auto& s : scrape) {
    if (s.name != name) continue;
    // The `le` label, not the tail of another key such as `table`.
    size_t at = s.labels.find("{le=\"");
    if (at == std::string::npos) at = s.labels.find(",le=\"");
    if (at == std::string::npos) continue;
    at += 5;
    const std::string le = s.labels.substr(at, s.labels.find('"', at) - at);
    const double bound =
        le == "+Inf" ? INFINITY : std::strtod(le.c_str(), nullptr);
    buckets[bound] += s.value;
  }
  return buckets;
}

}  // namespace

double HistogramDeltaQuantile(const Scrape& before, const Scrape& after,
                              const std::string& family, double q) {
  const std::map<double, double> b = CumulativeBuckets(before, family);
  const std::map<double, double> a = CumulativeBuckets(after, family);
  std::vector<std::pair<double, double>> delta;  // (upper bound, cumulative)
  for (const auto& [bound, count] : a) {
    const auto it = b.find(bound);
    delta.emplace_back(bound, count - (it == b.end() ? 0.0 : it->second));
  }
  if (delta.empty() || delta.back().second <= 0.0) return 0.0;
  const double target = q * delta.back().second;
  double prev_bound = 0.0;
  double prev_count = 0.0;
  for (const auto& [bound, count] : delta) {
    if (count >= target && count > prev_count) {
      if (std::isinf(bound)) return prev_bound;
      return prev_bound + (bound - prev_bound) * (target - prev_count) /
                              (count - prev_count);
    }
    prev_bound = bound;
    prev_count = count;
  }
  return prev_bound;
}

SpanLog::Buffer* SpanLog::NewBuffer() {
  buffers_.push_back(std::unique_ptr<Buffer>(new Buffer()));
  return buffers_.back().get();
}

size_t SpanLog::size() const {
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans().size();
  return n;
}

void SpanLog::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      std::fprintf(out,
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_s\": %.9f, \"duration_s\": "
                   "%.9f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name.c_str(),
                   s.start, s.duration);
    }
  }
  std::fclose(out);
}

void ClosedLoop(int clients, double seconds,
                const std::function<void(int)>& step) {
  const double end = Now() + seconds;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([c, end, &step] {
      while (Now() < end) step(c);
    });
  }
  for (std::thread& t : threads) t.join();
}

std::vector<bool> BlockModes(bool trace) {
  std::vector<bool> modes;
  for (int b = 0; b < kBlocks; ++b) modes.push_back(trace && b % 2 == 1);
  return modes;
}

LoopFigures MedianOfBlocks(const std::vector<Tally>& tallies,
                           const std::vector<bool>& modes,
                           double block_seconds) {
  std::vector<std::vector<double>> latencies(modes.size());
  for (const Tally& t : tallies) {
    for (const QuerySample& s : t.samples) {
      if (s.ok && !s.traced) latencies[static_cast<size_t>(s.block)].push_back(s.latency);
    }
  }
  std::vector<double> qps, p50, p99;
  LoopFigures f;
  for (size_t b = 0; b < modes.size(); ++b) {
    if (modes[b]) continue;
    f.samples += latencies[b].size();
    qps.push_back(static_cast<double>(latencies[b].size()) / block_seconds);
    p50.push_back(Quantile(latencies[b], 0.50));
    p99.push_back(Quantile(latencies[b], 0.99));
  }
  f.qps = Median(qps);
  f.p50_s = Median(p50);
  f.p99_s = Median(p99);
  return f;
}

void Tally::AddOutcome(const sciborq::QueryOutcome& outcome,
                       double engine_seconds) {
  ++traced_queries;
  double attempt_seconds = 0.0;
  for (const sciborq::LayerAttempt& a : outcome.attempts) {
    ++attempts;
    attempt_seconds += a.elapsed_seconds;
    if (a.met_error_bound) ++accepted_attempts;
    if (a.layer_rows <= 0) continue;
    const double ns_per_row =
        a.elapsed_seconds * 1e9 / static_cast<double>(a.layer_rows);
    if (a.is_base) {
      ++base_attempts;
      base_ns_per_row.push_back(ns_per_row);
    } else {
      impression_ns_per_row.push_back(ns_per_row);
    }
  }
  if (!outcome.exact) ++impression_answers;
  for (const sciborq::PhaseSpan& span : outcome.spans) {
    const std::string& n = span.name;
    if (n == "workload" ||
        (n.size() > 9 && n.compare(n.size() - 9, 9, "/workload") == 0)) {
      side_effect_s.push_back(span.duration_seconds);
    }
  }
  engine_self_s.push_back(engine_seconds - attempt_seconds);
}

void Tally::Merge(const Tally& other) {
  traced_queries += other.traced_queries;
  attempts += other.attempts;
  accepted_attempts += other.accepted_attempts;
  base_attempts += other.base_attempts;
  impression_answers += other.impression_answers;
  for (auto [dst, src] :
       {std::pair{&parse_s, &other.parse_s},
        std::pair{&engine_self_s, &other.engine_self_s},
        std::pair{&base_ns_per_row, &other.base_ns_per_row},
        std::pair{&impression_ns_per_row, &other.impression_ns_per_row},
        std::pair{&side_effect_s, &other.side_effect_s},
        std::pair{&wire_self_s, &other.wire_self_s},
        std::pair{&fanout_self_s, &other.fanout_self_s}}) {
    dst->insert(dst->end(), src->begin(), src->end());
  }
}

double BlockQps(const std::vector<Tally>& tallies, bool traced,
                double block_seconds, int blocks_of_mode) {
  int64_t ok = 0;
  for (const Tally& t : tallies) {
    for (const QuerySample& s : t.samples) {
      if (s.ok && s.traced == traced) ++ok;
    }
  }
  const double seconds = block_seconds * blocks_of_mode;
  return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
}

void PrintMachineRecord(const Args& args) {
  std::printf(
      "machine: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "compiler=%s build_type=%s source=%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.source_id.c_str());
}

void PrintResult(const RunResult& result) {
  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    char value[64];  // Add() keeps every value finite
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
