/// serve_mixed: `iuad_main serve --port 0 --wal-dir DIR` in its default
/// topology, started from a saved snapshot, driven from this process over
/// the NDJSON wire API. Open loop: one writer connection sends pipelined
/// single-paper `ingest` requests on a fixed schedule well under the
/// topology's capacity, and one reader connection sends Zipf-skewed
/// `query_authors` / `query_publications` at a fixed rate beside it.
/// Latency runs from each request's due time to its response, so a stall
/// also charges the requests queued behind it. api, wal and the serve
/// publish/read views carry the work; refresh shows only as commit tail.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>
#include <unordered_map>

#include "api/codec.h"
#include "api/messages.h"
#include "core/pipeline.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "io/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Traffic rates; README.md gives the basis of each (the read rate and mix
// are partly unverified assumptions).
constexpr double kIngestPerS = 50.0;
constexpr double kQueriesPerS = 200.0;
constexpr double kReplyTimeoutS = 30.0;

/// One spawned `iuad_main serve`; the destructor terminates and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Spawns the server and waits until it reports its port.
  bool Start(const std::string& binary, const std::vector<std::string>& argv) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> cargv;
      for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
      cargv.push_back(nullptr);
      execv(binary.c_str(), cargv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    // "query API listening on port N ..." announces readiness.
    std::string buffer;
    char chunk[512];
    const double deadline = Now() + kReplyTimeoutS;
    while (port_ <= 0 && Now() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 200) <= 0) continue;
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      const size_t at = buffer.find("listening on port ");
      if (at != std::string::npos &&
          buffer.find(' ', at + 18) != std::string::npos) {
        port_ = std::atoi(buffer.c_str() + at + 18);
      }
    }
    if (port_ <= 0) return false;
    // Keep draining the server's stdout so it never blocks on a full pipe.
    drain_ = std::thread([fd = out_fd_] {
      char sink[512];
      while (read(fd, sink, sizeof(sink)) > 0) {
      }
    });
    return true;
  }

  /// SIGTERM (graceful drain), then SIGKILL after a grace period; reaps.
  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const double deadline = Now() + 20.0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (Now() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (drain_.joinable()) drain_.join();
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::thread drain_;
};

/// One NDJSON client connection.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }

  bool Open(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool Send(const std::string& line) {
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next response line (without '\n'); false on EOF or timeout.
  bool ReadLine(std::string* line) {
    const double deadline = Now() + kReplyTimeoutS;
    while (true) {
      const size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      const double left = deadline - Now();
      if (left <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left * 1e3) + 1) <= 0) return false;
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Synchronous request/response round trip.
  iuad::Result<api::Response> Call(const api::Request& request) {
    if (!Send(api::EncodeRequest(request) + "\n")) {
      return iuad::Status::IoError("send failed");
    }
    std::string line;
    if (!ReadLine(&line)) return iuad::Status::IoError("no response");
    return api::DecodeResponse(line);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t scanned_ = 0;
};

void SleepUntil(double t) {
  const double left = t - Now();
  if (left > 0) std::this_thread::sleep_for(std::chrono::duration<double>(left));
}

/// The open-loop schedule of one connection: pre-encoded request lines
/// sent at fixed due times, and the responses' arrival times.
struct Schedule {
  std::vector<std::string> lines;
  std::vector<double> due;
  std::vector<const char*> span;   ///< Trace span name per request.
  int tid = 0;                     ///< Trace track of the connection.
  std::vector<double> sent;
  std::vector<double> acked;       ///< 0 when no response arrived.
  std::vector<std::string> reply;  ///< Raw response line per request.
};

/// Sends every line at its due time from this thread while a second
/// thread collects the responses, in order, as they arrive, and records
/// each request's span (due time -> response) as its response arrives.
void RunOpenLoop(Connection* conn, Schedule* s, Tracer* tracer) {
  const size_t n = s->lines.size();
  s->sent.assign(n, 0.0);
  s->acked.assign(n, 0.0);
  s->reply.assign(n, std::string());
  std::thread receiver([conn, s, n, tracer] {
    std::string line;
    for (size_t i = 0; i < n; ++i) {
      if (!conn->ReadLine(&line)) return;
      s->acked[i] = Now();
      s->reply[i] = std::move(line);
      tracer->Span(s->span[i], s->due[i], s->acked[i],
                   static_cast<int64_t>(i), s->tid);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    SleepUntil(s->due[i]);
    s->sent[i] = Now();
    if (!conn->Send(s->lines[i])) break;
  }
  receiver.join();
}

/// Pair confusion of the server's final state, read back over the wire:
/// each test name's vertices and their publication lists give the
/// predicted clustering of the name's papers in `db` (the oracle's copy of
/// the same post-ingestion corpus, so paper ids agree).
eval::PairCounts ServerPairs(Connection* conn, const data::PaperDatabase& db,
                             const std::vector<std::string>& names,
                             int64_t* failed) {
  eval::PairCounts total;
  int64_t id = 1 << 30;
  for (const auto& name : names) {
    api::Request q;
    q.id = ++id;
    q.op = api::Op::kQueryAuthors;
    q.query_authors.name = name;
    auto authors = conn->Call(q);
    if (!authors.ok() || !authors->status.ok()) {
      ++*failed;
      continue;
    }
    std::unordered_map<int, int> label_of_paper;
    for (const auto& a : authors->authors) {
      api::Request p;
      p.id = ++id;
      p.op = api::Op::kQueryPublications;
      p.query_publications.vertex = a.vertex;
      auto pubs = conn->Call(p);
      if (!pubs.ok() || !pubs->status.ok()) {
        ++*failed;
        continue;
      }
      for (int pid : pubs->paper_ids) label_of_paper[pid] = a.vertex;
    }
    const std::vector<int>& papers = db.PapersWithName(name);
    std::vector<int> pred(papers.size());
    for (size_t i = 0; i < papers.size(); ++i) {
      auto it = label_of_paper.find(papers[i]);
      // An unattributed paper is its own cluster.
      pred[i] = it != label_of_paper.end() ? it->second
                                           : -2 - static_cast<int>(i);
    }
    total.Add(eval::PairwiseCounts(pred, eval::TrueLabelsForName(db, name)));
  }
  return total;
}

}  // namespace

int RunServeMixed(const Args& args, Tracer* tracer, Report* report) {
  const bool tiny = args.scale == Scale::kTiny;
  const int papers = tiny ? 1500 : 12000;
  const int num_corpora = tiny ? 2 : 4;
  const double ingest_rate = kIngestPerS;
  const double query_rate = kQueriesPerS;
  // The measured time is split evenly over the corpora, one server each.
  const double segment_s = args.seconds / num_corpora;
  const int stream_size =
      std::max(1, static_cast<int>(std::lround(ingest_rate * segment_s)));
  const int num_queries =
      std::max(1, static_cast<int>(std::lround(query_rate * segment_s)));
  const int fit_threads = 2;
  report->Note("corpora", num_corpora);
  report->Note("corpus_papers", papers);
  report->Note("stream_papers", stream_size);
  report->Note("ingest_per_s", ingest_rate);
  report->Note("queries_per_s", query_rate);
  report->Note("fit_threads", fit_threads);
  report->Note("client_connections", 2);
  if (args.iuad_main.empty()) {
    std::fprintf(stderr, "serve_mixed needs --iuad-main\n");
    return 1;
  }

  // Set-up per corpus: generate, fit, save snapshot + corpus for the
  // server (which is started, also as set-up, right before its segment).
  struct Input {
    data::PaperDatabase history;
    std::vector<data::Paper> stream;
    std::vector<std::string> names;
    std::string snapshot, tsv;
    double setup_s = 0;
  };
  std::vector<Input> inputs(num_corpora);
  std::vector<double> gen_s, save_s;
  FitTotals fits;
  for (int c = 0; c < num_corpora; ++c) {
    Input& in = inputs[c];
    const double t0 = Now();
    data::Corpus corpus = MakeCorpus(CorpusSeed(args.seed, c), papers);
    auto split = corpus.db.HoldOutLatest(stream_size);
    in.history = std::move(split.first);
    in.stream = std::move(split.second);
    const double t1 = Now();
    auto fitted = core::IuadPipeline(FitConfig(fit_threads)).Run(in.history);
    if (!fitted.ok()) {
      std::fprintf(stderr, "fit failed: %s\n",
                   fitted.status().ToString().c_str());
      return 1;
    }
    const double t2 = Now();
    in.snapshot = args.work_dir + "/serve_mixed-" + std::to_string(c) + ".snap";
    in.tsv = args.work_dir + "/serve_mixed-" + std::to_string(c) + ".tsv";
    iuad::Status st = io::SaveSnapshot(in.snapshot, in.history, *fitted,
                                       FitConfig(fit_threads));
    if (st.ok()) st = in.history.SaveTsv(in.tsv);
    const double t3 = Now();
    if (!st.ok()) {
      std::fprintf(stderr, "saving inputs failed: %s\n", st.ToString().c_str());
      return 1;
    }
    in.setup_s = t3 - t0;
    gen_s.push_back(t1 - t0);
    save_s.push_back(t3 - t2);
    tracer->Span("data.generate", t0, t1, c);
    tracer->Span("core.fit", t1, t2, c);
    tracer->Span("io.snapshot_save", t2, t3, c);
    fits.Add(*fitted, true);
    in.names = corpus.TestNames();
  }
  report->Set("data.generate_s", Median(gen_s), "s");
  report->Set("io.snapshot_save_s", Median(save_s), "s");
  fits.Report(report);

  std::vector<double> commit_ms, query_us, late_ms;
  std::vector<double> load_s, setup_s, growth_kb;
  double measured_s = 0, trace_s = 0;
  std::vector<OracleRun> oracles;
  int refresh_interval = 1;
  double peak_rss = 0, steal_s = 0, invol = 0;
  eval::PairCounts pairs;
  GraphTotals graphs;
  ServingTotals serving;
  const std::string wal_dir = args.work_dir + "/serve_mixed-wal";
  for (int c = 0; c < num_corpora; ++c) {
    Input& in = inputs[c];
    // The oracle, in-process over the same snapshot and stream; its final
    // database is the server's, paper id for paper id.
    data::PaperDatabase final_db = in.history;
    std::vector<std::pair<std::string, std::vector<graph::VertexId>>> targets;
    {
      const double l0 = Now();
      auto loaded = io::LoadSnapshot(in.snapshot, final_db);
      if (!loaded.ok()) return 1;
      load_s.push_back(Now() - l0);
      // Query targets: names ranked by their papers in the history, with
      // the vertices bearing each name at fit time (ingestion never kills
      // a vertex, so every query has a non-empty answer).
      std::unordered_map<std::string, std::vector<graph::VertexId>> by_name;
      const graph::CollabGraph& g = loaded->result.graph;
      for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
        if (g.alive(v)) by_name[std::string(g.NameOf(v))].push_back(v);
      }
      for (auto& [name, vs] : by_name) targets.emplace_back(name, vs);
      std::sort(targets.begin(), targets.end(),
                [&](const auto& a, const auto& b) {
                  const size_t pa = in.history.PapersWithName(a.first).size();
                  const size_t pb = in.history.PapersWithName(b.first).size();
                  return pa != pb ? pa > pb : a.first < b.first;
                });
      refresh_interval = loaded->config.incremental_refresh_interval;
      const double t0 = Now();
      oracles.push_back(
          RunOracle(&final_db, &loaded->result, loaded->config, in.stream));
      tracer->Span("incremental.oracle", t0, Now(), c);
      graphs.Add(loaded->result.graph);
    }
    OracleRun& oracle = oracles.back();
    if (args.corrupt_oracle && c == 0) {
      oracle.digests[oracle.digests.size() / 2] += "!";
    }

    // Start this corpus's server (set-up).
    const double s0 = Now();
    std::filesystem::remove_all(wal_dir);
    ServerProcess server;
    if (!server.Start(args.iuad_main,
                      {"iuad_main", "serve", in.tsv, "--load-snapshot",
                       in.snapshot, "--port", "0", "--wal-dir", wal_dir})) {
      std::fprintf(stderr, "server did not start\n");
      return 1;
    }
    const double s1 = Now();
    setup_s.push_back(in.setup_s + (s1 - s0));
    tracer->Span("serve.start", s0, s1, c);

    // Open-loop schedules, fixed by the seed.
    const double begin = Now() + 0.2;
    Schedule writes, reads;
    writes.tid = 1;
    reads.tid = 2;
    for (int i = 0; i < stream_size; ++i) {
      api::Request r;
      r.id = i;
      r.op = api::Op::kIngest;
      r.ingest.papers = {in.stream[static_cast<size_t>(i)]};
      writes.lines.push_back(api::EncodeRequest(r) + "\n");
      writes.due.push_back(begin + i / ingest_rate);
      writes.span.push_back("serve.ingest");
    }
    // Reads pick names by rank with the corpus's own name skew.
    std::mt19937_64 rng(CorpusSeed(args.seed, c) * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<double> zipf_cdf(targets.size());
    double acc = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      acc += std::pow(static_cast<double>(i + 1), -kNameZipf);
      zipf_cdf[i] = acc;
    }
    for (int i = 0; i < num_queries; ++i) {
      const double u = std::uniform_real_distribution<double>(0, acc)(rng);
      const size_t rank = static_cast<size_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
          zipf_cdf.begin());
      const auto& target = targets[std::min(rank, targets.size() - 1)];
      api::Request r;
      r.id = i;
      if (i % 2 == 0) {
        r.op = api::Op::kQueryAuthors;
        r.query_authors.name = target.first;
        reads.span.push_back("serve.query_authors");
      } else {
        r.op = api::Op::kQueryPublications;
        r.query_publications.vertex =
            target.second[rng() % target.second.size()];
        reads.span.push_back("serve.query_publications");
      }
      reads.lines.push_back(api::EncodeRequest(r) + "\n");
      reads.due.push_back(begin + i / query_rate);
    }

    Connection writer, reader;
    if (!writer.Open(server.port()) || !reader.Open(server.port())) {
      std::fprintf(stderr, "cannot connect to the server\n");
      return 1;
    }
    const pid_t pid = server.pid();
    const HostSample host0 = ReadHost();
    const int64_t server_invol0 = InvoluntarySwitches(pid);
    const double rss0 = RssKb(pid);
    const double trace0 = tracer->busy_s();
    std::thread read_loop([&] { RunOpenLoop(&reader, &reads, tracer); });
    RunOpenLoop(&writer, &writes, tracer);
    read_loop.join();
    trace_s += tracer->busy_s() - trace0;
    const double rss1 = RssKb(pid);
    const HostSample host1 = ReadHost();
    const int64_t server_invol1 = InvoluntarySwitches(pid);
    const double wall = Now() - begin;
    measured_s += wall;
    steal_s += host1.steal_s - host0.steal_s;
    invol += static_cast<double>(host1.self_invol - host0.self_invol +
                                 server_invol1 - server_invol0);
    growth_kb.push_back((rss1 - rss0) / static_cast<double>(stream_size));

    // Check every response against the oracle.
    for (int i = 0; i < stream_size; ++i) {
      ++report->attempted;
      const size_t k = static_cast<size_t>(i);
      late_ms.push_back((writes.sent[k] - writes.due[k]) * 1e3);
      auto resp = api::DecodeResponse(writes.reply[k]);
      const bool ok = writes.acked[k] > 0 && resp.ok() && resp->status.ok() &&
                      resp->id == i && resp->assignments.size() == 1 &&
                      Digest(resp->assignments[0]) == oracle.digests[k];
      if (!ok) {
        ++report->failed;
        continue;
      }
      commit_ms.push_back((writes.acked[k] - writes.due[k]) * 1e3);
    }
    for (int i = 0; i < num_queries; ++i) {
      ++report->attempted;
      const size_t k = static_cast<size_t>(i);
      late_ms.push_back((reads.sent[k] - reads.due[k]) * 1e3);
      auto resp = api::DecodeResponse(reads.reply[k]);
      const bool ok =
          reads.acked[k] > 0 && resp.ok() && resp->status.ok() &&
          resp->id == i &&
          (i % 2 == 0 ? !resp->authors.empty() : !resp->paper_ids.empty());
      if (!ok) {
        ++report->failed;
        continue;
      }
      query_us.push_back((reads.acked[k] - reads.due[k]) * 1e6);
    }

    // Final state: flush, read it back, scrape the server's counters.
    api::Request flush;
    flush.id = -1;
    flush.op = api::Op::kFlush;
    auto flushed = writer.Call(flush);
    ++report->attempted;
    if (!flushed.ok() || !flushed->status.ok()) ++report->failed;
    int64_t f1_failed = 0;
    pairs.Add(ServerPairs(&reader, final_db, in.names, &f1_failed));
    report->failed += f1_failed;
    api::Request stats_req, metrics_req;
    stats_req.op = api::Op::kStats;
    metrics_req.op = api::Op::kMetrics;
    auto stats = reader.Call(stats_req);
    auto metrics = reader.Call(metrics_req);
    report->attempted += 2;
    if (stats.ok() && stats->status.ok() && metrics.ok() &&
        metrics->status.ok()) {
      serving.Add(metrics->metrics, stats->stats, wall, stream_size);
    } else {
      report->failed += 2;
    }
    peak_rss = std::max(peak_rss, PeakRssMb(pid));
    server.Stop();
    std::filesystem::remove_all(wal_dir);
    std::remove(in.snapshot.c_str());
    std::remove(in.tsv.c_str());
  }
  ReportOracles(oracles, refresh_interval, report);

  report->Set("setup_s", Median(setup_s), "s");
  report->Set("io.snapshot_load_s", Median(load_s), "s");
  // The headline wait is the commit tail: with >= 1,000 commits a run
  // (50/s for 20 s or more), the p99 has ten samples beyond it, and it is
  // where a refresh stall shows.
  // The p50 follows how many same-name candidates a corpus's papers score
  // against (2.5x between corpora), so it stays a per-layer reading.
  report->Set("wait_ms", Percentile(commit_ms, 99), "ms");
  report->Set("loadgen.commit_p50_ms", Percentile(commit_ms, 50), "ms");
  report->Set("loadgen.query_p50_us", Percentile(query_us, 50), "us");
  report->Set("loadgen.query_p99_us", Percentile(query_us, 99), "us");
  report->Set("pairwise_f1", F1(pairs), "ratio");
  report->Set("peak_rss_mb", peak_rss, "MiB");
  report->Set("serve.rss_growth_kb_per_paper", Median(growth_kb), "KiB");
  graphs.Report(report);
  serving.Report(report);
  report->Set("loadgen.late_ms_p99", Percentile(late_ms, 99), "ms");
  report->Set("host.steal_s", steal_s, "s");
  report->Set("host.involuntary_ctx_switches", invol, "count");
  report->Set("obs.bench_trace_overhead_pct", 100.0 * trace_s / measured_s,
              "%");
  return 0;
}

}  // namespace perfbench
