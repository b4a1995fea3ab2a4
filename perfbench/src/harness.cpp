#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

#include "eval/evaluator.h"

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& key, double value) {
  notes_.emplace_back(key, value);
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

namespace {

/// Every per-layer metric, in output order. A traced run prints all of
/// them; a layer that does no work on a workload reads 0 there (the
/// "should not move" rows of perfbench/README.md).
const char* const kPerLayer[][2] = {
    {"data.generate_s", "s"},
    {"text.embed_s", "s"},
    {"core.scn_s", "s"},
    {"core.gcn_s", "s"},
    {"core.scn_relations", "count"},
    {"core.gcn_candidate_pairs", "count"},
    {"em.iterations", "count"},
    {"io.snapshot_save_s", "s"},
    {"io.snapshot_load_s", "s"},
    {"io.snapshot_bytes", "bytes"},
    {"incremental.papers_per_s", "1/s"},
    {"incremental.add_paper_us_p50", "us"},
    {"incremental.refresh_call_ms_p50", "ms"},
    {"shard.refresh_share", "ratio"},
    {"shard.scatter_share", "ratio"},
    {"shard.rescore_share", "ratio"},
    {"shard.apply_share", "ratio"},
    {"shard.publish_share", "ratio"},
    {"shard.enqueue_wait_us_p50", "us"},
    {"shard.refreshes", "count"},
    {"shard.windows", "count"},
    {"shard.occupancy", "papers"},
    {"shard.conflict_stalls", "count"},
    {"shard.speculative_rescores", "count"},
    {"shard.bylines_scored_skew", "ratio"},
    {"serve.commit_latency_us_p99", "us"},
    {"serve.enqueue_wait_us_p99", "us"},
    {"serve.apply_us_p99", "us"},
    {"serve.publish_us_p50", "us"},
    {"serve.rss_growth_kb_per_paper", "KiB"},
    {"api.decode_us_p50", "us"},
    {"api.encode_us_p50", "us"},
    {"api.request_us_p50.query_authors", "us"},
    {"api.request_us_p99.ingest", "us"},
    {"wal.fsyncs", "count"},
    {"wal.bytes_per_paper", "bytes"},
    {"wal.fsync_wait_us_p99", "us"},
    {"graph.bytes_per_author", "bytes"},
    {"graph.alive_vertices", "count"},
    {"graph.edges", "count"},
    {"loadgen.commit_p50_ms", "ms"},
    {"loadgen.query_p50_us", "us"},
    {"loadgen.query_p99_us", "us"},
    {"loadgen.late_ms_p99", "ms"},
    {"host.steal_s", "s"},
    {"host.involuntary_ctx_switches", "count"},
    {"obs.bench_trace_overhead_pct", "%"},
};

}  // namespace

void Report::Print(const std::string& workload, bool per_layer) const {
  std::string info = "{\"perfbench_info\": {\"workload\": \"" + workload +
                     "\", \"nproc\": " +
                     Num(std::thread::hardware_concurrency());
  for (const auto& [key, value] : notes_) {
    info += ", \"" + key + "\": " + Num(value);
  }
  info += "}}";
  std::printf("%s\n", info.c_str());

  std::vector<Entry> shown;
  if (per_layer) {
    for (const auto& [name, unit] : kPerLayer) {
      Entry e{name, 0.0, unit};
      for (const Entry& m : metrics_) {
        if (m.name == name) e = m;
      }
      shown.push_back(e);
    }
  } else {
    for (const Entry& m : metrics_) {
      if (m.name.find('.') == std::string::npos) shown.push_back(m);
    }
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + shown[i].name + "\": {\"value\": " + Num(shown[i].value) +
           ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void Tracer::Span(const std::string& name, double start_s, double end_s,
                  int64_t id, int tid) {
  if (!enabled_) return;
  const double t0 = Now();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({name, start_s, end_s, id, tid});
  busy_s_ += Now() - t0;
}

double Tracer::busy_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_s_;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"traceEvents\":[";
  double origin = 0.0;
  for (const auto& e : events_) {
    if (origin == 0.0 || e.start_s < origin) origin = e.start_s;
  }
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"id\":%lld}}",
                  (e.start_s - origin) * 1e6, (e.end_s - e.start_s) * 1e6,
                  e.tid, static_cast<long long>(e.id));
    out << (i > 0 ? "," : "") << "{\"name\":\"" << e.name << "\"," << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

/// Value of a "Key:   <number>" line in /proc/<pid>/status, or -1.
double StatusField(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::atof(line.c_str() + key.size() + 1);
    }
  }
  return -1.0;
}

}  // namespace

HostSample ReadHost() {
  HostSample s;
  std::ifstream in("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  int64_t fields[8] = {};
  in >> cpu;
  for (int64_t& f : fields) in >> f;
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  s.steal_s = static_cast<double>(fields[7]) / (hz > 0 ? hz : 100.0);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.self_invol = ru.ru_nivcsw;
  return s;
}

int64_t InvoluntarySwitches(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  int64_t total = 0;
  while (dirent* ent = readdir(d)) {
    if (ent->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + ent->d_name + "/status");
    std::string line;
    const std::string key = "nonvoluntary_ctxt_switches:";
    while (std::getline(in, line)) {
      if (line.compare(0, key.size(), key) == 0) {
        total += std::atoll(line.c_str() + key.size());
      }
    }
  }
  closedir(d);
  return total;
}

double PeakRssMb(pid_t pid) {
  const double kb = StatusField(pid, "VmHWM");
  return kb > 0 ? kb / 1024.0 : 0.0;
}

double RssKb(pid_t pid) {
  const double kb = StatusField(pid, "VmRSS");
  return kb > 0 ? kb : 0.0;
}

uint64_t CorpusSeed(uint64_t seed, int i) {
  return seed * 1000003ULL + static_cast<uint64_t>(i);
}

data::Corpus MakeCorpus(uint64_t seed, int papers) {
  data::CorpusConfig cfg;
  const int authors = std::max(400, papers / 5);
  cfg.authors_per_community = 60;
  cfg.num_communities = std::max(4, authors / cfg.authors_per_community);
  cfg.num_papers = papers;
  const double author_scale = static_cast<double>(authors) / 960.0;
  cfg.given_name_pool = static_cast<int>(180 * author_scale);
  cfg.surname_pool = static_cast<int>(140 * author_scale);
  cfg.name_zipf = kNameZipf;
  cfg.seed = seed;
  return data::CorpusGenerator(cfg).Generate();
}

core::IuadConfig FitConfig(int fit_threads) {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 24;
  cfg.word2vec.epochs = 2;
  cfg.num_threads = fit_threads;
  return cfg;
}

std::string Digest(const std::vector<core::IncrementalAssignment>& as) {
  std::string d;
  for (const auto& a : as) {
    d += a.name;
    d += ':';
    d += std::to_string(a.vertex);
    d += a.created_new ? "+n;" : ";";
  }
  return d;
}

eval::PairCounts PairCountsOf(const data::PaperDatabase& db,
                              const core::OccurrenceIndex& occurrences,
                              const std::vector<std::string>& names) {
  eval::PairCounts counts;
  eval::EvaluateOccurrences(db, occurrences, names, &counts);
  return counts;
}

double F1(const eval::PairCounts& counts) {
  return eval::ToMetrics(counts).f1;
}

OracleRun RunOracle(data::PaperDatabase* db, core::DisambiguationResult* result,
                    const core::IuadConfig& config,
                    const std::vector<data::Paper>& stream) {
  OracleRun run;
  run.digests.reserve(stream.size());
  run.call_s.reserve(stream.size());
  core::IncrementalDisambiguator inc(db, result, config);
  const double t0 = Now();
  for (const auto& paper : stream) {
    const double start = Now();
    auto r = inc.AddPaper(paper);
    run.call_s.push_back(Now() - start);
    if (!r.ok()) {
      run.ok = false;
      run.digests.emplace_back("error:" + r.status().ToString());
      continue;
    }
    run.digests.push_back(Digest(*r));
  }
  run.total_s = Now() - t0;
  return run;
}

void ReportOracles(const std::vector<OracleRun>& oracles, int refresh_interval,
                   Report* report) {
  // AddPaper refreshes the similarity caches at the end of every
  // refresh_interval-th call; those calls carry the refresh.
  std::vector<double> plain_us, refresh_ms;
  double papers = 0, seconds = 0;
  for (const OracleRun& oracle : oracles) {
    for (size_t i = 0; i < oracle.call_s.size(); ++i) {
      if ((i + 1) % static_cast<size_t>(refresh_interval) == 0) {
        refresh_ms.push_back(oracle.call_s[i] * 1e3);
      } else {
        plain_us.push_back(oracle.call_s[i] * 1e6);
      }
    }
    papers += static_cast<double>(oracle.call_s.size());
    seconds += oracle.total_s;
  }
  report->Set("incremental.papers_per_s", seconds > 0 ? papers / seconds : 0,
              "1/s");
  report->Set("incremental.add_paper_us_p50", Median(plain_us), "us");
  report->Set("incremental.refresh_call_ms_p50", Median(refresh_ms), "ms");
}

void FitTotals::Add(const core::DisambiguationResult& result,
                    bool count_work) {
  embed_s.push_back(result.embed_seconds);
  scn_s.push_back(result.scn_seconds);
  gcn_s.push_back(result.gcn_seconds);
  if (!count_work) return;
  relations += static_cast<double>(result.scn_stats.num_scrs);
  candidate_pairs += static_cast<double>(result.gcn_stats.candidate_pairs);
  em_iterations += result.gcn_stats.em_iterations;
}

void FitTotals::Report(perfbench::Report* report) const {
  report->Set("text.embed_s", Median(embed_s), "s");
  report->Set("core.scn_s", Median(scn_s), "s");
  report->Set("core.gcn_s", Median(gcn_s), "s");
  report->Set("core.scn_relations", relations, "count");
  report->Set("core.gcn_candidate_pairs", candidate_pairs, "count");
  report->Set("em.iterations", em_iterations, "count");
}

void GraphTotals::Add(const graph::CollabGraph& graph) {
  bytes += static_cast<double>(graph.MemoryBytes());
  alive += graph.num_alive();
  edges += graph.num_edges();
}

void GraphTotals::Report(perfbench::Report* report) const {
  report->Set("graph.bytes_per_author", alive > 0 ? bytes / alive : 0,
              "bytes");
  report->Set("graph.alive_vertices", alive, "count");
  report->Set("graph.edges", edges, "count");
}

namespace {

const obs::HistogramSnapshot* FindHistogram(const obs::RegistrySnapshot& r,
                                            const std::string& name) {
  for (const auto& h : r.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double CounterValue(const obs::RegistrySnapshot& r, const std::string& name) {
  for (const auto& c : r.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

double HistPercentileUs(const obs::RegistrySnapshot& r,
                        const std::string& name, double p) {
  const obs::HistogramSnapshot* h = FindHistogram(r, name);
  return h == nullptr ? 0.0 : h->PercentileUs(p);
}

double HistShare(const obs::RegistrySnapshot& r, const std::string& name,
                 double wall_s) {
  const obs::HistogramSnapshot* h = FindHistogram(r, name);
  if (h == nullptr || wall_s <= 0) return 0.0;
  return static_cast<double>(h->sum_ns) / 1e9 / wall_s;
}

}  // namespace

void ServingTotals::Add(const obs::RegistrySnapshot& r,
                        const serve::ServiceStats& s, double wall,
                        int64_t num_papers) {
  for (const auto& c : r.counters) {
    auto it = std::find_if(registry.counters.begin(), registry.counters.end(),
                           [&](const auto& x) { return x.name == c.name; });
    if (it == registry.counters.end()) {
      registry.counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
  for (const auto& h : r.histograms) {
    auto it =
        std::find_if(registry.histograms.begin(), registry.histograms.end(),
                     [&](const auto& x) { return x.name == h.name; });
    if (it == registry.histograms.end()) {
      registry.histograms.push_back(h);
    } else {
      it->Merge(h);
    }
  }
  stats.pipeline_windows += s.pipeline_windows;
  stats.conflict_stalls += s.conflict_stalls;
  stats.speculative_rescores += s.speculative_rescores;
  occupancy_weight +=
      s.pipeline_occupancy * static_cast<double>(s.pipeline_windows);
  if (stats.shards.size() < s.shards.size()) stats.shards.resize(s.shards.size());
  for (size_t i = 0; i < s.shards.size(); ++i) {
    stats.shards[i].bylines_scored += s.shards[i].bylines_scored;
  }
  wall_s += wall;
  papers += num_papers;
}

void ServingTotals::Report(perfbench::Report* report) const {
  for (const char* stage : {"refresh", "scatter", "rescore", "apply",
                            "publish"}) {
    report->Set(std::string("shard.") + stage + "_share",
                HistShare(registry, std::string(stage) + "_us", wall_s),
                "ratio");
  }
  report->Set("shard.enqueue_wait_us_p50",
              HistPercentileUs(registry, "enqueue_wait_us", 50), "us");
  report->Set("shard.refreshes", CounterValue(registry, "refreshes"),
              "count");
  report->Set("shard.windows", static_cast<double>(stats.pipeline_windows),
              "count");
  report->Set("shard.occupancy",
              stats.pipeline_windows > 0
                  ? occupancy_weight /
                        static_cast<double>(stats.pipeline_windows)
                  : 0.0,
              "papers");
  report->Set("shard.conflict_stalls",
              static_cast<double>(stats.conflict_stalls), "count");
  report->Set("shard.speculative_rescores",
              static_cast<double>(stats.speculative_rescores), "count");
  double max_scored = 0, sum_scored = 0;
  for (const auto& s : stats.shards) {
    max_scored = std::max(max_scored, static_cast<double>(s.bylines_scored));
    sum_scored += static_cast<double>(s.bylines_scored);
  }
  report->Set("shard.bylines_scored_skew",
              sum_scored > 0
                  ? max_scored * static_cast<double>(stats.shards.size()) /
                        sum_scored
                  : 0.0,
              "ratio");

  report->Set("serve.commit_latency_us_p99",
              HistPercentileUs(registry, "commit_latency_us", 99), "us");
  report->Set("serve.enqueue_wait_us_p99",
              HistPercentileUs(registry, "enqueue_wait_us", 99), "us");
  report->Set("serve.apply_us_p99",
              HistPercentileUs(registry, "apply_us", 99), "us");
  report->Set("serve.publish_us_p50",
              HistPercentileUs(registry, "publish_us", 50), "us");

  report->Set("api.decode_us_p50", HistPercentileUs(registry, "decode_us", 50),
              "us");
  report->Set("api.encode_us_p50", HistPercentileUs(registry, "encode_us", 50),
              "us");
  report->Set("api.request_us_p50.query_authors",
              HistPercentileUs(registry, "request_us_query_authors", 50), "us");
  report->Set("api.request_us_p99.ingest",
              HistPercentileUs(registry, "request_us_ingest", 99), "us");

  report->Set("wal.fsyncs", CounterValue(registry, "wal_fsyncs"), "count");
  report->Set("wal.bytes_per_paper",
              papers > 0 ? CounterValue(registry, "wal_bytes") /
                               static_cast<double>(papers)
                         : 0.0,
              "bytes");
  report->Set("wal.fsync_wait_us_p99",
              HistPercentileUs(registry, "wal_fsync_wait_us", 99), "us");
}

double FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<double>(in.tellg()) : 0.0;
}

}  // namespace perfbench
