#ifndef IUAD_PERFBENCH_HARNESS_H_
#define IUAD_PERFBENCH_HARNESS_H_

/// Shared pieces of the repository benchmark: arguments, the metric
/// report, exact-sample percentiles, benchmark-side trace spans, host-noise
/// readings, and the corpus/config every workload builds from its seed.
///
/// The benchmark times the program only from outside, through public
/// calls; it keeps its own corpus settings so that bench harness changes
/// elsewhere in the repository never move its numbers.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

#include "core/config.h"
#include "core/incremental.h"
#include "core/occurrence_index.h"
#include "core/pipeline.h"
#include "data/corpus_generator.h"
#include "data/paper_database.h"
#include "eval/metrics.h"
#include "graph/collab_graph.h"
#include "obs/metrics.h"
#include "serve/frontend.h"

namespace perfbench {

using namespace iuad;

/// Workload sizes. `kFull` is what the benchmark measures; `kTiny` is the
/// smoke-test size that exercises every code path in about a second.
enum class Scale { kFull, kTiny };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Directory for scratch files (snapshots, WAL, traces); created if absent.
  std::string work_dir = ".bench_build/run";
  /// The iuad_main binary serve_mixed spawns.
  std::string iuad_main;
  /// Test hook: flip one oracle digest so the oracle check must fail.
  bool corrupt_oracle = false;
};

/// Monotonic seconds since an arbitrary origin.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The run's printed result: named metrics with units, in insertion order,
/// plus the operation counts and configuration notes. End-to-end metric
/// names carry no dot; per-layer names are "<layer>.<metric>".
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Free-form run configuration (thread/shard/connection counts, sizes),
  /// printed on an info line before the result line.
  void Note(const std::string& key, double value);

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  /// Prints the info line, then the one-line JSON result (last line) with
  /// the per-layer metrics when `per_layer`, else the end-to-end ones.
  void Print(const std::string& workload, bool per_layer) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, double>> notes_;
};

/// Exact nearest-rank percentile over raw samples (not bucketed).
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// Benchmark-side trace spans (Chrome trace-event "X" events), kept in
/// memory and written once at exit. Spans of one paper or request share
/// `id` (args.id). Thread-safe; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records [start_s, end_s] (Now() seconds) under `name` on track `tid`.
  void Span(const std::string& name, double start_s, double end_s,
            int64_t id = -1, int tid = 0);
  /// Seconds spent inside Span() so far, summed over threads: what
  /// tracing adds to a traced run over an untraced one.
  double busy_s() const;
  /// Writes {"traceEvents": [...]}; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    double start_s;
    double end_s;
    int64_t id;
    int tid;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  double busy_s_ = 0.0;
};

/// Host-noise counters, read at the start and end of the measured phase.
struct HostSample {
  double steal_s = 0.0;      ///< Machine-wide steal time (/proc/stat).
  int64_t self_invol = 0;    ///< This process's involuntary switches.
};
HostSample ReadHost();
/// Involuntary context switches summed over every thread of `pid`.
int64_t InvoluntarySwitches(pid_t pid);
/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// Current resident set (VmRSS) of `pid` in KiB; 0 when unreadable.
double RssKb(pid_t pid);

/// Every run measures several independent corpora, the i-th generated
/// from CorpusSeed(seed, i): one Zipf-skewed corpus decides by itself
/// whether a heavy homonym block is active in the stream, which moved the
/// scoring work of one corpus by up to 17x between seeds.
uint64_t CorpusSeed(uint64_t seed, int i);

/// Zipf exponent of the corpus's name mix (the repository's bench corpus);
/// serve_mixed skews its reads by the same exponent.
constexpr double kNameZipf = 0.7;

/// Corpus of `papers` papers with the Zipf(kNameZipf) name mix: DBLP-like
/// author density (~5 papers per author) with name pools proportional to
/// the author population.
data::Corpus MakeCorpus(uint64_t seed, int papers);

/// The fitted model's configuration: paper defaults, small embeddings,
/// `fit_threads` threads for the batch fit.
core::IuadConfig FitConfig(int fit_threads);

/// Order-sensitive digest of one paper's assignments: name, vertex and
/// created_new per byline (the DESIGN.md §6 identity the serving paths
/// must reproduce).
std::string Digest(const std::vector<core::IncrementalAssignment>& as);

/// Pair confusion over `names` of a final attribution; runs pool these
/// across corpora and report one micro F1.
eval::PairCounts PairCountsOf(const data::PaperDatabase& db,
                              const core::OccurrenceIndex& occurrences,
                              const std::vector<std::string>& names);
double F1(const eval::PairCounts& counts);

/// Sequential AddPaper over `stream`: the byte-identity oracle and the
/// single-threaded baseline. Fills per-paper digests and call times.
struct OracleRun {
  std::vector<std::string> digests;
  std::vector<double> call_s;  ///< Wall time of each AddPaper call.
  double total_s = 0.0;
  bool ok = true;
};
OracleRun RunOracle(data::PaperDatabase* db, core::DisambiguationResult* result,
                    const core::IuadConfig& config,
                    const std::vector<data::Paper>& stream);
/// Oracle per-layer metrics over all corpora: papers/s, AddPaper p50 away
/// from refresh boundaries, and the refresh-crossing call p50.
void ReportOracles(const std::vector<OracleRun>& oracles, int refresh_interval,
                   Report* report);

/// Fit-layer readings: per-corpus stage seconds (medians over every fit
/// taken) and work counts summed over the corpora.
struct FitTotals {
  std::vector<double> embed_s, scn_s, gcn_s;
  double relations = 0, candidate_pairs = 0, em_iterations = 0;
  /// Adds one fit; `count_work` adds its counts (once per corpus).
  void Add(const core::DisambiguationResult& result, bool count_work);
  void Report(perfbench::Report* report) const;
};

/// Graph-layer readings summed over the corpora's final graphs.
struct GraphTotals {
  double bytes = 0, alive = 0, edges = 0;
  void Add(const graph::CollabGraph& graph);
  void Report(perfbench::Report* report) const;
};

/// Serving-layer readings merged over the corpora's frontends: registry
/// stage sums as a share of the measured wall time, pipeline counters,
/// per-shard skew, and the topology-agnostic serve.*, api.* and wal.*
/// instruments. Instruments a topology does not export read 0.
struct ServingTotals {
  obs::RegistrySnapshot registry;
  serve::ServiceStats stats;
  double occupancy_weight = 0;  ///< Sum of occupancy x windows.
  double wall_s = 0;
  int64_t papers = 0;
  void Add(const obs::RegistrySnapshot& r, const serve::ServiceStats& s,
           double wall, int64_t num_papers);
  void Report(perfbench::Report* report) const;
};

/// Size of a file in bytes (0 when unreadable).
double FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // IUAD_PERFBENCH_HARNESS_H_
