/// stream_catchup: closed-loop backlog catch-up. Each corpus of the 12k
/// tier is fitted with its latest papers held out; one producer
/// SubmitBatch-es the whole held-out stream into a ShardRouter (4 shards,
/// pipeline depth 8) through the serve::Frontend interface, timed until
/// Drain returns. The refresh barrier, scatter and rescore carry the time;
/// api, wal and the read path stay idle.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <unistd.h>

#include "core/pipeline.h"
#include "io/snapshot.h"
#include "serve/frontend.h"
#include "shard/shard_router.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kShards = 4;
constexpr int kDepth = 8;

/// One corpus: its history, held-out stream, saved fit and oracle.
struct Input {
  data::PaperDatabase history;
  std::vector<data::Paper> stream;
  std::vector<std::string> names;
  std::string snapshot;
  OracleRun oracle;
  std::vector<double> catchup_s;
};

}  // namespace

int RunStreamCatchup(const Args& args, Tracer* tracer, Report* report) {
  const bool tiny = args.scale == Scale::kTiny;
  const int papers = tiny ? 1500 : 12000;
  const int stream_size = tiny ? 100 : 250;
  const int num_corpora = tiny ? 2 : 8;
  const int fit_threads = 2;
  report->Note("corpora", num_corpora);
  report->Note("corpus_papers", papers);
  report->Note("stream_papers", stream_size);
  report->Note("fit_threads", fit_threads);
  report->Note("shards", kShards);
  report->Note("pipeline_depth", kDepth);
  report->Note("producers", 1);

  // Set-up per corpus: generate, fit, save and reload the snapshot.
  std::vector<Input> inputs(num_corpora);
  std::vector<double> setup_s, gen_s, save_s, load_s, bytes;
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
    in.snapshot = args.work_dir + "/stream_catchup-" + std::to_string(c) +
                  ".snap";
    iuad::Status st = io::SaveSnapshot(in.snapshot, in.history, *fitted,
                                       FitConfig(fit_threads));
    const double t3 = Now();
    auto reloaded = io::LoadSnapshot(in.snapshot, in.history);
    const double t4 = Now();
    if (!st.ok() || !reloaded.ok()) {
      std::fprintf(stderr, "snapshot round trip failed\n");
      return 1;
    }
    setup_s.push_back(t4 - t0);
    gen_s.push_back(t1 - t0);
    save_s.push_back(t3 - t2);
    load_s.push_back(t4 - t3);
    bytes.push_back(FileBytes(in.snapshot));
    tracer->Span("data.generate", t0, t1, c);
    tracer->Span("core.fit", t1, t2, c);
    tracer->Span("io.snapshot_save", t2, t3, c);
    tracer->Span("io.snapshot_load", t3, t4, c);
    fits.Add(*fitted, true);
    in.names = corpus.TestNames();
  }
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("data.generate_s", Median(gen_s), "s");
  report->Set("io.snapshot_save_s", Median(save_s), "s");
  report->Set("io.snapshot_load_s", Median(load_s), "s");
  report->Set("io.snapshot_bytes", Median(bytes), "bytes");
  fits.Report(report);

  // The byte-identity oracle: sequential AddPaper over the same streams.
  std::vector<OracleRun> oracles;
  int refresh_interval = 1;
  for (int c = 0; c < num_corpora; ++c) {
    Input& in = inputs[c];
    data::PaperDatabase db = in.history;
    auto loaded = io::LoadSnapshot(in.snapshot, db);
    if (!loaded.ok()) return 1;
    refresh_interval = loaded->config.incremental_refresh_interval;
    const double t0 = Now();
    in.oracle = RunOracle(&db, &loaded->result, loaded->config, in.stream);
    tracer->Span("incremental.oracle", t0, Now(), c);
    if (!in.oracle.ok) std::fprintf(stderr, "oracle AddPaper failed\n");
    oracles.push_back(in.oracle);
  }
  ReportOracles(oracles, refresh_interval, report);
  if (args.corrupt_oracle) {
    std::string& d = inputs[0].oracle.digests[inputs[0].stream.size() / 2];
    d += "!";
  }

  // Measured: catch up every corpus's stream, round after round, each time
  // from a fresh reload of its fitted state.
  const HostSample host0 = ReadHost();
  const double trace0 = tracer->busy_s();
  const double start = Now();
  eval::PairCounts pairs;
  GraphTotals graphs;
  ServingTotals serving;
  const int min_rounds = 2, max_rounds = 20;
  int rounds = 0;
  for (; rounds < max_rounds &&
         (rounds < min_rounds || Now() - start < args.seconds);
       ++rounds) {
    pairs = eval::PairCounts();
    graphs = GraphTotals();
    serving = ServingTotals();
    for (int c = 0; c < num_corpora; ++c) {
      Input& in = inputs[c];
      data::PaperDatabase db = in.history;
      auto loaded = io::LoadSnapshot(in.snapshot, db);
      if (!loaded.ok()) return 1;
      core::IuadConfig cfg = loaded->config;
      cfg.num_shards = kShards;
      cfg.pipeline_depth = kDepth;

      std::vector<std::future<serve::Frontend::Assignments>> futures;
      double t0 = 0, t1 = 0;
      obs::RegistrySnapshot registry;
      serve::ServiceStats stats;
      {
        shard::ShardRouter router(&db, &loaded->result, cfg);
        serve::Frontend& frontend = router;
        t0 = Now();
        futures = frontend.SubmitBatch(in.stream);
        // A traced catch-up records each paper's span as its ack arrives,
        // in sequence order, from a second thread; it is joined inside the
        // timed interval, so a traced run pays for its tracing there.
        std::thread collector;
        if (tracer->enabled()) {
          collector = std::thread([&] {
            for (size_t i = 0; i < futures.size(); ++i) {
              futures[i].wait();
              tracer->Span("stream.paper", t0, Now(), static_cast<int64_t>(i),
                           1 + c);
            }
          });
        }
        frontend.Drain();
        if (collector.joinable()) collector.join();
        tracer->Span("stream.catchup", t0, Now(), c);
        t1 = Now();
        stats = frontend.Stats();
        registry = frontend.Metrics()->Snapshot();
        frontend.Stop();
      }
      in.catchup_s.push_back(t1 - t0);
      for (size_t i = 0; i < futures.size(); ++i) {
        ++report->attempted;
        auto r = futures[i].get();
        if (!r.ok() || Digest(*r) != in.oracle.digests[i]) ++report->failed;
      }
      // Every round ends in the same states; the latest round is reported.
      pairs.Add(PairCountsOf(db, loaded->result.occurrences, in.names));
      graphs.Add(loaded->result.graph);
      serving.Add(registry, stats, t1 - t0,
                  static_cast<int64_t>(in.stream.size()));
    }
  }
  const HostSample host1 = ReadHost();
  const double measured_s = Now() - start;
  const double trace_s = tracer->busy_s() - trace0;

  // Per corpus, the fastest catch-up; the metric is their mean.
  // Interference from other tenants only ever slows a repetition down, so
  // the fastest one is the steadiest estimate of the program's own cost.
  double wait_s = 0;
  for (const Input& in : inputs) {
    wait_s += *std::min_element(in.catchup_s.begin(), in.catchup_s.end()) /
              num_corpora;
  }
  report->Set("wait_ms", wait_s * 1e3, "ms");
  report->Set("pairwise_f1", F1(pairs), "ratio");
  report->Set("peak_rss_mb", PeakRssMb(getpid()), "MiB");
  graphs.Report(report);
  serving.Report(report);
  report->Set("host.steal_s", host1.steal_s - host0.steal_s, "s");
  report->Set("host.involuntary_ctx_switches",
              static_cast<double>(host1.self_invol - host0.self_invol),
              "count");
  report->Set("obs.bench_trace_overhead_pct", 100.0 * trace_s / measured_s,
              "%");
  report->Note("rounds", rounds);
  for (const Input& in : inputs) std::remove(in.snapshot.c_str());
  return 0;
}

}  // namespace perfbench
