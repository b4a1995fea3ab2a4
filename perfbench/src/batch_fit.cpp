/// batch_fit: the digital-library batch job. Full Algorithm 1 (SCN, then
/// GCN with the EM fit) over large corpora at a fixed fit thread count
/// below nproc, repeated round-robin for the measured time. text, mining,
/// core.scn/core.gcn and em do all the work; no serving layer runs.

#include <algorithm>
#include <cstdio>
#include <unistd.h>

#include "core/pipeline.h"
#include "io/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Everything a repeated fit of one corpus must reproduce exactly.
struct FitDigest {
  int alive = 0;
  int edges = 0;
  int64_t relations = 0;
  int64_t candidate_pairs = 0;
  int64_t true_pos = 0;
  int64_t false_pos = 0;
  bool operator==(const FitDigest& o) const {
    return alive == o.alive && edges == o.edges && relations == o.relations &&
           candidate_pairs == o.candidate_pairs && true_pos == o.true_pos &&
           false_pos == o.false_pos;
  }
};

}  // namespace

int RunBatchFit(const Args& args, Tracer* tracer, Report* report) {
  const bool tiny = args.scale == Scale::kTiny;
  const int papers = tiny ? 1500 : 20000;
  const int num_corpora = tiny ? 2 : 4;
  // Two fit threads on a 4-core host: at nproc threads the embed stage
  // turned bimodal (0.5 s or 1.3-1.5 s at 40k papers).
  const int fit_threads = 2;
  report->Note("corpora", num_corpora);
  report->Note("corpus_papers", papers);
  report->Note("fit_threads", fit_threads);

  // Set-up: generate each corpus. One generation takes ~0.2 s, short
  // enough that a single reading swings with other tenants' load, so the
  // corpora are generated again after every round of fits below, spreading
  // the readings over the run; per corpus the fastest one counts (as for
  // the fits) and setup_s is their mean over corpora.
  std::vector<double> generate_s(num_corpora, 1e300);
  int generations = 0;
  auto generate = [&](int c) {
    const double t0 = Now();
    data::Corpus corpus = MakeCorpus(CorpusSeed(args.seed, c), papers);
    const double t1 = Now();
    tracer->Span("data.generate", t0, t1, c);
    generate_s[c] = std::min(generate_s[c], t1 - t0);
    ++generations;
    return corpus;
  };
  std::vector<data::Corpus> corpora(num_corpora);
  std::vector<std::vector<std::string>> names(num_corpora);
  for (int c = 0; c < num_corpora; ++c) {
    corpora[c] = generate(c);
    names[c] = corpora[c].TestNames();
  }
  const core::IuadConfig cfg = FitConfig(fit_threads);

  // Measured: fit every corpus, round after round.
  const HostSample host0 = ReadHost();
  const double trace0 = tracer->busy_s();
  const double start = Now();
  std::vector<std::vector<double>> fit_s(num_corpora);
  std::vector<FitDigest> first(num_corpora);
  std::vector<core::DisambiguationResult> last(num_corpora);
  std::vector<bool> have(num_corpora, false);
  FitTotals fits;
  eval::PairCounts pairs;
  const int min_rounds = 2, max_rounds = 20;
  for (int round = 0; round < max_rounds &&
                      (round < min_rounds || Now() - start < args.seconds);
       ++round) {
    for (int c = 0; c < num_corpora; ++c) {
      const data::Corpus& corpus = corpora[c];
      ++report->attempted;
      const double t0 = Now();
      auto fitted = core::IuadPipeline(cfg).Run(corpus.db);
      // The span is recorded inside the timed fit, so a traced run pays
      // for its tracing where it is measured.
      tracer->Span("core.fit", t0, Now(), c);
      fit_s[c].push_back(Now() - t0);
      if (!fitted.ok()) {
        std::fprintf(stderr, "fit failed: %s\n",
                     fitted.status().ToString().c_str());
        ++report->failed;
        continue;
      }
      const eval::PairCounts counts =
          PairCountsOf(corpus.db, fitted->occurrences, names[c]);
      const FitDigest d{fitted->graph.num_alive(), fitted->graph.num_edges(),
                        fitted->scn_stats.num_scrs,
                        fitted->gcn_stats.candidate_pairs, counts.tp,
                        counts.fp};
      if (!have[c]) {
        first[c] = d;
        pairs.Add(counts);
      } else if (!(d == first[c])) {
        std::fprintf(stderr, "corpus %d: fit differs from its first fit\n", c);
        ++report->failed;
      }
      fits.Add(*fitted, !have[c]);
      last[c] = std::move(*fitted);
      have[c] = true;
    }
    for (int c = 0; c < num_corpora; ++c) generate(c);
  }
  const HostSample host1 = ReadHost();
  const double measured_s = Now() - start;
  const double trace_s = tracer->busy_s() - trace0;

  // Per corpus, the fastest fit; the metric is their mean. Interference
  // from other tenants only ever slows a repetition down, so the fastest
  // one is the steadiest estimate of the program's own cost.
  double wait_s = 0;
  for (const auto& times : fit_s) {
    wait_s += *std::min_element(times.begin(), times.end()) / num_corpora;
  }
  report->Set("wait_ms", wait_s * 1e3, "ms");
  double setup_s = 0;
  for (double g : generate_s) setup_s += g / num_corpora;
  report->Set("setup_s", setup_s, "s");
  report->Set("data.generate_s", setup_s, "s");
  report->Note("generations", generations);
  report->Set("pairwise_f1", F1(pairs), "ratio");
  fits.Report(report);

  // The batch job's output: persist each fitted result and read it back.
  GraphTotals graphs;
  std::vector<double> save_s, load_s, bytes;
  const std::string snap = args.work_dir + "/batch_fit.snap";
  for (int c = 0; c < num_corpora; ++c) {
    if (!have[c]) continue;
    graphs.Add(last[c].graph);
    const double s0 = Now();
    iuad::Status saved = io::SaveSnapshot(snap, corpora[c].db, last[c], cfg);
    const double s1 = Now();
    auto loaded = io::LoadSnapshot(snap, corpora[c].db);
    const double s2 = Now();
    tracer->Span("io.snapshot_save", s0, s1, c);
    tracer->Span("io.snapshot_load", s1, s2, c);
    ++report->attempted;
    if (!saved.ok() || !loaded.ok() ||
        loaded->result.graph.num_alive() != last[c].graph.num_alive() ||
        loaded->result.graph.num_edges() != last[c].graph.num_edges()) {
      std::fprintf(stderr, "corpus %d: snapshot round trip failed\n", c);
      ++report->failed;
    }
    save_s.push_back(s1 - s0);
    load_s.push_back(s2 - s1);
    bytes.push_back(FileBytes(snap));
    std::remove(snap.c_str());
  }
  graphs.Report(report);
  report->Set("io.snapshot_save_s", Median(save_s), "s");
  report->Set("io.snapshot_load_s", Median(load_s), "s");
  report->Set("io.snapshot_bytes", Median(bytes), "bytes");

  report->Set("peak_rss_mb", PeakRssMb(getpid()), "MiB");
  report->Set("host.steal_s", host1.steal_s - host0.steal_s, "s");
  report->Set("host.involuntary_ctx_switches",
              static_cast<double>(host1.self_invol - host0.self_invol),
              "count");
  report->Set("obs.bench_trace_overhead_pct", 100.0 * trace_s / measured_s,
              "%");
  report->Note("fits", static_cast<double>(report->attempted - num_corpora));
  return 0;
}

}  // namespace perfbench
