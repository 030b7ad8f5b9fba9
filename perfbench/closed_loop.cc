// The two closed-loop workloads: one client sends a query, waits for the
// ranking, then sends the next.
//
//   exact_emb   Table 3 "Thetis, embeddings, no prefilter": WT2015-like
//               lake, cosine σ over trained embeddings, serial
//               SearchEngine::Search with default options. The bound pass,
//               σ memo, fp32 dot kernels and Hungarian mapping do the work;
//               lsh, exec fusion, serve and io do none.
//   lsei_types  Table 3/4 "Thetis, types + LSEI": WT2019-like lake, type
//               Jaccard σ, entity-mode LSEI (30 functions, bands of 10)
//               at votes = 2 through PrefilteredSearchEngine. The only
//               workload where the lossy prefilter can lower NDCG.
//
// A query's service time is its minimum over all its repetitions in the
// run. Queries are replayed in passes whose order rotates, so one burst of
// interference from the host lands on one repetition of any query, not all.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "benchgen/benchmark_factory.h"
#include "core/search_engine.h"
#include "core/similarity.h"
#include "layers.h"
#include "lsh/lsei.h"
#include "semantic/semantic_data_lake.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace thetis;

constexpr size_t kLseiVotes = 2;

struct LoopResult {
  // Per query: best probe-scaled wall and thread-CPU seconds over its
  // repetitions, separately for traced and plain repetitions, and the
  // best unscaled wall time.
  std::vector<double> best_wall, best_cpu, best_traced, best_raw;
  // Every probe time of the run.
  std::vector<double> probes;
  // Per query: the first ranking and its stats.
  std::vector<std::vector<SearchHit>> first;
  std::vector<SearchStats> first_stats;
  uint64_t executions = 0;
  uint64_t traced_executions = 0;
  // Executions whose ranking differed from the query's first ranking.
  uint64_t unstable = 0;
  // Executions per query (each equal to its first ranking unless counted
  // in `unstable`).
  std::vector<uint64_t> runs;
};

// Replays `queries` for `seconds` (at least two passes). Pass p starts at
// query (p * stride) mod n. In traced runs odd passes go through
// `run_traced` and even passes through `run_plain`, so the tracing
// overhead is measured on the same queries in the same process.
template <typename Plain, typename Traced>
LoopResult ReplayQueries(size_t n, double seconds, bool traced,
                         Plain&& run_plain, Traced&& run_traced) {
  LoopResult out;
  const double inf = std::numeric_limits<double>::infinity();
  out.best_wall.assign(n, inf);
  out.best_cpu.assign(n, inf);
  out.best_traced.assign(n, inf);
  out.best_raw.assign(n, inf);
  SpeedProbe probe;
  out.first.resize(n);
  out.first_stats.resize(n);
  out.runs.assign(n, 0);
  const size_t stride = std::max<size_t>(1, static_cast<size_t>(0.382 * n));
  const size_t min_executions = (traced ? 4 : 2) * n;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // Per execution: query, traced, wall and CPU seconds. Probes: one warm
  // reading before each execution and one after the last.
  struct Execution {
    size_t q;
    bool traced;
    double wall, cpu;
  };
  std::vector<Execution> executions;
  for (uint64_t k = 0;; ++k) {
    if (k >= min_executions && Clock::now() >= deadline) break;
    const uint64_t pass = k / n;
    const size_t q = static_cast<size_t>((pass * stride + k % n) % n);
    const bool use_trace = traced && (pass % 2 == 1);
    SearchStats stats;
    out.probes.push_back(probe.Warm());
    const double cpu0 = ThreadCpuSeconds();
    const auto t0 = Clock::now();
    std::vector<SearchHit> hits =
        use_trace ? run_traced(q, k, &stats) : run_plain(q, &stats);
    const double wall = Seconds(t0, Clock::now());
    executions.push_back({q, use_trace, wall, ThreadCpuSeconds() - cpu0});
    if (out.runs[q]++ == 0) {
      out.first[q] = std::move(hits);
      out.first_stats[q] = stats;
    } else if (!SameHits(out.first[q], hits)) {
      ++out.unstable;
    }
  }
  out.probes.push_back(probe.Warm());
  out.executions = executions.size();
  // Execution k ran between probes k and k + 1; its scale comes from the
  // median of the probes around it, so one noisy probe reading does not
  // decide it.
  constexpr size_t kHalfWindow = 4;
  for (size_t k = 0; k < executions.size(); ++k) {
    const size_t lo = k >= kHalfWindow ? k - kHalfWindow : 0;
    const size_t hi = std::min(out.probes.size(), k + 2 + kHalfWindow);
    const double probe = Median(std::vector<double>(out.probes.begin() + lo,
                                                    out.probes.begin() + hi));
    const double scale = ProbeScale(probe, probe);
    const Execution& e = executions[k];
    if (e.traced) {
      out.best_traced[e.q] = std::min(out.best_traced[e.q], e.wall * scale);
      ++out.traced_executions;
    } else {
      out.best_wall[e.q] = std::min(out.best_wall[e.q], e.wall * scale);
      out.best_cpu[e.q] = std::min(out.best_cpu[e.q], e.cpu * scale);
      out.best_raw[e.q] = std::min(out.best_raw[e.q], e.wall);
    }
  }
  return out;
}

// End-to-end metrics of a replay: service-time percentiles across the
// distinct queries, one-client throughput, CPU per query, all
// probe-scaled; the unscaled p50 and the probe's quartiles are kept for
// the run record.
void EmitServiceTimes(const LoopResult& loop, RunResult* result) {
  std::vector<double> raw_ms;
  for (double s : loop.best_raw) raw_ms.push_back(1e3 * s);
  result->Set("raw.p50_ms", Percentile(raw_ms, 0.50));
  result->Set("raw.tail_ms", Percentile(raw_ms, 0.90));
  result->Set("raw.probe_p25_us", 1e6 * Percentile(loop.probes, 0.25));
  result->Set("raw.probe_p50_us", 1e6 * Percentile(loop.probes, 0.50));
  result->Set("raw.probe_p75_us", 1e6 * Percentile(loop.probes, 0.75));
  std::vector<double> ms;
  double wall_sum = 0.0, cpu_sum = 0.0;
  for (size_t q = 0; q < loop.best_wall.size(); ++q) {
    ms.push_back(1e3 * loop.best_wall[q]);
    wall_sum += loop.best_wall[q];
    cpu_sum += loop.best_cpu[q];
  }
  const double n = static_cast<double>(ms.size());
  result->Set("p50_ms", Percentile(ms, 0.50));
  result->Set("tail_ms", Percentile(ms, 0.90));
  result->Set("qps", n / wall_sum);
  result->Set("cpu_ms_per_query", 1e3 * cpu_sum / n);
}

// Traced-versus-plain service time, in percent of the plain figure.
void EmitTraceOverhead(const LoopResult& loop, const Tracer& tracer,
                       RunResult* result) {
  double plain = 0.0, traced = 0.0;
  for (size_t q = 0; q < loop.best_wall.size(); ++q) {
    plain += loop.best_wall[q];
    traced += loop.best_traced[q];
  }
  result->Set("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
  result->Set("trace.spans", static_cast<double>(tracer.size()));
  const auto self = tracer.SelfSeconds();
  const auto per_exec = [&](const char* layer, double scale) {
    const auto it = self.find(layer);
    const double total = it == self.end() ? 0.0 : it->second;
    return scale * total / static_cast<double>(std::max<uint64_t>(1, loop.traced_executions));
  };
  result->Set("bench.self_us_per_query", per_exec("bench", 1e6));
  result->Set("core.self_ms_per_query", per_exec("core", 1e3));
  result->Set("lsh.lookup_us_per_query", per_exec("lsh", 1e6));
}

// Counts executions whose ranking differs from the reference ranking of
// their query.
uint64_t CountFailures(const LoopResult& loop,
                       const std::vector<std::vector<SearchHit>>& reference) {
  uint64_t failed = loop.unstable;
  for (size_t q = 0; q < loop.first.size(); ++q) {
    if (!SameHits(loop.first[q], reference[q])) failed += loop.runs[q];
  }
  return std::min(failed, loop.executions);
}

SearchOptions ReferenceOptions() {
  SearchOptions options;
  options.enable_prune = false;
  options.enable_cache = false;
  return options;
}

// Mean NDCG@10 of the first rankings against benchgen's ground truth.
double MeanNdcg(const benchgen::Benchmark& bench,
                const std::vector<Query>& queries, const LoopResult& loop) {
  std::vector<double> ndcg(queries.size());
  ThreadPool pool(VerifyThreads());
  pool.ParallelFor(queries.size(), [&](size_t q) {
    ndcg[q] = Ndcg10(Relevance(bench.kg, bench.lake, queries[q]), loop.first[q]);
  });
  return Mean(ndcg);
}

}  // namespace

RunResult RunExactEmb(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  // Inputs, untimed.
  const benchgen::Benchmark bench = benchgen::MakeBenchmark(
      benchgen::PresetKind::kWt2015Like, config.scale, config.seed);
  const std::vector<Query> queries =
      WorkloadQueries(bench.kg, config.scale, config.seed);

  // Set-up: embedding training, lake, engine; median of five probe-scaled
  // builds.
  EmbWorld world;
  MedianScaledSetup(
      5, [&] { world.Reset(); },
      EmbWorldStages(bench.kg, &bench.lake.corpus, config.seed + 1, &world),
      tracer, &result);

  const SearchEngine& engine = *world.engine;
  LoopResult loop = ReplayQueries(
      queries.size(), config.seconds, tracer->enabled(),
      [&](size_t q, SearchStats* stats) { return engine.Search(queries[q], stats); },
      [&](size_t q, uint64_t k, SearchStats* stats) {
        ScopedSpan root(tracer, "bench.query", -1, k);
        ScopedSpan search(tracer, "core.search", root.id(), k);
        return engine.Search(queries[q], stats);
      });
  result.Set("peak_rss_mb", PeakRssMb());
  EmitServiceTimes(loop, &result);

  if (tracer->enabled()) {
    EmitTraceOverhead(loop, *tracer, &result);
    StatsTotals totals;
    for (const SearchStats& stats : loop.first_stats) totals.Add(stats);
    totals.Emit(&result);
    MeasureEngineLayers(engine, queries, {}, tracer, &result);
    MeasureDotKernel(*world.store, world.lake->MentionedEntities(), queries,
                     tracer, &result);
    result.Set("exec.batch_size_mean", 1.0);
  }

  // Verification, untimed: every execution against an engine with pruning
  // and caching off.
  if (config.corrupt) CorruptHits(&loop.first[0]);
  SearchEngine reference_engine(world.lake.get(), world.sim.get(),
                                ReferenceOptions());
  std::vector<std::vector<SearchHit>> reference(queries.size());
  ThreadPool pool(VerifyThreads());
  pool.ParallelFor(queries.size(), [&](size_t q) {
    reference[q] = reference_engine.Search(queries[q]);
  });
  result.attempted = loop.executions;
  result.failed = CountFailures(loop, reference);
  result.Set("ndcg_at_10", MeanNdcg(bench, queries, loop));
  return result;
}

RunResult RunLseiTypes(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  const benchgen::Benchmark bench = benchgen::MakeBenchmark(
      benchgen::PresetKind::kWt2019Like, config.scale, config.seed);
  const std::vector<Query> queries =
      WorkloadQueries(bench.kg, config.scale, config.seed);

  LseiOptions lsei_options;
  lsei_options.mode = LseiMode::kTypes;
  lsei_options.num_functions = 30;
  lsei_options.band_size = 10;
  lsei_options.seed = config.seed + 2;

  // Set-up: lake, engine (type σ + arenas), LSEI; median of fifteen
  // probe-scaled builds.
  std::unique_ptr<SemanticDataLake> lake;
  std::unique_ptr<TypeJaccardSimilarity> sim;
  std::unique_ptr<SearchEngine> engine;
  std::unique_ptr<Lsei> lsei;
  MedianScaledSetup(
      15,
      [&] {
        lsei.reset();
        engine.reset();
        sim.reset();
        lake.reset();
      },
      {{"semantic.lake_build", "semantic.lake_build_s",
        [&] {
          lake = std::make_unique<SemanticDataLake>(&bench.lake.corpus,
                                                    &bench.kg.kg);
        }},
       {"core.engine_build", "core.engine_build_s",
        [&] {
          sim = std::make_unique<TypeJaccardSimilarity>(&bench.kg.kg);
          engine = std::make_unique<SearchEngine>(lake.get(), sim.get());
        }},
       {"lsh.build", "lsh.build_s",
        [&] { lsei = std::make_unique<Lsei>(lake.get(), nullptr, lsei_options); }}},
      tracer, &result);

  const PrefilteredSearchEngine prefiltered(engine.get(), lsei.get(), kLseiVotes);
  LoopResult loop = ReplayQueries(
      queries.size(), config.seconds, tracer->enabled(),
      [&](size_t q, SearchStats* stats) { return prefiltered.Search(queries[q], stats); },
      [&](size_t q, uint64_t k, SearchStats* stats) {
        ScopedSpan root(tracer, "bench.query", -1, k);
        std::vector<TableId> candidates;
        {
          ScopedSpan lookup(tracer, "lsh.lookup", root.id(), k);
          candidates = lsei->CandidateTablesForQuery(queries[q].tuples, kLseiVotes);
        }
        ScopedSpan search(tracer, "core.search", root.id(), k);
        return engine->SearchCandidates(queries[q], candidates, stats);
      });
  result.Set("peak_rss_mb", PeakRssMb());
  EmitServiceTimes(loop, &result);

  // Verification, untimed: every execution against SearchCandidates of an
  // engine with pruning and caching off, over the same LSEI candidates.
  std::vector<std::vector<TableId>> candidates(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    candidates[q] = lsei->CandidateTablesForQuery(queries[q].tuples, kLseiVotes);
  }
  if (tracer->enabled()) {
    EmitTraceOverhead(loop, *tracer, &result);
    StatsTotals totals;
    for (const SearchStats& stats : loop.first_stats) totals.Add(stats);
    totals.Emit(&result);
    double total_candidates = 0.0;
    for (const auto& c : candidates) total_candidates += static_cast<double>(c.size());
    const double per_query = total_candidates / static_cast<double>(queries.size());
    result.Set("lsh.candidates_per_query", per_query);
    result.Set("lsh.reduction",
               1.0 - per_query / static_cast<double>(bench.lake.corpus.size()));
    MeasureEngineLayers(*engine, queries, candidates, tracer, &result);
    MeasureBitsetKernel(*sim, lake->MentionedEntities(), queries, tracer, &result);
    result.Set("exec.batch_size_mean", 1.0);
  }

  if (config.corrupt) CorruptHits(&loop.first[0]);
  SearchEngine reference_engine(lake.get(), sim.get(), ReferenceOptions());
  std::vector<std::vector<SearchHit>> reference(queries.size());
  ThreadPool pool(VerifyThreads());
  pool.ParallelFor(queries.size(), [&](size_t q) {
    reference[q] = reference_engine.SearchCandidates(queries[q], candidates[q]);
  });
  result.attempted = loop.executions;
  result.failed = CountFailures(loop, reference);
  result.Set("ndcg_at_10", MeanNdcg(bench, queries, loop));
  return result;
}

}  // namespace perfbench
