// serve_churn: the serving runtime under open-loop reads and live writes.
//
// A ServeRuntime is cold-started with FromSnapshot from a snapshot of an
// embeddings engine over the exact_emb lake (minus held-out tables), with
// 2 workers and the default fused batching. A generator thread submits
// Poisson arrivals at fixed absolute rates, choosing queries Zipf-skewed
// over a pool of 1- and 5-tuple queries so that concurrent batches share
// entities, while a writer thread ingests held-out tables and deletes base
// tables at a fixed cadence. Threads: generator, 2 workers, writer.
//
// This is the only workload that exercises serve (queue, linger, pin,
// epoch publish and retire), exec fusion and io cold start.
//
// Both runs measure latency at a fixed reference rate, timed from each
// request's due time. The generator runs the speed probe in its idle gaps
// between arrivals while no request is outstanding, and every latency is
// scaled by the probes within half a second of its due time (see
// SpeedProbe). Traced runs alternate traced
// and plain windows at the reference rate, then climb a ladder of fixed
// rates to find the highest one whose p99 meets a fixed limit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/benchmark_factory.h"
#include "core/search_engine.h"
#include "core/similarity.h"
#include "io/engine_snapshot.h"
#include "layers.h"
#include "obs/metrics.h"
#include "semantic/semantic_data_lake.h"
#include "serve/serve_runtime.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace thetis;

// Load shape. Rates and the latency limit are absolute: a slower program
// meets the limit at a lower rung instead of getting an easier gate.
constexpr double kReferenceQps = 30.0;
constexpr double kLadderQps[] = {45.0, 60.0, 75.0, 90.0, 105.0, 120.0, 135.0};
constexpr double kSloP99Ms = 150.0;
// Pool: ZipfMixedPool places the five-tuple queries so that they carry the
// closed loops' 3:2 share of the traffic, at the same ranks for every seed.
constexpr size_t kPoolSize = 128;
constexpr double kZipfExponent = 1.0;
// Writes: one op per period, alternating ingest of kBatchTables held-out
// tables and delete of one base table.
constexpr size_t kBatchTables = 4;
constexpr size_t kWriterOpsPerRun = 20;

struct WriteOp {
  bool ingest = false;
  size_t batch = 0;       // ingest: index into the held-out batches
  TableId victim = 0;     // delete: base table id
};

struct Request {
  size_t query = 0;  // index into ChurnInputs::queries
  Clock::time_point due;
  Clock::time_point submitted;
  std::future<ServeResponse> future;
  ServeResponse response;
};

struct Window {
  double rate = 0.0;
  bool ladder = false;
  bool traced = false;
  size_t first = 0;  // requests [first, end)
  size_t end = 0;
  double cpu_seconds = 0.0;
  // The fused bound passes of the window's batches. Their time reaches no
  // request's SearchStats::total_seconds, only the obs registry.
  double bound_seconds = 0.0;
  uint64_t bound_batches = 0;
};

constexpr char kFusedBoundHistogram[] = "thetis_fused_bound_latency_ns";

// Latency of a request from its due time, in ms; +inf when it failed, so
// that a failed request misses every limit.
double LatencyMs(const Request& r) {
  if (!r.response.status.ok()) return std::numeric_limits<double>::infinity();
  return 1e3 * (Seconds(r.due, r.submitted) + r.response.latency_seconds);
}

double FinitePercentile(std::vector<double> values, double p) {
  const double v = Percentile(std::move(values), p);
  return std::isfinite(v) ? v : 1e9;
}

double WindowP99Ms(const Window& w, const std::vector<Request>& requests) {
  std::vector<double> ms;
  for (size_t i = w.first; i < w.end; ++i) ms.push_back(LatencyMs(requests[i]));
  return FinitePercentile(std::move(ms), 0.99);
}

class Generator {
 public:
  // Draws from the first `pool_size` of `queries`.
  Generator(ServeRuntime* runtime, const std::vector<Query>* queries,
            size_t pool_size, uint64_t seed)
      : runtime_(runtime), queries_(queries), rng_(seed) {
    std::vector<double> weights(pool_size);
    for (size_t r = 0; r < weights.size(); ++r) {
      weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    }
    zipf_ = std::discrete_distribution<size_t>(weights.begin(), weights.end());
  }

  // Submits Poisson arrivals at `rate` for `seconds`, then waits for every
  // response of the window. In gaps between arrivals with no request
  // outstanding it takes a warm probe reading, so the workers' query work
  // does not run beside the probe.
  Window Run(double rate, double seconds, bool ladder, bool traced,
             std::vector<Request>* requests) {
    Window window;
    window.rate = rate;
    window.ladder = ladder;
    window.traced = traced;
    window.first = requests->size();
    const double cpu0 = ProcessCpuSeconds();
    const obs::HistogramSnapshot bound0 =
        obs::MetricsRegistry::Global().HistogramValue(kFusedBoundHistogram);
    std::exponential_distribution<double> gap(rate);
    size_t outstanding = window.first;  // first request not known done
    const auto start = Clock::now();
    const auto end = start + ToDuration(seconds);
    for (auto due = start; due < end; due += ToDuration(gap(rng_))) {
      // Idle gap: wait for every earlier request, then take one reading
      // if the next arrival is still far enough away.
      const auto probe_by = due - std::chrono::microseconds(600);
      while (outstanding < requests->size() &&
             (*requests)[outstanding].future.wait_until(probe_by) ==
                 std::future_status::ready) {
        ++outstanding;
      }
      if (outstanding == requests->size() && Clock::now() < probe_by) {
        probes_.emplace_back(Clock::now(), probe_.Warm());
      }
      std::this_thread::sleep_until(due);
      Request r;
      r.query = zipf_(rng_);
      r.due = due;
      r.submitted = Clock::now();
      r.future = runtime_->Submit((*queries_)[r.query]);
      requests->push_back(std::move(r));
    }
    for (size_t i = window.first; i < requests->size(); ++i) {
      (*requests)[i].response = (*requests)[i].future.get();
    }
    window.end = requests->size();
    window.cpu_seconds = ProcessCpuSeconds() - cpu0;
    const obs::HistogramSnapshot bound1 =
        obs::MetricsRegistry::Global().HistogramValue(kFusedBoundHistogram);
    window.bound_seconds = 1e-9 * static_cast<double>(bound1.sum - bound0.sum);
    window.bound_batches = bound1.count - bound0.count;
    return window;
  }

  // Probe scale at time `t`, from the median of the probes taken within
  // half a second of it (1 when there are none).
  double ScaleAt(Clock::time_point t) const {
    const auto lo = std::lower_bound(
        probes_.begin(), probes_.end(), t - std::chrono::milliseconds(500),
        [](const auto& p, Clock::time_point x) { return p.first < x; });
    std::vector<double> near;
    for (auto it = lo; it != probes_.end() &&
                       it->first <= t + std::chrono::milliseconds(500);
         ++it) {
      near.push_back(it->second);
    }
    if (near.empty()) return 1.0;
    const double median = Median(std::move(near));
    return ProbeScale(median, median);
  }

 private:
  ServeRuntime* runtime_;
  const std::vector<Query>* queries_;
  std::mt19937_64 rng_;
  std::discrete_distribution<size_t> zipf_;
  SpeedProbe probe_;
  // (time, seconds) of every probe reading, in time order.
  std::vector<std::pair<Clock::time_point, double>> probes_;
};

// The inputs: base corpus, held-out ingest batches, delete victims, the
// writer's op sequence and the queries.
struct ChurnInputs {
  benchgen::Benchmark bench;
  Corpus base;
  std::vector<std::vector<Table>> batches;
  std::vector<WriteOp> ops;
  // The Zipf pool (the first pool_size), then the quality sweep.
  std::vector<Query> queries;
  size_t pool_size = 0;
};

ChurnInputs MakeInputs(const RunConfig& config) {
  ChurnInputs in{benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like,
                                         config.scale, config.seed),
                 Corpus(), {}, {}, {}, 0};
  const Corpus& full = in.bench.lake.corpus;
  const size_t num_batches = kWriterOpsPerRun / 2;
  const size_t held_out =
      std::min(num_batches * kBatchTables, full.size() / 4);
  const size_t base_count = full.size() - held_out;
  for (TableId id = 0; id < base_count; ++id) in.base.AddTable(full.table(id));
  // Held-out tables keep their generated ids: they are ingested in id
  // order, so ground truth computed over the full lake applies to them.
  for (TableId id = base_count; id < full.size();) {
    std::vector<Table> batch;
    for (size_t t = 0; t < kBatchTables && id < full.size(); ++t) {
      batch.push_back(full.table(id++));
    }
    in.batches.push_back(std::move(batch));
  }
  std::mt19937_64 rng(config.seed * 131 + 5);
  std::set<TableId> victims;
  for (size_t i = 0; i < kWriterOpsPerRun; ++i) {
    WriteOp op;
    op.ingest = i % 2 == 0 && i / 2 < in.batches.size();
    if (op.ingest) {
      op.batch = i / 2;
    } else {
      do {
        op.victim = static_cast<TableId>(rng() % base_count);
      } while (!victims.insert(op.victim).second);
    }
    in.ops.push_back(op);
  }
  in.queries = ZipfMixedPool(in.bench.kg, kPoolSize, kZipfExponent,
                             config.seed * 31 + 11);
  in.pool_size = in.queries.size();
  // exact_emb's queries: the same lake and seed give the same set.
  for (Query& q : WorkloadQueries(in.bench.kg, config.scale, config.seed)) {
    in.queries.push_back(std::move(q));
  }
  return in;
}

// Corpus and tombstones of epoch `epoch` (= number of writer ops applied),
// replaying the runtime's documented semantics: deletes tombstone, and the
// next ingest blanks tombstoned tables before appending its batch.
Corpus EpochCorpus(const ChurnInputs& in, size_t epoch,
                   std::shared_ptr<const TableTombstones>* tombstones) {
  Corpus corpus = in.base.Clone();
  auto pending = std::make_shared<TableTombstones>();
  for (size_t i = 0; i < epoch; ++i) {
    const WriteOp& op = in.ops[i];
    if (!op.ingest) {
      pending->Add(op.victim);
      continue;
    }
    for (TableId id = 0; id < corpus.size(); ++id) {
      if (pending->Contains(id)) {
        Table* table = corpus.mutable_table(id);
        *table = Table(table->name(), {});
      }
    }
    pending = std::make_shared<TableTombstones>();
    for (const Table& table : in.batches[op.batch]) corpus.AddTable(table);
  }
  if (!pending->empty()) *tombstones = std::move(pending);
  return corpus;
}

// Counts OK responses whose ranking differs from an offline engine built
// over their epoch's corpus; epochs are checked in parallel.
uint64_t CountParityFailures(const ChurnInputs& in, const EntitySimilarity& sim,
                             const std::vector<Request>& requests,
                             size_t published_epochs, bool corrupt) {
  std::vector<std::vector<const Request*>> by_epoch(published_epochs + 1);
  uint64_t failed = 0;
  for (const Request& r : requests) {
    if (!r.response.status.ok()) continue;
    if (r.response.epoch_id >= by_epoch.size()) {
      ++failed;
      continue;
    }
    by_epoch[r.response.epoch_id].push_back(&r);
  }
  std::vector<uint64_t> epoch_failures(by_epoch.size(), 0);
  ThreadPool pool(VerifyThreads());
  pool.ParallelFor(by_epoch.size(), [&](size_t epoch) {
    if (by_epoch[epoch].empty()) return;
    SearchOptions options;
    const Corpus corpus = EpochCorpus(in, epoch, &options.tombstones);
    const SemanticDataLake lake(&corpus, &in.bench.kg.kg);
    const SearchEngine engine(&lake, &sim, options);
    std::vector<std::vector<SearchHit>> expected(in.queries.size());
    std::vector<bool> done(in.queries.size(), false);
    for (const Request* r : by_epoch[epoch]) {
      if (!done[r->query]) {
        expected[r->query] = engine.Search(in.queries[r->query]);
        done[r->query] = true;
      }
      std::vector<SearchHit> got = r->response.hits;
      if (corrupt && r == by_epoch[epoch].front()) CorruptHits(&got);
      if (!SameHits(expected[r->query], got)) ++epoch_failures[epoch];
    }
  });
  for (uint64_t f : epoch_failures) failed += f;
  return failed;
}

// Writer thread: applies the op sequence at a fixed cadence until stopped
// or out of ops, recording each call's latency and checking the epoch id
// it returns.
struct WriterLog {
  std::vector<double> ingest_ms, delete_ms;
  size_t applied = 0;
  size_t errors = 0;
};

void RunWriter(ServeRuntime* runtime, const ChurnInputs& in, double period,
               Clock::time_point start, const std::atomic<bool>* stop,
               Tracer* tracer, WriterLog* log) {
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const auto due = start + ToDuration(period * static_cast<double>(i + 1));
    while (Clock::now() < due) {
      if (stop->load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (stop->load(std::memory_order_acquire)) return;
    const WriteOp& op = in.ops[i];
    Result<uint64_t> epoch = Status::Internal("not run");
    const auto t0 = Clock::now();
    if (op.ingest) {
      ScopedSpan span(tracer, "serve.ingest");
      epoch = runtime->IngestTables(in.batches[op.batch]);
    } else {
      ScopedSpan span(tracer, "serve.delete");
      epoch = runtime->DeleteTable(in.base.table(op.victim).name());
    }
    const double ms = 1e3 * Seconds(t0, Clock::now());
    (op.ingest ? log->ingest_ms : log->delete_ms).push_back(ms);
    ++log->applied;
    if (!epoch.ok() || epoch.value() != i + 1) ++log->errors;
  }
}

ServeOptions MakeServeOptions() {
  ServeOptions options;
  options.num_workers = 2;
  // Deep enough that no ladder rung sheds before its p99 fails the limit.
  options.queue_capacity = 4096;
  return options;
}

}  // namespace

RunResult RunServeChurn(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  const ChurnInputs in = MakeInputs(config);
  const std::filesystem::path snapshot =
      std::filesystem::path(config.out_dir) /
      ("serve_churn-" + std::to_string(config.seed) + ".snap");

  // Set-up: training, lake, engine, snapshot save, cold start; median of
  // five probe-scaled set-ups. The engine and lake are dropped before the
  // cold start, so only the served copy is resident while measuring.
  EmbWorld world;
  std::unique_ptr<ServeRuntime> runtime_owner;
  std::vector<SetupStage> stages =
      EmbWorldStages(in.bench.kg, &in.base, config.seed + 1, &world);
  stages.push_back({"io.snapshot_save", "io.snapshot_save_s", [&] {
    EngineSnapshotParts parts;
    parts.lake = world.lake.get();
    parts.engine = world.engine.get();
    const Status saved = SaveEngineSnapshot(snapshot.string(), parts);
    if (!saved.ok()) {
      std::fprintf(stderr, "serve_churn: snapshot save failed: %s\n",
                   saved.message().c_str());
      std::exit(1);
    }
  }});
  stages.push_back({nullptr, nullptr, [&] {
    world.engine.reset();
    world.lake.reset();
  }});
  stages.push_back({"io.snapshot_load", "io.snapshot_load_s", [&] {
    Result<std::unique_ptr<ServeRuntime>> started = ServeRuntime::FromSnapshot(
        snapshot.string(), in.base.Clone(), &in.bench.kg.kg, MakeServeOptions());
    if (!started.ok()) {
      std::fprintf(stderr, "serve_churn: cold start failed: %s\n",
                   started.status().message().c_str());
      std::exit(1);
    }
    runtime_owner = std::move(started).value();
  }});
  MedianScaledSetup(
      5,
      [&] {
        runtime_owner.reset();
        world.Reset();
      },
      stages, tracer, &result);
  result.Set("io.snapshot_mb",
             static_cast<double>(std::filesystem::file_size(snapshot)) /
                 (1024.0 * 1024.0));
  std::filesystem::remove(snapshot);

  ServeRuntime* runtime = runtime_owner.get();
  auto& registry = obs::MetricsRegistry::Global();

  // Measurement: the writer runs across every window. Each window drains
  // before the next starts.
  std::vector<Request> requests;
  requests.reserve(static_cast<size_t>(config.seconds * 2.0 * kReferenceQps));
  std::vector<Window> windows;
  Generator generator(runtime, &in.queries, in.pool_size, config.seed * 17 + 3);
  WriterLog writer_log;
  std::atomic<bool> stop_writer{false};
  const double period = config.seconds / static_cast<double>(kWriterOpsPerRun);
  std::thread writer(RunWriter, runtime, std::cref(in), period, Clock::now(),
                     &stop_writer, tracer, &writer_log);

  // The reference rate: the whole of an untraced run; two thirds of a
  // traced run, alternating traced and plain windows and timing
  // PinCurrent from a sampler thread during the traced ones.
  const uint64_t batches0 = registry.CounterValue("thetis_executor_batches_total");
  const uint64_t queries0 = registry.CounterValue("thetis_executor_queries_total");
  std::vector<double> pin_ns;
  const int ref_windows = tracer->enabled() ? 4 : 1;
  const double ref_seconds = tracer->enabled() ? (2.0 / 3.0) * config.seconds
                                               : config.seconds;
  for (int w = 0; w < ref_windows; ++w) {
    const bool traced = tracer->enabled() && w % 2 == 0;
    std::atomic<bool> sampling{traced};
    std::thread sampler([&] {
      while (sampling.load(std::memory_order_acquire)) {
        const auto t0 = Clock::now();
        { EpochRegistry::Pin pin = runtime->PinCurrent(); }
        pin_ns.push_back(1e9 * Seconds(t0, Clock::now()));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    windows.push_back(generator.Run(kReferenceQps, ref_seconds / ref_windows,
                                    false, traced, &requests));
    sampling.store(false, std::memory_order_release);
    sampler.join();
  }
  if (tracer->enabled()) {
    const double rung_seconds = config.seconds / 3.0 / std::size(kLadderQps);
    for (double rate : kLadderQps) {
      windows.push_back(generator.Run(rate, rung_seconds, true, false, &requests));
      if (WindowP99Ms(windows.back(), requests) > kSloP99Ms) break;
    }
  }
  stop_writer.store(true, std::memory_order_release);
  writer.join();
  const uint64_t batches = registry.CounterValue("thetis_executor_batches_total") - batches0;
  const uint64_t executed = registry.CounterValue("thetis_executor_queries_total") - queries0;
  result.Set("peak_rss_mb", PeakRssMb());
  const size_t published = runtime->current_epoch_id();
  const uint64_t hot_swaps = runtime->hot_swaps();

  // Quality sweep, untimed: exact_emb's 200 queries once each on the final
  // epoch, so that ndcg_at_10 does not depend on which queries the Zipf
  // draw served. The responses are verified with the others.
  const size_t sweep_first = requests.size();
  for (size_t q = in.pool_size; q < in.queries.size(); ++q) {
    Request r;
    r.query = q;
    r.due = r.submitted = Clock::now();
    r.future = runtime->Submit(in.queries[q]);
    requests.push_back(std::move(r));
  }
  for (size_t i = sweep_first; i < requests.size(); ++i) {
    requests[i].response = requests[i].future.get();
  }

  // End-to-end, at the reference rate: probe-scaled latency percentiles,
  // capacity (workers / mean probe-scaled execution time), CPU per request.
  // A request's execution time is its own SearchStats::total_seconds (the
  // exact rerank) plus its share of its window's fused bound passes. Work
  // counts cover every window, ladder rungs included.
  std::vector<double> scaled_ms, raw_ms, traced_ms, plain_ms, wait_ms, scales;
  double ref_cpu = 0.0, max_lag_ms = 0.0, exec_seconds = 0.0, scaled_exec = 0.0;
  double bound_seconds = 0.0;
  size_t shed = 0, not_ok = 0, ref_ok = 0;
  StatsTotals totals;
  for (const Window& w : windows) {
    bound_seconds += w.bound_seconds;
    for (size_t i = w.first; i < w.end; ++i) {
      const Request& r = requests[i];
      max_lag_ms = std::max(max_lag_ms, 1e3 * Seconds(r.due, r.submitted));
      shed += r.response.stats.shed;
      if (!r.response.status.ok()) {
        ++not_ok;
        continue;
      }
      totals.Add(r.response.stats);
      exec_seconds += r.response.stats.total_seconds;
    }
    if (w.ladder) continue;
    ref_cpu += w.cpu_seconds;
    // Every query of a batch waits for the batch's bound pass.
    const double batch_bound_seconds =
        w.bound_batches == 0 ? 0.0 : w.bound_seconds / static_cast<double>(w.bound_batches);
    std::vector<double> window_scales;
    for (size_t i = w.first; i < w.end; ++i) {
      const Request& r = requests[i];
      const double scale = generator.ScaleAt(r.due);
      const double ms = LatencyMs(r) * scale;
      scales.push_back(scale);
      window_scales.push_back(scale);
      raw_ms.push_back(LatencyMs(r));
      scaled_ms.push_back(ms);
      (w.traced ? traced_ms : plain_ms).push_back(ms);
      if (!r.response.status.ok()) continue;
      ++ref_ok;
      scaled_exec += r.response.stats.total_seconds * scale;
      wait_ms.push_back(1e3 * (r.response.latency_seconds - r.response.stats.total_seconds -
                               batch_bound_seconds));
      if (w.traced) {
        const auto done = r.submitted + ToDuration(r.response.latency_seconds);
        const auto exec_start = done - ToDuration(r.response.stats.total_seconds +
                                                  batch_bound_seconds);
        const int64_t span = tracer->Record("serve.request", r.due, done, -1, i);
        tracer->Record("core.execute", exec_start, done, span, i);
      }
    }
    scaled_exec += w.bound_seconds * Median(std::move(window_scales));
  }
  exec_seconds += bound_seconds;
  const double completed = static_cast<double>(std::max<size_t>(1, ref_ok));
  result.Set("p50_ms", FinitePercentile(scaled_ms, 0.50));
  result.Set("tail_ms", FinitePercentile(scaled_ms, 0.90));
  result.Set("qps", scaled_exec > 0.0 ? MakeServeOptions().num_workers * completed / scaled_exec : 0.0);
  result.Set("cpu_ms_per_query", 1e3 * ref_cpu * Median(scales) / completed);
  result.Set("raw.p50_ms", FinitePercentile(raw_ms, 0.50));
  result.Set("raw.p90_ms", FinitePercentile(raw_ms, 0.90));
  result.Set("raw.p99_ms", FinitePercentile(raw_ms, 0.99));
  result.Set("raw.cpu_ms_per_query", 1e3 * ref_cpu / completed);
  result.Set("raw.probe_scale_p50", Median(scales));

  if (tracer->enabled()) {
    // Highest ladder rate meeting the limit, interpolated between the last
    // passing and the first failing rung on their p99s.
    double max_rate = 0.0, last_p99 = 0.0;
    for (const Window& w : windows) {
      if (!w.ladder) continue;
      const double p99 = WindowP99Ms(w, requests);
      if (p99 <= kSloP99Ms) {
        max_rate = w.rate;
        last_p99 = p99;
        continue;
      }
      max_rate = max_rate == 0.0
                     ? w.rate * kSloP99Ms / p99
                     : max_rate + (w.rate - max_rate) * (kSloP99Ms - last_p99) /
                                      (p99 - last_p99);
      break;
    }
    result.Set("serve.max_qps_at_slo", max_rate);
    totals.Emit(&result);
    result.Set("exec.batch_size_mean",
               batches == 0 ? 1.0 : static_cast<double>(executed) / static_cast<double>(batches));
    result.Set("core.self_ms_per_query",
               totals.queries == 0 ? 0.0 : 1e3 * exec_seconds / static_cast<double>(totals.queries));
    result.Set("exec.fused_bound_us_per_query",
               totals.queries == 0 ? 0.0 : 1e6 * bound_seconds / static_cast<double>(totals.queries));
    result.Set("serve.wait_ms_p50", Median(wait_ms));
    result.Set("serve.pin_ns_p99", Percentile(pin_ns, 0.99));
    result.Set("trace.overhead_pct",
               100.0 * (FinitePercentile(traced_ms, 0.5) / FinitePercentile(plain_ms, 0.5) - 1.0));
    result.Set("serve.ingest_ms_p50", Median(writer_log.ingest_ms));
    result.Set("serve.delete_ms_p50", Median(writer_log.delete_ms));
    result.Set("serve.hot_swaps", static_cast<double>(hot_swaps));
    result.Set("serve.shed", static_cast<double>(shed));
    result.Set("serve.p99_ms", FinitePercentile(scaled_ms, 0.99));
    result.Set("gen.lag_ms_max", max_lag_ms);
    const std::vector<Query> pool(in.queries.begin(),
                                  in.queries.begin() + in.pool_size);
    EpochRegistry::Pin pin = runtime->PinCurrent();
    MeasureEngineLayers(*pin->engine, pool, {}, tracer, &result);
    MeasureDotKernel(*world.store, pin->engine->lake()->MentionedEntities(),
                     pool, tracer, &result);
    result.Set("trace.spans", static_cast<double>(tracer->size()));
  }
  runtime->Stop();

  // Verification, untimed.
  const uint64_t parity = CountParityFailures(in, *world.sim, requests, published,
                                              config.corrupt);
  std::vector<std::vector<double>> relevance(in.queries.size());
  ThreadPool pool(VerifyThreads());
  pool.ParallelFor(in.queries.size() - in.pool_size, [&](size_t i) {
    const size_t q = in.pool_size + i;
    relevance[q] = Relevance(in.bench.kg, in.bench.lake, in.queries[q]);
  });
  // Mean over the sweep, each query once.
  std::vector<double> ndcg;
  for (size_t i = sweep_first; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (!r.response.status.ok()) {
      ++not_ok;
      continue;
    }
    ndcg.push_back(Ndcg10(relevance[r.query], r.response.hits));
  }
  result.Set("ndcg_at_10", Mean(ndcg));
  result.attempted = requests.size() + writer_log.applied;
  result.failed = std::min<uint64_t>(
      result.attempted, parity + not_ok + writer_log.errors);
  return result;
}

}  // namespace perfbench
