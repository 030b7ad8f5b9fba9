// Benchmark binary: runs one workload and prints its result as one JSON
// line.
//
//   perfbench --workload <exact_emb|lsei_types|serve_churn>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--scale <f>] [--out-dir <dir>] [--corrupt]
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, and the spans are written to <out-dir>. A line with the
// run's environment (nproc, SIMD tier, compiler, build type, seed) is
// printed before the result line.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.h"
#include "simd/kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json; run.py checks both.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"p50_ms", "ms"},        {"tail_ms", "ms"},
    {"qps", "1/s"},            {"cpu_ms_per_query", "ms"},
    {"ndcg_at_10", "score"},   {"peak_rss_mb", "MiB"},
};

// A layer a workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"embedding.train_s", "s"},
    {"semantic.lake_build_s", "s"},
    {"core.engine_build_s", "s"},
    {"lsh.build_s", "s"},
    {"io.snapshot_save_s", "s"},
    {"io.snapshot_load_s", "s"},
    {"io.snapshot_mb", "MiB"},
    {"core.self_ms_per_query", "ms"},
    {"core.upper_bound_us_per_table", "us"},
    {"core.score_us_per_table", "us"},
    {"core.tables_scored_per_query", "count"},
    {"core.prune_rate", "ratio"},
    {"core.sigma_hit_rate", "ratio"},
    {"simd.dot_ns_per_pair", "ns"},
    {"simd.bitset_ns_per_pair", "ns"},
    {"assignment.mapping_us_per_table", "us"},
    {"assignment.mapping_cache_hit_rate", "ratio"},
    {"lsh.lookup_us_per_query", "us"},
    {"lsh.candidates_per_query", "count"},
    {"lsh.reduction", "ratio"},
    {"exec.fused_reuses_per_query", "count"},
    {"exec.fused_bound_us_per_query", "us"},
    {"exec.batch_size_mean", "count"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.pin_ns_p99", "ns"},
    {"serve.ingest_ms_p50", "ms"},
    {"serve.delete_ms_p50", "ms"},
    {"serve.hot_swaps", "count"},
    {"serve.shed", "count"},
    {"serve.p99_ms", "ms"},
    {"serve.max_qps_at_slo", "1/s"},
    {"gen.lag_ms_max", "ms"},
    {"bench.self_us_per_query", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

[[noreturn]] void Usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload <exact_emb|lsei_types|"
               "serve_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale <f>] [--out-dir <dir>] [--corrupt]\n";
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt") {
      config.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (arg == "--scale") {
        config.scale = std::stod(value);
      } else if (arg == "--out-dir") {
        config.out_dir = value;
      } else {
        Usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(config.seconds > 0.0) || !(config.scale > 0.0)) {
    Usage("--seconds and --scale must be positive");
  }
  return config;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig config = ParseArgs(argc, argv);
  Tracer tracer(config.trace);

  RunResult result;
  if (config.workload == "exact_emb") {
    result = RunExactEmb(config, &tracer);
  } else if (config.workload == "lsei_types") {
    result = RunLseiTypes(config, &tracer);
  } else if (config.workload == "serve_churn") {
    result = RunServeChurn(config, &tracer);
  } else {
    Usage("unknown workload " + config.workload);
  }

  std::ostringstream info;
  info << "{\"info\": {\"workload\": \"" << config.workload
       << "\", \"seed\": " << config.seed
       << ", \"seconds\": " << JsonNumber(config.seconds)
       << ", \"trace\": " << (config.trace ? 1 : 0)
       << ", \"scale\": " << JsonNumber(config.scale)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"simd_tier\": \""
       << thetis::simd::TierName(thetis::simd::ActiveTier())
       << "\", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"";
  // Figures kept for the record only (unscaled times, probe quartiles).
  for (const auto& [name, value] : result.metrics) {
    if (name.rfind("raw.", 0) == 0) {
      info << ", \"" << name << "\": " << JsonNumber(value);
    }
  }
  info << "}}";
  std::cout << info.str() << "\n";

  if (config.trace) {
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (!tracer.WriteJson(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
  }

  std::ostringstream out;
  out << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && required) {
      std::cerr << "perfbench: workload did not measure " << spec.name
                << "\n";
      std::exit(1);
    }
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    out << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
        << JsonNumber(value) << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  };
  if (config.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
