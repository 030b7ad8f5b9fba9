// Microbenchmarks for the src/simd/ kernel layer: dot product, fused
// norms+dot, batched one-vs-many dots (contiguous and gathered), and
// sorted-u32 intersection, each measured at every tier compiled into the
// binary and supported by this CPU. The interesting numbers are the
// tier-over-scalar ratios at the dims the engine actually uses (embedding
// dim 32, type sets of a handful to a few dozen ids) — these bound how much
// of the kernel speedup can survive into end-to-end scoring.
//
// The `score_tuple` row is the exact-rerank layer one level up: the fused
// column-statistics kernel plus the Hungarian mapping τ and the coordinate
// gather, in ns per (query tuple, table) at k = 3 query entities and n = 6
// columns, with σ served from precomputed dense rows (the memo's steady
// state on a full-corpus scan).
//
// Run: ./bench_kernels [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/column_mapping.h"
#include "simd/kernels.h"
#include "util/rng.h"

namespace thetis::bench {
namespace {

std::vector<float> RandomVec(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

std::vector<uint32_t> RandomSet(Rng* rng, size_t size, uint32_t stride) {
  std::vector<uint32_t> s(size);
  uint32_t cur = 0;
  for (size_t i = 0; i < size; ++i) {
    cur += 1 + rng->NextBounded(stride);
    s[i] = cur;
  }
  return s;
}

void BenchDot(benchmark::State& state, simd::Tier tier) {
  simd::SetTier(tier);
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = RandomVec(&rng, dim);
  auto b = RandomVec(&rng, dim);
  for (auto _ : state) {
    float d = simd::Dot(a.data(), b.data(), dim);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * dim);
}

void BenchDotBatchGather(benchmark::State& state, simd::Tier tier) {
  simd::SetTier(tier);
  const size_t dim = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 4096;
  constexpr size_t kBatch = 64;  // typical column height in the score fill
  Rng rng(2);
  auto q = RandomVec(&rng, dim);
  auto base = RandomVec(&rng, dim * kRows);
  std::vector<uint32_t> ids(kBatch);
  for (auto& id : ids) id = rng.NextBounded(kRows);
  std::vector<float> out(kBatch);
  for (auto _ : state) {
    simd::DotBatchGather(q.data(), base.data(), dim, ids.data(), kBatch,
                         out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch * dim);
}

std::vector<int8_t> RandomCodes(Rng* rng, size_t n) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(static_cast<int>(rng->NextBounded(255)) - 127);
  }
  return v;
}

void BenchDotI8(benchmark::State& state, simd::Tier tier) {
  simd::SetTier(tier);
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(4);
  auto a = RandomCodes(&rng, dim);
  auto b = RandomCodes(&rng, dim);
  for (auto _ : state) {
    int32_t d = simd::DotI8(a.data(), b.data(), dim);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * dim);
}

void BenchDotBatchGatherI8(benchmark::State& state, simd::Tier tier) {
  simd::SetTier(tier);
  const size_t dim = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 4096;
  constexpr size_t kBatch = 64;
  Rng rng(5);
  auto q = RandomCodes(&rng, dim);
  auto base = RandomCodes(&rng, dim * kRows);
  std::vector<uint32_t> ids(kBatch);
  for (auto& id : ids) id = rng.NextBounded(kRows);
  std::vector<int32_t> out(kBatch);
  for (auto _ : state) {
    simd::DotBatchGatherI8(q.data(), base.data(), dim, ids.data(), kBatch,
                           out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch * dim);
}

void BenchBitsetIntersect(benchmark::State& state, simd::Tier tier) {
  simd::SetTier(tier);
  const size_t words = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 4096;
  constexpr size_t kBatch = 64;
  Rng rng(6);
  std::vector<uint64_t> base(kRows * words);
  for (uint64_t& w : base) {
    w = (static_cast<uint64_t>(rng.NextBounded(UINT32_MAX)) << 32) |
        rng.NextBounded(UINT32_MAX);
  }
  std::vector<uint32_t> ids(kBatch);
  for (auto& id : ids) id = rng.NextBounded(kRows);
  std::vector<uint32_t> out(kBatch);
  for (auto _ : state) {
    simd::BitsetIntersectBatch(base.data(), base.data(), words, ids.data(),
                               kBatch, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch * words);
}

// Not a throughput bench: reports the quantization-error distribution of
// symmetric int8 over unit-L2 Gaussian rows — the E_r that feeds the bound
// slack. Counters are in 1e-6 units (ppm of the [-1, 1] range).
void BenchQuantError(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 2048;
  Rng rng(7);
  double max_err = 0.0;
  double sum_err = 0.0;
  for (size_t r = 0; r < kRows; ++r) {
    auto v = RandomVec(&rng, dim);
    double norm = 0.0;
    for (float x : v) norm += static_cast<double>(x) * x;
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    float amax = 0.0f;
    for (float& x : v) {
      x = static_cast<float>(x / norm);
      amax = std::max(amax, std::abs(x));
    }
    const double s = static_cast<double>(amax) / 127.0;
    double row_err = 0.0;
    for (float x : v) {
      double c = std::lround(static_cast<double>(x) / s);
      c = std::min(127.0, std::max(-127.0, c));
      row_err = std::max(row_err, std::abs(static_cast<double>(x) - c * s));
    }
    max_err = std::max(max_err, row_err);
    sum_err += row_err;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_err);
  }
  state.counters["max_row_err_ppm"] = max_err * 1e6;
  state.counters["mean_row_err_ppm"] = sum_err / kRows * 1e6;
}

void BenchIntersect(benchmark::State& state, simd::Tier tier) {
  simd::SetTier(tier);
  const size_t size = static_cast<size_t>(state.range(0));
  Rng rng(3);
  // Stride 2 gives ~50% overlap, the regime type-set Jaccard lives in.
  auto a = RandomSet(&rng, size, 2);
  auto b = RandomSet(&rng, size, 2);
  for (auto _ : state) {
    size_t n = simd::IntersectSortedU32(a.data(), a.size(), b.data(), b.size());
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * size * 2);
}

// σ from precomputed dense rows: the SimilarityMemo dense-row regime (a
// flat gather per target) without the memo's bookkeeping.
struct DenseRowSim {
  size_t num_entities = 0;
  std::vector<double> rows;  // [query slot][entity]
  void ScoreBatch(EntityId q, const EntityId* targets, size_t count,
                  double* out) const {
    const double* row = rows.data() + static_cast<size_t>(q) * num_entities;
    for (size_t i = 0; i < count; ++i) out[i] = row[targets[i]];
  }
};

// Per (tuple, table) cost of exact scoring: one σ pass per query entity
// over the table's pool, the k x n matrix, τ, and the kMax coordinates.
// 256 synthetic tables of 6 columns x 5 distinct entities (counts 1-3)
// over 4096 entities; about 70 % of σ values are 0, as on real lakes.
void BenchScoreTuple(benchmark::State& state) {
  constexpr size_t kTables = 256;
  constexpr size_t kColumns = 6;
  constexpr size_t kPerColumn = 5;
  constexpr size_t kK = 3;
  DenseRowSim sim;
  sim.num_entities = 4096;
  Rng rng(7);
  sim.rows.resize(kK * sim.num_entities);
  for (double& v : sim.rows) {
    v = rng.NextBernoulli(0.3) ? rng.NextDouble() : 0.0;
  }
  std::vector<uint32_t> offsets;
  std::vector<EntityId> distinct;
  std::vector<double> counts;
  for (size_t t = 0; t < kTables; ++t) {
    offsets.push_back(static_cast<uint32_t>(distinct.size()));
    for (size_t c = 0; c < kColumns; ++c) {
      for (size_t d = 0; d < kPerColumn; ++d) {
        distinct.push_back(rng.NextBounded(4096));
        counts.push_back(1.0 + rng.NextBounded(3));
      }
      offsets.push_back(static_cast<uint32_t>(distinct.size()));
    }
  }
  const size_t stride = kColumns + 1;  // offsets per table
  const EntityId tuple[kK] = {0, 1, 2};  // query slots of `sim.rows`
  ColumnStats stats;
  HungarianScratch hungarian;
  ColumnMapping mapping;
  double coords[kK];
  size_t t = 0;
  for (auto _ : state) {
    ColumnIndexView view{offsets.data() + t * stride, distinct.data(),
                         counts.data(), kColumns};
    ComputeColumnStats(view, tuple, kK, sim, &stats);
    SolveColumnMapping(stats.sum.data(), kK, kColumns, hungarian, &mapping);
    for (size_t i = 0; i < kK; ++i) {
      const int c = mapping.column_of_entity[i];
      coords[i] = c < 0 ? 0.0 : stats.max[i * kColumns + c];
    }
    benchmark::DoNotOptimize(coords);
    t = (t + 1) % kTables;
  }
  // One iteration is one (tuple, table): the Time column is ns per pair.
  state.SetItemsProcessed(state.iterations());
}

void RegisterAll() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  int best = static_cast<int>(simd::BestSupportedTier());
  if (best >= static_cast<int>(simd::Tier::kSse2)) {
    tiers.push_back(simd::Tier::kSse2);
  }
  if (best >= static_cast<int>(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  for (simd::Tier tier : tiers) {
    std::string suffix = std::string("/") + simd::TierName(tier);
    benchmark::RegisterBenchmark(("dot" + suffix).c_str(), BenchDot, tier)
        ->Arg(32)
        ->Arg(128)
        ->Arg(300);
    benchmark::RegisterBenchmark(("dot_batch_gather" + suffix).c_str(),
                                 BenchDotBatchGather, tier)
        ->Arg(32)
        ->Arg(128);
    benchmark::RegisterBenchmark(("intersect_sorted" + suffix).c_str(),
                                 BenchIntersect, tier)
        ->Arg(8)
        ->Arg(64)
        ->Arg(1024);
    benchmark::RegisterBenchmark(("dot_i8" + suffix).c_str(), BenchDotI8,
                                 tier)
        ->Arg(32)
        ->Arg(128)
        ->Arg(300);
    benchmark::RegisterBenchmark(("dot_batch_gather_i8" + suffix).c_str(),
                                 BenchDotBatchGatherI8, tier)
        ->Arg(32)
        ->Arg(128);
    benchmark::RegisterBenchmark(("bitset_intersect" + suffix).c_str(),
                                 BenchBitsetIntersect, tier)
        ->Arg(1)
        ->Arg(4);
  }
  benchmark::RegisterBenchmark("quant_error", BenchQuantError)
      ->Arg(32)
      ->Arg(300);
  benchmark::RegisterBenchmark("score_tuple/k3_n6", BenchScoreTuple)
      ->Repetitions(5)
      ->ReportAggregatesOnly(true);
}

}  // namespace
}  // namespace thetis::bench

int main(int argc, char** argv) {
  thetis::bench::RegisterAll();
  thetis::bench::ObsExportInit(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
