#include "layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <thread>

#include "benchgen/benchmark_factory.h"
#include "benchgen/ground_truth.h"
#include "benchgen/metrics.h"
#include "benchgen/query_gen.h"
#include "simd/kernels.h"

namespace perfbench {

using thetis::EntityId;
using thetis::Query;
using thetis::SearchHit;
using thetis::TableId;

std::vector<Query> MixedQueries(const thetis::benchgen::SyntheticKg& kg,
                                size_t five, size_t one, uint64_t seed) {
  const auto generated = thetis::benchgen::MakeQueries(kg, five, seed);
  const auto truncated = thetis::benchgen::TruncateQueries(generated, 1);
  std::vector<Query> queries;
  queries.reserve(five + one);
  for (const auto& gq : generated) queries.push_back(gq.query);
  for (size_t i = 0; i < one && i < truncated.size(); ++i) {
    queries.push_back(truncated[i].query);
  }
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::shuffle(queries.begin(), queries.end(), rng);
  return queries;
}

std::vector<Query> WorkloadQueries(const thetis::benchgen::SyntheticKg& kg,
                                   double scale, uint64_t seed) {
  constexpr size_t kQueries = 200;
  constexpr size_t kFiveTuple = static_cast<size_t>(kFiveTupleShare * kQueries);
  const auto scaled = [scale](size_t n, size_t floor) {
    return std::max(floor, static_cast<size_t>(std::llround(n * std::min(scale, 1.0))));
  };
  return MixedQueries(kg, scaled(kFiveTuple, 8), scaled(kQueries - kFiveTuple, 4),
                      seed * 31 + 7);
}

namespace {

// Whether each Zipf rank of ZipfMixedPool gets a five-tuple query.
std::vector<bool> FiveTupleRanks(size_t n, double exponent, double share) {
  std::vector<bool> five(n, false);
  double weight = 0.0, five_weight = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double w = 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    weight += w;
    if (five_weight < share * weight) {
      five[r] = true;
      five_weight += w;
    }
  }
  return five;
}

}  // namespace

std::vector<Query> ZipfMixedPool(const thetis::benchgen::SyntheticKg& kg,
                                 size_t n, double zipf_exponent, uint64_t seed) {
  const std::vector<bool> five = FiveTupleRanks(n, zipf_exponent, kFiveTupleShare);
  const size_t num_five = static_cast<size_t>(std::count(five.begin(), five.end(), true));
  std::vector<Query> fives, ones;
  for (Query& q : MixedQueries(kg, num_five, n - num_five, seed)) {
    (q.tuples.size() > 1 ? fives : ones).push_back(std::move(q));
  }
  std::vector<Query> pool;
  size_t next_five = 0, next_one = 0;
  for (size_t r = 0; r < n; ++r) {
    if (five[r] ? next_five == fives.size() : next_one == ones.size()) break;
    pool.push_back(five[r] ? fives[next_five++] : ones[next_one++]);
  }
  return pool;
}

void EmbWorld::Reset() {
  engine.reset();
  sim.reset();
  lake.reset();
  store.reset();
}

std::vector<SetupStage> EmbWorldStages(const thetis::benchgen::SyntheticKg& kg,
                                       const thetis::Corpus* corpus,
                                       uint64_t seed, EmbWorld* world) {
  return {
      {"embedding.train", "embedding.train_s",
       [&kg, seed, world] {
         world->store = std::make_unique<thetis::EmbeddingStore>(
             thetis::benchgen::TrainBenchmarkEmbeddings(kg, seed));
       }},
      {"semantic.lake_build", "semantic.lake_build_s",
       [&kg, corpus, world] {
         world->lake = std::make_unique<thetis::SemanticDataLake>(corpus, &kg.kg);
       }},
      {"core.engine_build", "core.engine_build_s",
       [world] {
         world->sim = std::make_unique<thetis::EmbeddingCosineSimilarity>(
             world->store.get());
         world->engine = std::make_unique<thetis::SearchEngine>(
             world->lake.get(), world->sim.get());
       }},
  };
}

bool SameHits(const std::vector<SearchHit>& a, const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].table != b[i].table || a[i].score != b[i].score) return false;
  }
  return true;
}

void CorruptHits(std::vector<SearchHit>* hits) {
  if (hits->empty()) {
    hits->push_back(SearchHit{0, 1.0});
  } else {
    hits->front().score += 1.0;
  }
}

void StatsTotals::Add(const thetis::SearchStats& stats) {
  ++queries;
  tables_scored += static_cast<double>(stats.tables_scored);
  tables_pruned += static_cast<double>(stats.tables_pruned);
  candidates += static_cast<double>(stats.candidate_count);
  sim_hits += static_cast<double>(stats.sim_cache_hits);
  sim_misses += static_cast<double>(stats.sim_cache_misses);
  mapping_hits += static_cast<double>(stats.mapping_cache_hits);
  mapping_misses += static_cast<double>(stats.mapping_cache_misses);
  fused_reuses += static_cast<double>(stats.bound_fused_reuses);
}

void StatsTotals::Emit(RunResult* result) const {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double q = static_cast<double>(queries);
  result->Set("core.tables_scored_per_query", ratio(tables_scored, q));
  result->Set("core.prune_rate", ratio(tables_pruned, candidates));
  result->Set("core.sigma_hit_rate", ratio(sim_hits, sim_hits + sim_misses));
  result->Set("assignment.mapping_cache_hit_rate",
              ratio(mapping_hits, mapping_hits + mapping_misses));
  result->Set("exec.fused_reuses_per_query", ratio(fused_reuses, q));
}

namespace {

// Every `stride`-th element, at most `limit` of them.
template <typename T>
std::vector<T> Sample(const std::vector<T>& all, size_t limit) {
  if (all.size() <= limit) return all;
  std::vector<T> out;
  out.reserve(limit);
  const double stride = static_cast<double>(all.size()) / static_cast<double>(limit);
  for (size_t i = 0; i < limit; ++i) {
    out.push_back(all[static_cast<size_t>(static_cast<double>(i) * stride)]);
  }
  return out;
}

std::vector<EntityId> QueryEntities(const std::vector<Query>& queries,
                                    size_t limit) {
  std::vector<EntityId> entities;
  for (const Query& q : queries) {
    for (EntityId e : q.DistinctEntities()) entities.push_back(e);
  }
  std::sort(entities.begin(), entities.end());
  entities.erase(std::unique(entities.begin(), entities.end()), entities.end());
  return Sample(entities, limit);
}

constexpr int kKernelReps = 5;

}  // namespace

void MeasureEngineLayers(const thetis::SearchEngine& engine,
                         const std::vector<Query>& queries,
                         const std::vector<std::vector<TableId>>& candidates,
                         Tracer* tracer, RunResult* result) {
  std::vector<TableId> all(engine.lake()->corpus().size());
  for (TableId t = 0; t < all.size(); ++t) all[t] = t;
  std::vector<size_t> indices(queries.size());
  for (size_t q = 0; q < indices.size(); ++q) indices[q] = q;

  double bound_seconds = 0.0, score_seconds = 0.0, mapping_seconds = 0.0;
  size_t bound_pairs = 0, score_pairs = 0;
  for (size_t qi : Sample(indices, 24)) {
    const Query& query = queries[qi];
    const std::vector<TableId>& pool = candidates.empty() ? all : candidates[qi];
    const std::vector<TableId> bound_tables = Sample(pool, 128);
    const std::vector<TableId> score_tables = Sample(pool, 24);

    // Best of three repetitions of each loop, so one burst of
    // interference does not decide the figure.
    double best_bound = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(tracer, "core.upper_bound");
      const auto t0 = Clock::now();
      for (TableId t : bound_tables) engine.UpperBoundTable(query, t);
      best_bound = std::min(best_bound, Seconds(t0, Clock::now()));
    }
    bound_seconds += best_bound;
    bound_pairs += bound_tables.size();

    double best_score = std::numeric_limits<double>::infinity();
    double best_mapping = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(tracer, "core.score");
      double mapping = 0.0;
      const auto t0 = Clock::now();
      for (TableId t : score_tables) engine.ScoreTable(query, t, &mapping);
      const double elapsed = Seconds(t0, Clock::now());
      if (elapsed < best_score) {
        best_score = elapsed;
        best_mapping = mapping;
      }
    }
    score_seconds += best_score;
    mapping_seconds += best_mapping;
    score_pairs += score_tables.size();
  }
  const auto per = [](double seconds, size_t n) {
    return n == 0 ? 0.0 : 1e6 * seconds / static_cast<double>(n);
  };
  result->Set("core.upper_bound_us_per_table", per(bound_seconds, bound_pairs));
  result->Set("core.score_us_per_table", per(score_seconds, score_pairs));
  result->Set("assignment.mapping_us_per_table", per(mapping_seconds, score_pairs));
}

void MeasureDotKernel(const thetis::EmbeddingStore& store,
                      const std::vector<EntityId>& targets,
                      const std::vector<Query>& queries, Tracer* tracer,
                      RunResult* result) {
  const std::vector<EntityId> ids = Sample(targets, 4096);
  const std::vector<EntityId> probes = QueryEntities(queries, 64);
  if (ids.empty() || probes.empty()) return;
  std::vector<float> out(ids.size());
  const float* base = store.NormalizedData();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kKernelReps; ++rep) {
    ScopedSpan span(tracer, "simd.dot");
    const auto t0 = Clock::now();
    for (EntityId q : probes) {
      thetis::simd::DotBatchGather(store.NormalizedRow(q), base, store.dim(),
                                   ids.data(), ids.size(), out.data());
    }
    best = std::min(best, Seconds(t0, Clock::now()));
  }
  result->Set("simd.dot_ns_per_pair",
              1e9 * best / static_cast<double>(ids.size() * probes.size()));
}

void MeasureBitsetKernel(const thetis::TypeJaccardSimilarity& sim,
                         const std::vector<EntityId>& targets,
                         const std::vector<Query>& queries, Tracer* tracer,
                         RunResult* result) {
  if (!sim.has_bitset()) return;
  const std::vector<EntityId> ids = Sample(targets, 4096);
  const std::vector<EntityId> probes = QueryEntities(queries, 64);
  if (ids.empty() || probes.empty()) return;
  std::vector<uint32_t> out(ids.size());
  const uint64_t* base = sim.bitset_bits().data();
  const size_t words = sim.bitset_words();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kKernelReps; ++rep) {
    ScopedSpan span(tracer, "simd.bitset");
    const auto t0 = Clock::now();
    for (EntityId q : probes) {
      thetis::simd::BitsetIntersectBatch(base + static_cast<size_t>(q) * words,
                                         base, words, ids.data(), ids.size(),
                                         out.data());
    }
    best = std::min(best, Seconds(t0, Clock::now()));
  }
  result->Set("simd.bitset_ns_per_pair",
              1e9 * best / static_cast<double>(ids.size() * probes.size()));
}

std::vector<double> Relevance(const thetis::benchgen::SyntheticKg& kg,
                              const thetis::benchgen::SyntheticLake& lake,
                              const Query& query) {
  return thetis::benchgen::ComputeGroundTruth(kg, lake, query).relevance;
}

double Ndcg10(const std::vector<double>& relevance,
              const std::vector<SearchHit>& hits) {
  return thetis::benchgen::NdcgAtK(thetis::benchgen::HitTables(hits), relevance, 10);
}

size_t VerifyThreads() {
  return std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
}

}  // namespace perfbench
