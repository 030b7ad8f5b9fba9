// Helpers shared by the workloads: query sets, ranking checks, SearchStats
// totals, and the per-layer timings the traced runs take by calling each
// module's public functions directly.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "benchgen/synthetic_kg.h"
#include "benchgen/synthetic_lake.h"
#include "core/search_engine.h"
#include "core/similarity.h"
#include "embedding/embedding_store.h"
#include "harness.h"
#include "semantic/semantic_data_lake.h"

namespace perfbench {

// The paper's query mix: `five` 5-tuple queries of width 3 plus `one`
// 1-tuple queries (the first tuple of the first `one` 5-tuple queries),
// shuffled by `seed`.
std::vector<thetis::Query> MixedQueries(const thetis::benchgen::SyntheticKg& kg,
                                        size_t five, size_t one, uint64_t seed);

// A Zipf-ranked pool of `n` queries in the same mix by traffic: walking the
// ranks in order, a rank gets a five-tuple query while the five-tuple ranks
// so far carry less than kFiveTupleShare of the Zipf weight so far, and a
// one-tuple query (from MixedQueries) otherwise. The ranks do not depend
// on the seed.
std::vector<thetis::Query> ZipfMixedPool(const thetis::benchgen::SyntheticKg& kg,
                                         size_t n, double zipf_exponent,
                                         uint64_t seed);

// Share of five-tuple queries in every workload's mix: 3:2, because with
// equal shares the median falls on the gap between the two cost classes.
constexpr double kFiveTupleShare = 0.6;

// The closed loops' queries, which serve_churn also uses for its quality
// sweep: 200 distinct queries in the 3:2 mix (so that p90 has 20 beyond
// it), fewer at a scale below 1.
std::vector<thetis::Query> WorkloadQueries(const thetis::benchgen::SyntheticKg& kg,
                                           double scale, uint64_t seed);

// The embeddings world of exact_emb and serve_churn: trained embeddings,
// a lake, cosine σ and an engine with default options.
struct EmbWorld {
  std::unique_ptr<thetis::EmbeddingStore> store;
  std::unique_ptr<thetis::SemanticDataLake> lake;
  std::unique_ptr<thetis::EmbeddingCosineSimilarity> sim;
  std::unique_ptr<thetis::SearchEngine> engine;

  // Destroys the world, users before what they point to.
  void Reset();
};

// Set-up stages that build `world` over `corpus`: embedding training
// (embedding.train_s), lake (semantic.lake_build_s), σ and engine
// (core.engine_build_s).
std::vector<SetupStage> EmbWorldStages(const thetis::benchgen::SyntheticKg& kg,
                                       const thetis::Corpus* corpus,
                                       uint64_t seed, EmbWorld* world);

// Bit-exact ranking equality: same tables, same scores, same order.
bool SameHits(const std::vector<thetis::SearchHit>& a,
              const std::vector<thetis::SearchHit>& b);

// Makes a ranking wrong in a way any exact check must notice.
void CorruptHits(std::vector<thetis::SearchHit>* hits);

// Sums of the SearchStats counters the per-layer metrics are built from.
struct StatsTotals {
  size_t queries = 0;
  double tables_scored = 0;
  double tables_pruned = 0;
  double candidates = 0;
  double sim_hits = 0;
  double sim_misses = 0;
  double mapping_hits = 0;
  double mapping_misses = 0;
  double fused_reuses = 0;

  void Add(const thetis::SearchStats& stats);
  // core.tables_scored_per_query, core.prune_rate, core.sigma_hit_rate,
  // assignment.mapping_cache_hit_rate, exec.fused_reuses_per_query.
  void Emit(RunResult* result) const;
};

// Times UpperBoundTable and ScoreTable on a deterministic sample of
// (query, candidate table) pairs and sets core.upper_bound_us_per_table,
// core.score_us_per_table and assignment.mapping_us_per_table. An empty
// `candidates` means every table of the engine's corpus.
void MeasureEngineLayers(const thetis::SearchEngine& engine,
                         const std::vector<thetis::Query>& queries,
                         const std::vector<std::vector<thetis::TableId>>& candidates,
                         Tracer* tracer, RunResult* result);

// fp32 one-vs-many dot over the store's normalized arena, gathered at the
// lake's mentioned entities (simd.dot_ns_per_pair).
void MeasureDotKernel(const thetis::EmbeddingStore& store,
                      const std::vector<thetis::EntityId>& targets,
                      const std::vector<thetis::Query>& queries,
                      Tracer* tracer, RunResult* result);

// Popcount intersection over the similarity's packed type bitsets
// (simd.bitset_ns_per_pair); leaves the metric unset when the vocabulary
// is too large for the bitset backend.
void MeasureBitsetKernel(const thetis::TypeJaccardSimilarity& sim,
                         const std::vector<thetis::EntityId>& targets,
                         const std::vector<thetis::Query>& queries,
                         Tracer* tracer, RunResult* result);

// benchgen's graded relevance of every table of `lake` to `query`.
std::vector<double> Relevance(const thetis::benchgen::SyntheticKg& kg,
                              const thetis::benchgen::SyntheticLake& lake,
                              const thetis::Query& query);

// NDCG@10 of `hits` against `relevance`.
double Ndcg10(const std::vector<double>& relevance,
              const std::vector<thetis::SearchHit>& hits);

// Threads for the untimed verification passes.
size_t VerifyThreads();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
