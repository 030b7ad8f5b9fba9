#include "core/column_mapping.h"

namespace thetis {

void SolveColumnMapping(const double* scores, size_t k, size_t n,
                        HungarianScratch& scratch, ColumnMapping* mapping) {
  mapping->column_of_entity.assign(k, -1);
  mapping->total_score = 0.0;
  if (k == 0 || n == 0) return;
  int* columns = mapping->column_of_entity.data();
  SolveMaxAssignment(scores, k, n, scratch, columns);
  for (size_t i = 0; i < k; ++i) {
    const int c = columns[i];
    if (c < 0) continue;
    const double s = scores[i * n + static_cast<size_t>(c)];
    if (s > 0.0) {
      mapping->total_score += s;
    } else {
      columns[i] = -1;
    }
  }
}

ColumnMapping MapQueryTupleToColumns(const std::vector<EntityId>& query_tuple,
                                     const Table& table,
                                     const EntitySimilarity& sim) {
  DedupScratch dedup;
  ColumnEntityIndex index;
  index.Build(table, dedup);
  // With the tuple itself as the entity list, the stats' sum rows ARE the
  // k x n column-relevance matrix.
  ColumnStats stats;
  ComputeColumnStats(index.View(), query_tuple.data(), query_tuple.size(),
                     sim, &stats);
  HungarianScratch hungarian;
  ColumnMapping mapping;
  SolveColumnMapping(stats.sum.data(), query_tuple.size(), index.num_columns,
                     hungarian, &mapping);
  return mapping;
}

}  // namespace thetis
