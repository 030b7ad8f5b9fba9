#ifndef THETIS_CORE_COLUMN_MAPPING_H_
#define THETIS_CORE_COLUMN_MAPPING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "assignment/hungarian.h"
#include "core/similarity.h"
#include "table/table.h"

namespace thetis {

// The query-tuple → table-column mapping τ of Section 5.1: each query
// entity is assigned to a distinct table column so that the summed
// column-relevance score Σ_i score(e_i, τ(e_i)) is maximal, where
// score(e, C) = Σ_{ē ∈ C} σ(e, ē) over the column's linked entities.
struct ColumnMapping {
  // column_of_entity[i] is the column assigned to query entity i, or -1 when
  // no column carries any positive similarity for it (or there are fewer
  // columns than query entities).
  std::vector<int> column_of_entity;
  // The maximized cumulative score.
  double total_score = 0.0;
};

// Epoch-stamped membership table for O(1)-per-cell column dedup. `stamp`
// and `slot` are indexed by entity id (grown on demand); an entity is "in
// the current column" iff its stamp equals the current epoch, so clearing
// between columns is a single epoch increment, not a table wipe.
struct DedupScratch {
  std::vector<uint32_t> stamp;
  std::vector<uint32_t> slot;
  uint32_t epoch = 0;
};

// Non-owning view of one table's dedup'd columns inside a (possibly
// shared) CSR layout. `offsets` points at this table's num_columns + 1
// offset entries; the offsets are ABSOLUTE positions into the backing
// `distinct`/`counts` pools, so a view works equally over a standalone
// per-table ColumnEntityIndex (offsets start at 0) and over a slice of
// the corpus-wide arena (offsets start wherever the table's data lives).
// A table's full distinct-entity union is the contiguous pool range
// [DistinctBegin(), DistinctEnd()) — one batched σ pass covers it.
struct ColumnIndexView {
  const uint32_t* offsets = nullptr;   // num_columns + 1 entries
  const EntityId* distinct = nullptr;  // pool base, NOT table base
  const double* counts = nullptr;      // pool base, NOT table base
  size_t num_columns = 0;

  size_t ColumnSize(size_t c) const { return offsets[c + 1] - offsets[c]; }
  const EntityId* ColumnDistinct(size_t c) const {
    return distinct + offsets[c];
  }
  const double* ColumnCounts(size_t c) const { return counts + offsets[c]; }
  uint32_t DistinctBegin() const { return offsets[0]; }
  uint32_t DistinctEnd() const { return offsets[num_columns]; }
  size_t DistinctCount() const { return DistinctEnd() - DistinctBegin(); }
};

// Appends one table's dedup'd columns to a CSR layout: pushes the leading
// offset (current pool size) followed by one end offset per column, and
// the column's distinct entities (first-occurrence order) with
// multiplicities into the parallel pools. Shared by the per-table
// ColumnEntityIndex::Build (pools start empty, offsets start at 0) and
// the corpus-wide arena build (pools accumulate across tables), so both
// produce bit-identical per-table content.
inline void AppendTableColumns(const Table& table, DedupScratch& dedup,
                               std::vector<uint32_t>* offsets,
                               std::vector<EntityId>* distinct,
                               std::vector<double>* counts) {
  offsets->push_back(static_cast<uint32_t>(distinct->size()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ++dedup.epoch;
    if (dedup.epoch == 0) {  // epoch wrapped: invalidate all stamps
      std::fill(dedup.stamp.begin(), dedup.stamp.end(), 0u);
      dedup.epoch = 1;
    }
    uint32_t base = offsets->back();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      EntityId e = table.link(r, c);
      if (e == kNoEntity) continue;
      if (e >= dedup.stamp.size()) {
        dedup.stamp.resize(static_cast<size_t>(e) + 1, 0u);
        dedup.slot.resize(static_cast<size_t>(e) + 1, 0u);
      }
      if (dedup.stamp[e] != dedup.epoch) {
        dedup.stamp[e] = dedup.epoch;
        dedup.slot[e] = static_cast<uint32_t>(distinct->size() - base);
        distinct->push_back(e);
        counts->push_back(1.0);
      } else {
        (*counts)[base + dedup.slot[e]] += 1.0;
      }
    }
    offsets->push_back(static_cast<uint32_t>(distinct->size()));
  }
}

// A table's linked columns collapsed to distinct entities with
// multiplicities, CSR-flattened (offsets + parallel distinct/counts pools).
// The fused scoring kernel (ComputeColumnStats) only needs "which distinct
// entities does column c hold, how often" since σ is pure, so repeated
// cells are scored once. Tables covered by the engine's
// CorpusColumnArena never build one of these at query time; this remains
// the fallback for tables added to the corpus after engine construction.
struct ColumnEntityIndex {
  std::vector<uint32_t> offsets;   // num_columns + 1
  std::vector<EntityId> distinct;  // first-occurrence order within a column
  std::vector<double> counts;
  size_t num_columns = 0;

  void Build(const Table& table, DedupScratch& dedup) {
    num_columns = table.num_columns();
    offsets.clear();
    distinct.clear();
    counts.clear();
    AppendTableColumns(table, dedup, &offsets, &distinct, &counts);
  }

  ColumnIndexView View() const {
    return ColumnIndexView{offsets.data(), distinct.data(), counts.data(),
                           num_columns};
  }

  size_t ColumnSize(size_t c) const { return offsets[c + 1] - offsets[c]; }
};

// Per-column σ statistics of a list of query entities against one table:
// the fused scoring kernel's output, everything the mapping matrix and the
// row aggregation of Algorithm 1 (lines 5-13) read. Entry [q * num_columns
// + c] describes query entity q against column c:
//  * sum    — Σ_d count_d · σ(e_q, d) over the column's distinct entities
//             in first-occurrence order: the column-relevance matrix cell
//             of Section 5.1 and the kAvg numerator;
//  * max    — the largest σ in the column, 0 when none is positive: the
//             kMax coordinate;
//  * argmax — the first distinct entity reaching `max` under a strict >
//             scan (kNoEntity when max is 0): Explain's best match.
// `sigma` is the kernel's scratch (σ over the table's whole pool).
struct ColumnStats {
  size_t num_columns = 0;
  std::vector<double> sum;
  std::vector<double> max;
  std::vector<EntityId> argmax;
  std::vector<double> sigma;

  const double* SumRow(size_t q) const { return sum.data() + q * num_columns; }
};

// The fused scoring kernel: ONE batched σ pass per query entity over the
// table's contiguous distinct-entity pool [DistinctBegin, DistinctEnd),
// from which every column's sum, max and argmax are derived in a single
// walk. Per column the walk visits the same entities in the same order as
// a column-at-a-time scan (the pool is the concatenation of the columns),
// accumulates `acc += count · σ` from 0.0 and keeps the first maximum with
// a strict >, so each statistic is bit-identical to scoring the column on
// its own. kNoEntity query entities get all-zero rows. Templated over the
// concrete similarity so a final class (SimilarityMemo) devirtualizes the
// batch probe.
template <typename Sim>
void ComputeColumnStats(ColumnIndexView index, const EntityId* entities,
                        size_t num_entities, const Sim& sim,
                        ColumnStats* stats) {
  const size_t n = index.num_columns;
  stats->num_columns = n;
  stats->sum.assign(num_entities * n, 0.0);
  stats->max.assign(num_entities * n, 0.0);
  stats->argmax.assign(num_entities * n, kNoEntity);
  const size_t pool = index.DistinctCount();
  if (pool == 0) return;
  const uint32_t base = index.DistinctBegin();
  const EntityId* distinct = index.distinct + base;
  const double* counts = index.counts + base;
  stats->sigma.resize(pool);
  double* sigma = stats->sigma.data();
  for (size_t q = 0; q < num_entities; ++q) {
    if (entities[q] == kNoEntity) continue;
    sim.ScoreBatch(entities[q], distinct, pool, sigma);
    double* sum = stats->sum.data() + q * n;
    double* max = stats->max.data() + q * n;
    EntityId* argmax = stats->argmax.data() + q * n;
    for (size_t c = 0; c < n; ++c) {
      const uint32_t end = index.offsets[c + 1] - base;
      double acc = 0.0;
      double best = 0.0;
      EntityId best_entity = kNoEntity;
      for (uint32_t d = index.offsets[c] - base; d < end; ++d) {
        const double s = sigma[d];
        acc += counts[d] * s;
        if (s > best) {
          best = s;
          best_entity = distinct[d];
        }
      }
      sum[c] = acc;
      max[c] = best;
      argmax[c] = best_entity;
    }
  }
}

// Solves τ over a filled k x n column-relevance matrix (row-major) into
// `mapping`, whose capacity is reused. Entities whose assigned column
// scores 0 stay unmapped (-1), matching the σ > 0 requirement on relevant
// mappings; total_score sums the kept cells in row order.
void SolveColumnMapping(const double* scores, size_t k, size_t n,
                        HungarianScratch& scratch, ColumnMapping* mapping);

// Computes τ for one query tuple against one table: one fused σ pass per
// tuple entity, then the Hungarian mapping (virtual σ dispatch).
ColumnMapping MapQueryTupleToColumns(const std::vector<EntityId>& query_tuple,
                                     const Table& table,
                                     const EntitySimilarity& sim);

}  // namespace thetis

#endif  // THETIS_CORE_COLUMN_MAPPING_H_
