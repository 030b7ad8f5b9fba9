#ifndef THETIS_ASSIGNMENT_HUNGARIAN_H_
#define THETIS_ASSIGNMENT_HUNGARIAN_H_

#include <cstddef>
#include <vector>

namespace thetis {

// Result of a maximum-score assignment: for each row (query entity) the
// selected column index, or -1 when the row is unassigned (possible only
// when there are more rows than columns).
struct AssignmentResult {
  std::vector<int> column_of_row;
  double total_score = 0.0;
};

// Reusable solver workspace. Every vector is fully re-assigned per solve;
// reusing one instance across calls only reuses capacity, so a warm
// scratch makes the solve allocation-free without changing its result.
struct HungarianScratch {
  std::vector<double> u;
  std::vector<double> v;
  std::vector<double> minv;
  std::vector<size_t> match;
  std::vector<size_t> way;
  std::vector<unsigned char> used;
};

// Solves the maximum-score assignment problem on a dense k x n score matrix
// with the Hungarian method (Kuhn–Munkres, shortest-augmenting-path
// formulation). This is the solver behind the query-entity → table-column
// mapping τ of Section 5.1: each query entity must map to a distinct column
// so that the summed column-relevance score is maximal.
//
// `scores` is row-major (row i at scores + i * n). The problem is solved
// over k rows × max(k, n) columns: when k > n, the k - n extra columns are
// zero-score padding that leaves k - n rows unassigned; when k < n the
// zero-cost padding rows of a square formulation are run only if rounding
// could let them re-route a real row, so a 3 × 6 problem normally costs
// three augmentations, not six, and the assignment always equals the
// square solver's. Writes the column of each row (or -1) to
// column_of_row[0, k) and returns the total score of the assigned cells.
// Scores may be any finite doubles.
double SolveMaxAssignment(const double* scores, size_t k, size_t n,
                          HungarianScratch& scratch, int* column_of_row);

// Convenience form over a rectangular vector-of-rows matrix.
AssignmentResult SolveMaxAssignment(
    const std::vector<std::vector<double>>& scores);

}  // namespace thetis

#endif  // THETIS_ASSIGNMENT_HUNGARIAN_H_
