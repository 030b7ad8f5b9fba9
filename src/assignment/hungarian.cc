#include "assignment/hungarian.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace thetis {

namespace {

// One shortest-augmenting-path phase: inserts row i (1-indexed) into the
// matching over columns 1..m, updating the potentials. Rows past k are
// zero-cost padding rows; columns past n (present only when k > n) cost 0.
void AugmentRow(const double* scores, size_t k, size_t n, size_t m, size_t i,
                HungarianScratch& scratch) {
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& u = scratch.u;       // row potentials
  std::vector<double>& v = scratch.v;       // column potentials
  std::vector<size_t>& match = scratch.match;  // match[j] = row at column j
  std::vector<size_t>& way = scratch.way;
  std::vector<double>& minv = scratch.minv;
  std::vector<unsigned char>& used = scratch.used;
  match[0] = i;
  size_t j0 = 0;
  minv.assign(m + 1, kInf);
  used.assign(m + 1, 0);
  do {
    used[j0] = 1;
    const size_t i0 = match[j0];
    const double* row = i0 <= k ? scores + (i0 - 1) * n : nullptr;
    double delta = kInf;
    size_t j1 = 0;
    for (size_t j = 1; j <= m; ++j) {
      if (used[j]) continue;
      double cost = row != nullptr && j <= n ? -row[j - 1] : 0.0;
      double cur = cost - u[i0] - v[j];
      if (cur < minv[j]) {
        minv[j] = cur;
        way[j] = j0;
      }
      if (minv[j] < delta) {
        delta = minv[j];
        j1 = j;
      }
    }
    for (size_t j = 0; j <= m; ++j) {
      if (used[j]) {
        u[match[j]] += delta;
        v[j] -= delta;
      } else {
        minv[j] -= delta;
      }
    }
    j0 = j1;
  } while (match[j0] != 0);
  // Augment along the found path.
  do {
    size_t j1 = way[j0];
    match[j0] = match[j1];
    j0 = j1;
  } while (j0 != 0);
}

// Whether the n - k zero-cost padding rows of the square formulation
// would leave the real rows' assignment as it is. A padding row starts
// with reduced cost -v[j] on every column, 0 on every free one (a free
// column has never been on a path, so v[j] is still 0). When every v[j]
// is <= 0 and every real row's reduced cost is >= 0 as the phase itself
// evaluates it, each padding phase moves along zero-delta steps, never
// improves a free column's entry (that needs a strictly negative reduced
// cost), and so ends on a free column without re-routing any real row,
// leaving every potential unchanged for the next padding row. This holds
// in exact arithmetic; it can fail only when rounding leaves a reduced
// cost slightly negative, and then the padding rows are run for real.
bool PaddingRowsAreInert(const double* scores, size_t k, size_t n,
                         const HungarianScratch& scratch) {
  for (size_t j = 1; j <= n; ++j) {
    if (scratch.v[j] > 0.0) return false;
  }
  for (size_t i = 1; i <= k; ++i) {
    const double* row = scores + (i - 1) * n;
    for (size_t j = 1; j <= n; ++j) {
      if (-row[j - 1] - scratch.u[i] - scratch.v[j] < 0.0) return false;
    }
  }
  return true;
}

}  // namespace

double SolveMaxAssignment(const double* scores, size_t k, size_t n,
                          HungarianScratch& scratch, int* column_of_row) {
  std::fill(column_of_row, column_of_row + k, -1);
  if (k == 0 || n == 0) return 0.0;

  // Minimization with cost = -score over max(k, n) columns (1-indexed;
  // index 0 is the virtual source column). Only the k real rows are
  // inserted up front: the zero-cost padding rows a square formulation
  // adds when k < n only matter when rounding makes them re-route a real
  // row, and then they run exactly as the square solver would run them,
  // so the assignment is always the square solver's.
  const size_t m = std::max(k, n);
  scratch.u.assign(m + 1, 0.0);
  scratch.v.assign(m + 1, 0.0);
  scratch.match.assign(m + 1, 0);
  scratch.way.assign(m + 1, 0);
  for (size_t i = 1; i <= k; ++i) AugmentRow(scores, k, n, m, i, scratch);
  if (k < n && !PaddingRowsAreInert(scores, k, n, scratch)) {
    for (size_t i = k + 1; i <= n; ++i) {
      AugmentRow(scores, k, n, m, i, scratch);
    }
  }

  double total = 0.0;
  for (size_t j = 1; j <= n; ++j) {
    const size_t i = scratch.match[j];
    if (i >= 1 && i <= k) {
      column_of_row[i - 1] = static_cast<int>(j - 1);
      total += scores[(i - 1) * n + (j - 1)];
    }
  }
  return total;
}

AssignmentResult SolveMaxAssignment(
    const std::vector<std::vector<double>>& scores) {
  AssignmentResult result;
  const size_t k = scores.size();
  if (k == 0) return result;
  const size_t n = scores[0].size();
  std::vector<double> flat;
  flat.reserve(k * n);
  for (const auto& row : scores) {
    THETIS_CHECK(row.size() == n) << "score matrix must be rectangular";
    flat.insert(flat.end(), row.begin(), row.end());
  }
  HungarianScratch scratch;
  result.column_of_row.resize(k);
  result.total_score =
      SolveMaxAssignment(flat.data(), k, n, scratch, result.column_of_row.data());
  return result;
}

}  // namespace thetis
