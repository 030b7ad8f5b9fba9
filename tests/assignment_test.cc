#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "assignment/hungarian.h"
#include "util/rng.h"

namespace thetis {
namespace {

// Brute-force optimal assignment by permutation enumeration over the padded
// square problem, for cross-checks: row i takes padded column perm[i]; cells
// outside the real k x n matrix contribute 0.
double BruteForceBest(const std::vector<std::vector<double>>& scores) {
  size_t k = scores.size();
  size_t n = scores[0].size();
  size_t m = std::max(k, n);
  std::vector<size_t> cols(m);
  for (size_t j = 0; j < m; ++j) cols[j] = j;
  double best = -1e18;
  do {
    double total = 0.0;
    for (size_t i = 0; i < k; ++i) {
      if (cols[i] < n) total += scores[i][cols[i]];
    }
    best = std::max(best, total);
  } while (std::next_permutation(cols.begin(), cols.end()));
  return best;
}

// Every injective map of the k rows into the m = max(k, n) padded columns
// (columns >= n are zero-score padding, i.e. "unassigned"), enumerated
// recursively: the optimum the solver must reach, with no permutation
// reuse between rows.
void EnumerateInjective(const std::vector<std::vector<double>>& scores,
                        size_t row, size_t m, std::vector<bool>& taken,
                        double total, double* best) {
  if (row == scores.size()) {
    *best = std::max(*best, total);
    return;
  }
  const size_t n = scores[0].size();
  for (size_t j = 0; j < m; ++j) {
    if (taken[j]) continue;
    taken[j] = true;
    EnumerateInjective(scores, row + 1, m, taken,
                       total + (j < n ? scores[row][j] : 0.0), best);
    taken[j] = false;
  }
}

double InjectiveOptimum(const std::vector<std::vector<double>>& scores) {
  const size_t m = std::max(scores.size(), scores[0].size());
  std::vector<bool> taken(m, false);
  double best = -std::numeric_limits<double>::infinity();
  EnumerateInjective(scores, 0, m, taken, 0.0, &best);
  return best;
}

// The square-padded solver the rectangular one replaced, kept verbatim
// (minus the scratch plumbing) as a differential oracle: it pads every
// k x n problem to max(k, n)^2 and also runs the zero-cost padding rows.
std::vector<int> PaddedSquareOracle(
    const std::vector<std::vector<double>>& scores) {
  size_t k = scores.size();
  size_t n = scores[0].size();
  size_t m = std::max(k, n);
  auto cost = [&](size_t i, size_t j) -> double {
    if (i < k && j < n) return -scores[i][j];
    return 0.0;
  };
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(m + 1, 0.0), v(m + 1, 0.0), minv;
  std::vector<size_t> match(m + 1, 0), way(m + 1, 0);
  std::vector<bool> used;
  for (size_t i = 1; i <= m; ++i) {
    match[0] = i;
    size_t j0 = 0;
    minv.assign(m + 1, kInf);
    used.assign(m + 1, false);
    do {
      used[j0] = true;
      size_t i0 = match[j0];
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
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
    do {
      size_t j1 = way[j0];
      match[j0] = match[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<int> column_of_row(k, -1);
  for (size_t j = 1; j <= m; ++j) {
    size_t i = match[j];
    if (i >= 1 && i <= k && j <= n) {
      column_of_row[i - 1] = static_cast<int>(j - 1);
    }
  }
  return column_of_row;
}

// Small integer multiples of 0.25 (exact in binary), about half of them
// zero: the tie-heavy regime of real column sums, where different optimal
// assignments abound and only the solver's tie rule picks one.
std::vector<std::vector<double>> TieHeavyMatrix(Rng& rng, size_t k,
                                                size_t n) {
  std::vector<std::vector<double>> scores(k, std::vector<double>(n, 0.0));
  for (auto& row : scores) {
    for (double& v : row) {
      if (rng.NextBernoulli(0.5)) v = 0.25 * (1 + rng.NextBounded(4));
    }
  }
  return scores;
}

TEST(HungarianTest, EmptyMatrix) {
  AssignmentResult r = SolveMaxAssignment({});
  EXPECT_TRUE(r.column_of_row.empty());
  EXPECT_DOUBLE_EQ(r.total_score, 0.0);
}

TEST(HungarianTest, ZeroColumns) {
  AssignmentResult r = SolveMaxAssignment({{}, {}});
  EXPECT_EQ(r.column_of_row, (std::vector<int>{-1, -1}));
}

TEST(HungarianTest, SingleCell) {
  AssignmentResult r = SolveMaxAssignment({{0.7}});
  EXPECT_EQ(r.column_of_row, (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(r.total_score, 0.7);
}

TEST(HungarianTest, PicksOffDiagonalWhenBetter) {
  // Greedy would take (0,0)=0.9 then be stuck with (1,1)=0.0; optimum is
  // 0.8 + 0.8.
  AssignmentResult r = SolveMaxAssignment({{0.9, 0.8}, {0.8, 0.0}});
  EXPECT_DOUBLE_EQ(r.total_score, 1.6);
  EXPECT_EQ(r.column_of_row, (std::vector<int>{1, 0}));
}

TEST(HungarianTest, RectangularWide) {
  // 2 rows, 4 columns.
  AssignmentResult r = SolveMaxAssignment(
      {{0.1, 0.2, 0.9, 0.3}, {0.8, 0.1, 0.9, 0.2}});
  EXPECT_DOUBLE_EQ(r.total_score, 0.9 + 0.8);
  std::set<int> used(r.column_of_row.begin(), r.column_of_row.end());
  EXPECT_EQ(used.size(), 2u);  // distinct columns
}

TEST(HungarianTest, RectangularTallLeavesRowsUnassigned) {
  // 3 rows, 1 column: only one row can be assigned.
  AssignmentResult r = SolveMaxAssignment({{0.3}, {0.9}, {0.5}});
  int assigned = 0;
  for (int c : r.column_of_row) {
    if (c >= 0) ++assigned;
  }
  EXPECT_EQ(assigned, 1);
  EXPECT_DOUBLE_EQ(r.total_score, 0.9);
  EXPECT_EQ(r.column_of_row[1], 0);
}

TEST(HungarianTest, InjectivityProperty) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    size_t k = 1 + rng.NextBounded(5);
    size_t n = 1 + rng.NextBounded(5);
    std::vector<std::vector<double>> scores(k, std::vector<double>(n));
    for (auto& row : scores) {
      for (double& v : row) v = rng.NextDouble();
    }
    AssignmentResult r = SolveMaxAssignment(scores);
    std::set<int> used;
    for (int c : r.column_of_row) {
      if (c >= 0) {
        EXPECT_TRUE(used.insert(c).second) << "column assigned twice";
        EXPECT_LT(static_cast<size_t>(c), n);
      }
    }
  }
}

TEST(HungarianTest, MatchesBruteForceOnRandomMatrices) {
  Rng rng(22);
  for (int trial = 0; trial < 40; ++trial) {
    size_t k = 1 + rng.NextBounded(4);
    size_t n = 1 + rng.NextBounded(5);  // n <= 5 keeps 5! enumerations cheap
    std::vector<std::vector<double>> scores(k, std::vector<double>(n));
    for (auto& row : scores) {
      for (double& v : row) v = rng.NextDouble();
    }
    AssignmentResult r = SolveMaxAssignment(scores);
    EXPECT_NEAR(r.total_score, BruteForceBest(scores), 1e-9)
        << "trial " << trial;
  }
}

TEST(HungarianTest, TotalEqualsSumOfChosenCells) {
  Rng rng(23);
  std::vector<std::vector<double>> scores(4, std::vector<double>(6));
  for (auto& row : scores) {
    for (double& v : row) v = rng.NextDouble();
  }
  AssignmentResult r = SolveMaxAssignment(scores);
  double total = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (r.column_of_row[i] >= 0) total += scores[i][r.column_of_row[i]];
  }
  EXPECT_NEAR(r.total_score, total, 1e-12);
}

TEST(HungarianTest, AllZeroMatrix) {
  AssignmentResult r =
      SolveMaxAssignment({{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_DOUBLE_EQ(r.total_score, 0.0);
}

TEST(HungarianTest, MatchesInjectiveEnumerationUpTo4x7) {
  Rng rng(24);
  for (size_t k = 1; k <= 4; ++k) {
    for (size_t n = 1; n <= 7; ++n) {
      for (int trial = 0; trial < 30; ++trial) {
        // Alternate exact quarter grids (totals compare with ==) and real
        // values of either sign (totals compare to rounding).
        const bool grid = (trial % 2) == 0;
        std::vector<std::vector<double>> scores =
            grid ? TieHeavyMatrix(rng, k, n)
                 : std::vector<std::vector<double>>(k,
                                                    std::vector<double>(n));
        if (!grid) {
          for (auto& row : scores) {
            for (double& v : row) v = 2.0 * rng.NextDouble() - 0.5;
          }
        }
        AssignmentResult r = SolveMaxAssignment(scores);
        const double want = InjectiveOptimum(scores);
        if (grid) {
          EXPECT_EQ(r.total_score, want) << k << "x" << n << " #" << trial;
        } else {
          EXPECT_NEAR(r.total_score, want, 1e-12)
              << k << "x" << n << " #" << trial;
        }
        // The reported total is realized by an injective assignment that
        // fills min(k, n) rows.
        std::set<int> cols;
        double realized = 0.0;
        for (size_t i = 0; i < k; ++i) {
          const int c = r.column_of_row[i];
          if (c < 0) continue;
          EXPECT_TRUE(cols.insert(c).second);
          realized += scores[i][static_cast<size_t>(c)];
        }
        EXPECT_EQ(cols.size(), std::min(k, n));
        EXPECT_NEAR(realized, r.total_score, 1e-12);
      }
    }
  }
}

TEST(HungarianTest, RectangularSolverMatchesPaddedSquareOnTies) {
  Rng rng(25);
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t k = 1 + rng.NextBounded(5);
    const size_t n = 1 + rng.NextBounded(7);
    std::vector<std::vector<double>> scores = TieHeavyMatrix(rng, k, n);
    ASSERT_EQ(SolveMaxAssignment(scores).column_of_row,
              PaddedSquareOracle(scores))
        << k << "x" << n << " trial " << trial;
  }
}

// Column sums the way the scorer forms them — Σ count · σ over a column's
// entities with Jaccard-like σ = a / b — where several columns hold the
// same entities in a different order: their sums agree mathematically but
// may differ in the last bit, so reduced costs land a rounding error away
// from zero. This is where the zero-cost padding rows of the square solver
// can re-route a real row, and where the rectangular solver must run them.
std::vector<std::vector<double>> RoundingTieMatrix(Rng& rng, size_t k,
                                                   size_t n) {
  std::vector<std::vector<double>> scores(k, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < k; ++i) {
    std::vector<double> terms(2 + rng.NextBounded(5));
    for (double& t : terms) {
      t = rng.NextBernoulli(0.3)
              ? 0.0
              : (1.0 + rng.NextBounded(3)) *
                    (static_cast<double>(1 + rng.NextBounded(6)) /
                     static_cast<double>(7 + rng.NextBounded(6)));
    }
    for (size_t j = 0; j < n; ++j) {
      if (rng.NextBernoulli(0.3)) continue;  // an unrelated column: 0
      std::vector<double> order = terms;
      for (size_t a = order.size(); a > 1; --a) {
        std::swap(order[a - 1], order[rng.NextBounded(a)]);
      }
      double acc = 0.0;
      for (double t : order) acc += t;
      scores[i][j] = acc;
    }
  }
  return scores;
}

TEST(HungarianTest, RectangularSolverMatchesPaddedSquareOnRoundingTies) {
  Rng rng(27);
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t k = 1 + rng.NextBounded(5);
    const size_t n = 1 + rng.NextBounded(7);
    std::vector<std::vector<double>> scores = RoundingTieMatrix(rng, k, n);
    ASSERT_EQ(SolveMaxAssignment(scores).column_of_row,
              PaddedSquareOracle(scores))
        << k << "x" << n << " trial " << trial;
  }
}

TEST(HungarianTest, FlatSolverReusesScratchAcrossShapes) {
  // One warm scratch across shapes, including k > n and k < n, gives the
  // same answers as a fresh solve each time.
  Rng rng(26);
  HungarianScratch scratch;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t k = 1 + rng.NextBounded(5);
    const size_t n = 1 + rng.NextBounded(7);
    std::vector<double> flat(k * n);
    std::vector<std::vector<double>> rows(k, std::vector<double>(n));
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < n; ++j) {
        flat[i * n + j] = rows[i][j] = rng.NextDouble();
      }
    }
    std::vector<int> cols(k, 7);
    const double total =
        SolveMaxAssignment(flat.data(), k, n, scratch, cols.data());
    AssignmentResult fresh = SolveMaxAssignment(rows);
    EXPECT_EQ(cols, fresh.column_of_row);
    EXPECT_EQ(total, fresh.total_score);
  }
}

}  // namespace
}  // namespace thetis
