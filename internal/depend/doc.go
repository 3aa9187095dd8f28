// Package depend implements the statistical dependency measure S of the
// paper (Equation 2): a symmetric score in [0, 1] quantifying how
// interdependent two columns are. The tightness of a candidate view is the
// minimum pairwise dependency of its columns, and Ziggy only reports views
// whose tightness clears the user threshold MIN_tight.
//
// Three measures are provided, selectable per engine configuration:
// absolute Pearson correlation (the default, matching the paper's
// implementation), absolute Spearman rank correlation (robust to monotone
// non-linearity), and normalized binned mutual information (captures
// arbitrary dependencies at higher cost). Heterogeneous column pairs fall
// back to the correlation ratio η (numeric vs categorical) or Cramér's V
// (categorical vs categorical) under every measure.
//
// Matrix is the preparation-stage product: the full pairwise dependency
// matrix over a frame's columns, cached per table by the engine and shared
// across queries (the paper's computation-sharing strategy). Its
// construction is the dominant O(cols²) preparation cost. Cell (i, j) is
// Pairwise(column min(i,j), column max(i,j)) bit for bit — Pairwise itself
// is not bitwise symmetric for two categorical columns, because Cramér's V
// sums χ² in the first argument's level order.
//
// NewMatrixParallel gets there in two phases. A per-column phase computes
// every statistic that does not depend on the partner once: validity
// words, the non-NULL count, mean and Σdx², the Welford moments η needs
// (four columns at a time, stats.Moments4), and under AbsSpearman each
// NULL-free column's rank vector (cols ranking sorts instead of
// 2·cols·(cols−1)). The pair phase then accumulates only what depends on
// the pair, blocked so that several floating-point accumulators are in
// flight, each summing its terms in row order:
//
//   - NULL-free numeric pairs, Pearson over values or Spearman over ranks:
//     a 4×2 register tile, centred in registers (no centred column copies).
//   - A NULL-bearing × NULL-free numeric pair under AbsPearson: the
//     NULL-bearing column's mean and Σdx² are shared by every partner; Σy,
//     Σdxdy and Σdy² run four partners at a time off its validity words.
//   - A NULL-free categorical × numeric pair (η): the rows are sorted by
//     level once, the level counts and each partner's total are hoisted,
//     and four partners' level sums run per pass.
//   - Every other pair computes Pairwise's statistic over per-worker
//     scratch.
//
// Tasks are tile panels, block rows and per-column remainders; each cell is
// written by exactly one task, so the matrix is identical for every worker
// count, and the pair phase allocates nothing per pair.
package depend
