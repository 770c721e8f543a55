#ifndef SCIBORQ_EXEC_KERNELS_H_
#define SCIBORQ_EXEC_KERNELS_H_

#include <cstdint>

#include "exec/expr.h"

namespace sciborq {

// ---------------------------------------------------------------------------
// Vectorized filter kernels — the tight loops behind predicate evaluation
// over null-free dense row ranges. Each kernel writes the matching row ids
// of [begin, end) into `out` (which must have room for end - begin entries)
// and returns the match count. Rows are emitted in ascending order, so the
// output is a valid SelectionVector segment.
//
// The scalar bodies are branchless (`out[k] = row; k += matched`) so the
// compiler can keep the loop free of unpredictable branches; the double
// kernels additionally carry an explicit AVX2 path selected once per process
// via __builtin_cpu_supports. Both paths implement exactly the semantics of
// the row-at-a-time oracle (Predicate::Matches): IEEE comparisons, so NaN
// fails every ordered comparison and matches kNe. int64 values compare
// through the same double cast Column::NumericAt applies.
// ---------------------------------------------------------------------------

int64_t FilterDoubleCompare(const double* vals, int64_t begin, int64_t end,
                            CompareOp op, double want, int64_t* out);
int64_t FilterInt64Compare(const int64_t* vals, int64_t begin, int64_t end,
                           CompareOp op, double want, int64_t* out);

/// lo <= v <= hi (inclusive both ends, NaN never matches).
int64_t FilterDoubleBetween(const double* vals, int64_t begin, int64_t end,
                            double lo, double hi, int64_t* out);
int64_t FilterInt64Between(const int64_t* vals, int64_t begin, int64_t end,
                           double lo, double hi, int64_t* out);

// ---------------------------------------------------------------------------
// Gather-filter kernels — the narrowing step of a conjunction. Each keeps the
// rows of sel[0, n) whose value passes, compacting them in place at the front
// of `sel`, and returns the kept count. Order is preserved, so an ascending
// selection stays ascending. Same semantics and branchless form as the range
// kernels above; scalar only, since an AVX2 gather measured no faster.
// ---------------------------------------------------------------------------

int64_t FilterDoubleCompareSel(const double* vals, int64_t* sel, int64_t n,
                               CompareOp op, double want);
int64_t FilterInt64CompareSel(const int64_t* vals, int64_t* sel, int64_t n,
                              CompareOp op, double want);
int64_t FilterDoubleBetweenSel(const double* vals, int64_t* sel, int64_t n,
                               double lo, double hi);
int64_t FilterInt64BetweenSel(const int64_t* vals, int64_t* sel, int64_t n,
                              double lo, double hi);

/// The cone test of Predicate Cone over two null-free numeric columns:
/// dx*dx + dy*dy <= r2 with dx = x - x0, dy = y - y0, evaluated in exactly
/// that order and without FMA contraction, so every row agrees bit for bit
/// with the row-at-a-time oracle. X and Y are double or int64_t (cast to
/// double first, as Column::NumericAt does). FilterCone writes the matching
/// rows of [begin, end) into `out`; FilterConeSel narrows `sel` in place.
template <typename X, typename Y>
int64_t FilterCone(const X* xs, const Y* ys, int64_t begin, int64_t end,
                   double x0, double y0, double r2, int64_t* out);
template <typename X, typename Y>
int64_t FilterConeSel(const X* xs, const Y* ys, int64_t* sel, int64_t n,
                      double x0, double y0, double r2);

/// True when this process dispatches the double kernels to the AVX2 path
/// (x86-64 with AVX2 detected at runtime). Exposed for tests and benches.
bool KernelsUseAvx2();

}  // namespace sciborq

#endif  // SCIBORQ_EXEC_KERNELS_H_
