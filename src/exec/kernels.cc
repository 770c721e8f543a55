#include "exec/kernels.h"

#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sciborq {

namespace {

template <CompareOp op>
inline bool CmpDouble(double v, double want) {
  if constexpr (op == CompareOp::kEq) return v == want;
  if constexpr (op == CompareOp::kNe) return v != want;
  if constexpr (op == CompareOp::kLt) return v < want;
  if constexpr (op == CompareOp::kLe) return v <= want;
  if constexpr (op == CompareOp::kGt) return v > want;
  if constexpr (op == CompareOp::kGe) return v >= want;
  return false;
}

/// Calls fn(tag) with the runtime `op` as the compile-time tag::value, so
/// each kernel loop is instantiated per operator with no switch inside it.
template <typename Fn>
int64_t WithOp(CompareOp op, Fn fn) {
  using Op = CompareOp;
  switch (op) {
    case Op::kEq:
      return fn(std::integral_constant<Op, Op::kEq>());
    case Op::kNe:
      return fn(std::integral_constant<Op, Op::kNe>());
    case Op::kLt:
      return fn(std::integral_constant<Op, Op::kLt>());
    case Op::kLe:
      return fn(std::integral_constant<Op, Op::kLe>());
    case Op::kGt:
      return fn(std::integral_constant<Op, Op::kGt>());
    case Op::kGe:
      return fn(std::integral_constant<Op, Op::kGe>());
  }
  return 0;
}

/// Writes the rows of [begin, end) that pass `keep` to out[0...], in order
/// and branch-free: every row is stored, the count advances on a match.
template <typename Keep>
int64_t ScalarRange(int64_t begin, int64_t end, int64_t* out, Keep keep) {
  int64_t k = 0;
  for (int64_t row = begin; row < end; ++row) {
    out[k] = row;
    k += keep(row) ? 1 : 0;
  }
  return k;
}

/// The gather form: keeps the rows of sel[0, n) that pass `keep`, compacted
/// in order at the front of `sel`. The write to sel[k] never overtakes the
/// read of sel[i] (k <= i), so the selection narrows in place.
template <typename Keep>
int64_t ScalarSel(int64_t* sel, int64_t n, Keep keep) {
  int64_t k = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t row = sel[i];
    sel[k] = row;
    k += keep(row) ? 1 : 0;
  }
  return k;
}

// Per-row tests, shared by the scalar kernels and the AVX2 tails. Values
// compare through the same double cast Column::NumericAt applies.

template <CompareOp op, typename T>
auto CompareKeep(const T* vals, double want) {
  return [vals, want](int64_t row) {
    return CmpDouble<op>(static_cast<double>(vals[row]), want);
  };
}

template <typename T>
auto BetweenKeep(const T* vals, double lo, double hi) {
  return [vals, lo, hi](int64_t row) {
    const double v = static_cast<double>(vals[row]);
    return v >= lo && v <= hi;
  };
}

/// The cone oracle's expression, in its order.
template <typename X, typename Y>
auto ConeKeep(const X* xs, const Y* ys, double x0, double y0, double r2) {
  return [xs, ys, x0, y0, r2](int64_t row) {
    const double dx = static_cast<double>(xs[row]) - x0;
    const double dy = static_cast<double>(ys[row]) - y0;
    return dx * dx + dy * dy <= r2;
  };
}

#if defined(__x86_64__)

bool DetectAvx2() { return __builtin_cpu_supports("avx2") != 0; }

/// The _mm256_cmp_pd immediate matching CmpDouble<op> under IEEE semantics:
/// ordered-quiet for every op except kNe, which must be unordered so NaN
/// values match `v != want` exactly like the scalar path.
template <CompareOp op>
constexpr int CmpImm() {
  if constexpr (op == CompareOp::kEq) return _CMP_EQ_OQ;
  if constexpr (op == CompareOp::kNe) return _CMP_NEQ_UQ;
  if constexpr (op == CompareOp::kLt) return _CMP_LT_OQ;
  if constexpr (op == CompareOp::kLe) return _CMP_LE_OQ;
  if constexpr (op == CompareOp::kGt) return _CMP_GT_OQ;
  return _CMP_GE_OQ;
}

// The AVX2 kernels test four rows per step and emit the matches
// branch-free; the tail of fewer than four rows runs the scalar kernel. The
// gather-filter kernels have no AVX2 form: on the x86-64 hosts measured,
// _mm256_i64gather_pd ran no faster than the scalar loop.

/// Emits rows row..row+3 whose bit is set in `mask` at out[k...].
inline int64_t EmitRange(int64_t row, int mask, int64_t* out, int64_t k) {
  for (int b = 0; b < 4; ++b) {
    out[k] = row + b;
    k += (mask >> b) & 1;
  }
  return k;
}

template <CompareOp op>
__attribute__((target("avx2"))) int64_t Avx2Compare(const double* vals,
                                                    int64_t begin, int64_t end,
                                                    double want,
                                                    int64_t* out) {
  const __m256d w = _mm256_set1_pd(want);
  int64_t k = 0;
  int64_t row = begin;
  for (; row + 4 <= end; row += 4) {
    const __m256d v = _mm256_loadu_pd(vals + row);
    k = EmitRange(row, _mm256_movemask_pd(_mm256_cmp_pd(v, w, CmpImm<op>())),
                  out, k);
  }
  return k + ScalarRange(row, end, out + k, CompareKeep<op>(vals, want));
}

__attribute__((target("avx2"))) int64_t Avx2Between(const double* vals,
                                                    int64_t begin, int64_t end,
                                                    double lo, double hi,
                                                    int64_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  int64_t k = 0;
  int64_t row = begin;
  for (; row + 4 <= end; row += 4) {
    const __m256d v = _mm256_loadu_pd(vals + row);
    const __m256d in = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GE_OQ),
                                     _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    k = EmitRange(row, _mm256_movemask_pd(in), out, k);
  }
  return k + ScalarRange(row, end, out + k, BetweenKeep(vals, lo, hi));
}

__attribute__((target("avx2"))) int64_t Avx2Cone(const double* xs,
                                                 const double* ys,
                                                 int64_t begin, int64_t end,
                                                 double x0, double y0,
                                                 double r2, int64_t* out) {
  const __m256d vx0 = _mm256_set1_pd(x0);
  const __m256d vy0 = _mm256_set1_pd(y0);
  const __m256d vr2 = _mm256_set1_pd(r2);
  int64_t k = 0;
  int64_t row = begin;
  for (; row + 4 <= end; row += 4) {
    // Separate multiply and add instructions (this target enables no FMA),
    // so each lane rounds exactly like ConeKeep.
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + row), vx0);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + row), vy0);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    k = EmitRange(row, _mm256_movemask_pd(_mm256_cmp_pd(d2, vr2, _CMP_LE_OQ)),
                  out, k);
  }
  return k + ScalarRange(row, end, out + k, ConeKeep(xs, ys, x0, y0, r2));
}

#endif  // defined(__x86_64__)

}  // namespace

bool KernelsUseAvx2() {
#if defined(__x86_64__)
  static const bool have = DetectAvx2();
  return have;
#else
  return false;
#endif
}

int64_t FilterDoubleCompare(const double* vals, int64_t begin, int64_t end,
                            CompareOp op, double want, int64_t* out) {
  return WithOp(op, [&](auto tag) {
    constexpr CompareOp kOp = decltype(tag)::value;
#if defined(__x86_64__)
    if (KernelsUseAvx2()) return Avx2Compare<kOp>(vals, begin, end, want, out);
#endif
    return ScalarRange(begin, end, out, CompareKeep<kOp>(vals, want));
  });
}

int64_t FilterInt64Compare(const int64_t* vals, int64_t begin, int64_t end,
                           CompareOp op, double want, int64_t* out) {
  return WithOp(op, [&](auto tag) {
    return ScalarRange(begin, end, out,
                       CompareKeep<decltype(tag)::value>(vals, want));
  });
}

int64_t FilterDoubleBetween(const double* vals, int64_t begin, int64_t end,
                            double lo, double hi, int64_t* out) {
#if defined(__x86_64__)
  if (KernelsUseAvx2()) return Avx2Between(vals, begin, end, lo, hi, out);
#endif
  return ScalarRange(begin, end, out, BetweenKeep(vals, lo, hi));
}

int64_t FilterInt64Between(const int64_t* vals, int64_t begin, int64_t end,
                           double lo, double hi, int64_t* out) {
  return ScalarRange(begin, end, out, BetweenKeep(vals, lo, hi));
}

int64_t FilterDoubleCompareSel(const double* vals, int64_t* sel, int64_t n,
                               CompareOp op, double want) {
  return WithOp(op, [&](auto tag) {
    return ScalarSel(sel, n,
                     CompareKeep<decltype(tag)::value>(vals, want));
  });
}

int64_t FilterInt64CompareSel(const int64_t* vals, int64_t* sel, int64_t n,
                              CompareOp op, double want) {
  return WithOp(op, [&](auto tag) {
    return ScalarSel(sel, n,
                     CompareKeep<decltype(tag)::value>(vals, want));
  });
}

int64_t FilterDoubleBetweenSel(const double* vals, int64_t* sel, int64_t n,
                               double lo, double hi) {
  return ScalarSel(sel, n, BetweenKeep(vals, lo, hi));
}

int64_t FilterInt64BetweenSel(const int64_t* vals, int64_t* sel, int64_t n,
                              double lo, double hi) {
  return ScalarSel(sel, n, BetweenKeep(vals, lo, hi));
}

template <typename X, typename Y>
int64_t FilterCone(const X* xs, const Y* ys, int64_t begin, int64_t end,
                   double x0, double y0, double r2, int64_t* out) {
#if defined(__x86_64__)
  if constexpr (std::is_same_v<X, double> && std::is_same_v<Y, double>) {
    if (KernelsUseAvx2()) return Avx2Cone(xs, ys, begin, end, x0, y0, r2, out);
  }
#endif
  return ScalarRange(begin, end, out, ConeKeep(xs, ys, x0, y0, r2));
}

template <typename X, typename Y>
int64_t FilterConeSel(const X* xs, const Y* ys, int64_t* sel, int64_t n,
                      double x0, double y0, double r2) {
  return ScalarSel(sel, n, ConeKeep(xs, ys, x0, y0, r2));
}

// Every pairing of the two numeric column types.
template int64_t FilterCone(const double*, const double*, int64_t, int64_t,
                            double, double, double, int64_t*);
template int64_t FilterCone(const double*, const int64_t*, int64_t, int64_t,
                            double, double, double, int64_t*);
template int64_t FilterCone(const int64_t*, const double*, int64_t, int64_t,
                            double, double, double, int64_t*);
template int64_t FilterCone(const int64_t*, const int64_t*, int64_t, int64_t,
                            double, double, double, int64_t*);
template int64_t FilterConeSel(const double*, const double*, int64_t*, int64_t,
                               double, double, double);
template int64_t FilterConeSel(const double*, const int64_t*, int64_t*,
                               int64_t, double, double, double);
template int64_t FilterConeSel(const int64_t*, const double*, int64_t*,
                               int64_t, double, double, double);
template int64_t FilterConeSel(const int64_t*, const int64_t*, int64_t*,
                               int64_t, double, double, double);

}  // namespace sciborq
