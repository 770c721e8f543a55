#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "column/table.h"
#include "exec/expr.h"

namespace sciborq {
namespace {

Table ObjTable() {
  Table t{Schema({Field{"id", DataType::kInt64, false},
                  Field{"ra", DataType::kDouble, true},
                  Field{"dec", DataType::kDouble, true},
                  Field{"cls", DataType::kString, true}})};
  auto add = [&t](int64_t id, Value ra, Value dec, Value cls) {
    ASSERT_TRUE(t.AppendRow({Value(id), std::move(ra), std::move(dec),
                             std::move(cls)})
                    .ok());
  };
  add(0, Value(150.0), Value(10.0), Value("GALAXY"));
  add(1, Value(185.0), Value(0.5), Value("STAR"));
  add(2, Value(186.0), Value(1.0), Value("GALAXY"));
  add(3, Value(240.0), Value(55.0), Value("QSO"));
  add(4, Value::Null(), Value(2.0), Value("GALAXY"));
  add(5, Value(185.5), Value::Null(), Value::Null());
  return t;
}

SelectionVector Sel(const Table& t, const Predicate& p) {
  auto r = SelectAll(t, p);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : SelectionVector{};
}

TEST(ExprTest, CompareOps) {
  const Table t = ObjTable();
  EXPECT_EQ(Sel(t, *Eq("id", Value(int64_t{2}))), (SelectionVector{2}));
  EXPECT_EQ(Sel(t, *Ne("id", Value(int64_t{2}))),
            (SelectionVector{0, 1, 3, 4, 5}));
  EXPECT_EQ(Sel(t, *Lt("ra", Value(160.0))), (SelectionVector{0}));
  EXPECT_EQ(Sel(t, *Le("ra", Value(185.0))), (SelectionVector{0, 1}));
  EXPECT_EQ(Sel(t, *Gt("ra", Value(186.0))), (SelectionVector{3}));
  EXPECT_EQ(Sel(t, *Ge("ra", Value(186.0))), (SelectionVector{2, 3}));
}

TEST(ExprTest, IntLiteralComparesAgainstDoubleColumn) {
  const Table t = ObjTable();
  EXPECT_EQ(Sel(t, *Lt("ra", Value(int64_t{160}))), (SelectionVector{0}));
}

TEST(ExprTest, StringComparisons) {
  const Table t = ObjTable();
  EXPECT_EQ(Sel(t, *Eq("cls", Value("GALAXY"))), (SelectionVector{0, 2, 4}));
  EXPECT_EQ(Sel(t, *Ne("cls", Value("GALAXY"))), (SelectionVector{1, 3}));
  EXPECT_EQ(Sel(t, *Lt("cls", Value("QSO"))), (SelectionVector{0, 2, 4}));
}

TEST(ExprTest, NullsNeverMatch) {
  const Table t = ObjTable();
  // Row 4 has null ra; row 5 has null cls.
  EXPECT_EQ(Sel(t, *Ge("ra", Value(0.0))), (SelectionVector{0, 1, 2, 3, 5}));
  EXPECT_EQ(Sel(t, *Ne("cls", Value("NOPE"))), (SelectionVector{0, 1, 2, 3, 4}));
}

TEST(ExprTest, ValidationErrors) {
  const Table t = ObjTable();
  EXPECT_FALSE(Eq("missing", Value(1.0))->Validate(t.schema()).ok());
  EXPECT_FALSE(Eq("ra", Value("text"))->Validate(t.schema()).ok());
  EXPECT_FALSE(Eq("cls", Value(1.0))->Validate(t.schema()).ok());
  EXPECT_FALSE(Eq("ra", Value::Null())->Validate(t.schema()).ok());
  EXPECT_TRUE(Eq("ra", Value(1.0))->Validate(t.schema()).ok());
}

TEST(ExprTest, Between) {
  const Table t = ObjTable();
  EXPECT_EQ(Sel(t, *Between("ra", 185.0, 186.0)), (SelectionVector{1, 2, 5}));
  EXPECT_FALSE(Between("cls", 0.0, 1.0)->Validate(t.schema()).ok());
}

TEST(ExprTest, ConeSelectsByDistance) {
  const Table t = ObjTable();
  // Cone at (185, 0.5) with radius 1.2 catches rows 1 (dist 0) and 2
  // (dist sqrt(1+0.25) ≈ 1.118); row 5 has null dec.
  EXPECT_EQ(Sel(t, *Cone("ra", "dec", 185.0, 0.5, 1.2)),
            (SelectionVector{1, 2}));
  EXPECT_EQ(Sel(t, *Cone("ra", "dec", 185.0, 0.5, 0.5)), (SelectionVector{1}));
}

TEST(ExprTest, ConeValidation) {
  const Table t = ObjTable();
  EXPECT_FALSE(Cone("cls", "dec", 0, 0, 1)->Validate(t.schema()).ok());
  EXPECT_FALSE(Cone("ra", "dec", 0, 0, -1)->Validate(t.schema()).ok());
  EXPECT_TRUE(Cone("ra", "dec", 0, 0, 0)->Validate(t.schema()).ok());
}

TEST(ExprTest, NotComplementsWithinCandidates) {
  const Table t = ObjTable();
  EXPECT_EQ(Sel(t, *Not(Eq("cls", Value("GALAXY")))),
            (SelectionVector{1, 3, 5}));  // nulls match NOT(eq) per complement
}

TEST(ExprTest, AndNarrows) {
  const Table t = ObjTable();
  EXPECT_EQ(Sel(t, *And(Eq("cls", Value("GALAXY")), Ge("ra", Value(180.0)))),
            (SelectionVector{2}));
}

TEST(ExprTest, OrUnions) {
  const Table t = ObjTable();
  EXPECT_EQ(Sel(t, *Or(Eq("id", Value(int64_t{0})), Eq("id", Value(int64_t{3})))),
            (SelectionVector{0, 3}));
}

TEST(ExprTest, NestedBooleanTree) {
  const Table t = ObjTable();
  auto p = And(Or(Eq("cls", Value("GALAXY")), Eq("cls", Value("QSO"))),
               Not(Lt("ra", Value(160.0))));
  // Row 4 (null ra) passes NOT(ra < 160): NOT is the complement of the
  // child's matches, and a null never matches the child comparison.
  EXPECT_EQ(Sel(t, *p), (SelectionVector{2, 3, 4}));
}

TEST(ExprTest, MatchesRowwise) {
  const Table t = ObjTable();
  const auto p = Cone("ra", "dec", 185.0, 0.5, 1.2);
  EXPECT_FALSE(p->Matches(t, 0));
  EXPECT_TRUE(p->Matches(t, 1));
  EXPECT_FALSE(p->Matches(t, 5));  // null dec
}

TEST(ExprTest, PredicatePointsCollectRequestedValues) {
  auto p = And(Cone("ra", "dec", 185.0, 0.5, 3.0), Between("z", 0.1, 0.3),
               Eq("cls", Value("GALAXY")), Gt("mag", Value(21.5)));
  std::vector<PredicatePoint> points;
  p->CollectPredicatePoints(&points);
  ASSERT_EQ(points.size(), 4u);  // ra, dec, z midpoint, mag; strings skipped
  EXPECT_EQ(points[0].column, "ra");
  EXPECT_DOUBLE_EQ(points[0].value, 185.0);
  EXPECT_EQ(points[1].column, "dec");
  EXPECT_DOUBLE_EQ(points[1].value, 0.5);
  EXPECT_EQ(points[2].column, "z");
  EXPECT_DOUBLE_EQ(points[2].value, 0.2);
  EXPECT_EQ(points[3].column, "mag");
  EXPECT_DOUBLE_EQ(points[3].value, 21.5);
}

TEST(ExprTest, CloneIsDeepAndEquivalent) {
  const Table t = ObjTable();
  auto p = And(Eq("cls", Value("GALAXY")), Cone("ra", "dec", 185, 0.5, 2.0));
  auto c = p->Clone();
  p.reset();
  EXPECT_EQ(Sel(t, *c), (SelectionVector{2}));
}

TEST(ExprTest, ToStringRendering) {
  EXPECT_EQ(Eq("x", Value(1.5))->ToString(), "x = 1.5");
  EXPECT_EQ(Eq("s", Value("hi"))->ToString(), "s = 'hi'");
  EXPECT_EQ(Between("x", 1.0, 2.0)->ToString(), "x BETWEEN 1 AND 2");
  EXPECT_EQ(Cone("a", "b", 1, 2, 3)->ToString(), "cone(a, b; 1, 2; r=3)");
  EXPECT_EQ(Not(Eq("x", Value(1.0)))->ToString(), "NOT (x = 1)");
  EXPECT_EQ(And(Eq("x", Value(1.0)), Eq("y", Value(2.0)))->ToString(),
            "(x = 1) AND (y = 2)");
}

TEST(ExprTest, SelectOnEmptyCandidates) {
  const Table t = ObjTable();
  SelectionVector rows;
  ASSERT_TRUE(Eq("id", Value(int64_t{1}))->Select(t, &rows).ok());
  EXPECT_TRUE(rows.empty());
}

TEST(ExprTest, SelectRespectsCandidateSubset) {
  const Table t = ObjTable();
  SelectionVector rows = {0, 1};
  ASSERT_TRUE(Eq("cls", Value("GALAXY"))->Select(t, &rows).ok());
  EXPECT_EQ(rows, (SelectionVector{0}));
}

TEST(ExprTest, ParamPlaceholderRefusesToExecuteUntilBound) {
  const Table t = ObjTable();
  const PredicatePtr unbound = Param("ra", CompareOp::kGt, 0);
  EXPECT_TRUE(unbound->HasUnboundParams());
  EXPECT_EQ(unbound->ToString(), "ra > ?");
  EXPECT_EQ(unbound->Validate(t.schema()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(SelectAll(t, *unbound).ok());
  // Clone preserves the placeholder; a composite tree reports it too.
  EXPECT_TRUE(unbound->Clone()->HasUnboundParams());
  const PredicatePtr tree =
      And(Eq("cls", Value("GALAXY")), Param("ra", CompareOp::kGt, 0));
  EXPECT_TRUE(tree->HasUnboundParams());

  // Binding turns the tree into a plain comparison with the same selection
  // as a hand-built one — and the bound clone carries no placeholders.
  const PredicatePtr bound = tree->BindParams({Value(185.5)}).value();
  EXPECT_FALSE(bound->HasUnboundParams());
  EXPECT_EQ(Sel(t, *bound),
            Sel(t, *And(Eq("cls", Value("GALAXY")),
                        Gt("ra", Value(185.5)))));

  // Bad binds: missing slot, NULL value.
  EXPECT_FALSE(tree->BindParams({}).ok());
  EXPECT_FALSE(tree->BindParams({Value::Null()}).ok());
}

// ------------------------------------------------------ kernel oracle ----
// Every vectorized path (the range kernels, the gather-filter narrowing step,
// the cone kernel and the folded conjunction plan) must select exactly the
// rows the row-at-a-time oracle, Predicate::Matches, accepts.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Doubles that stress IEEE comparison: NaN, both infinities, both zeros,
/// and values on and around the probe literals.
const std::vector<double>& SpecialDoubles() {
  static const std::vector<double> values = {-kInf, -2.5, -1.0, -0.0, 0.0, 0.5,
                                             1.0,   2.0,  2.5,  kInf, kNaN};
  return values;
}

/// Int64s including one that does not survive the cast to double exactly.
const std::vector<int64_t>& SpecialInts() {
  static const std::vector<int64_t> values = {
      -3, -1, 0, 1, 2, 3, int64_t{9007199254740993},
      std::numeric_limits<int64_t>::min()};
  return values;
}

/// `rows` rows over double columns x, y and int64 columns i, j, cycling the
/// special values with different strides so many pairs occur. With `nulls`,
/// every fifth cell of each column (staggered) is NULL, which sends every
/// predicate down its nullable fallback path.
Table SpecialTable(int64_t rows, bool nulls) {
  const auto& d = SpecialDoubles();
  const auto& n = SpecialInts();
  Column x(DataType::kDouble), y(DataType::kDouble), i(DataType::kInt64),
      j(DataType::kInt64);
  for (int64_t r = 0; r < rows; ++r) {
    const auto null_at = [&](int64_t salt) {
      return nulls && (r + salt) % 5 == 0;
    };
    const auto at = [](const auto& values, int64_t k) {
      return values[static_cast<size_t>(k) % values.size()];
    };
    null_at(0) ? x.AppendNull() : x.AppendDouble(at(d, r));
    null_at(1) ? y.AppendNull() : y.AppendDouble(at(d, r * 7 + 3));
    null_at(2) ? i.AppendNull() : i.AppendInt64(at(n, r));
    null_at(3) ? j.AppendNull() : j.AppendInt64(at(n, r * 3 + 1));
  }
  return Table::FromColumns(Schema({Field{"x", DataType::kDouble, true},
                                    Field{"y", DataType::kDouble, true},
                                    Field{"i", DataType::kInt64, true},
                                    Field{"j", DataType::kInt64, true}}),
                            {std::move(x), std::move(y), std::move(i),
                             std::move(j)})
      .value();
}

SelectionVector OracleRows(const Table& t, const Predicate& p,
                           const SelectionVector& rows) {
  SelectionVector out;
  for (const int64_t row : rows) {
    if (p.Matches(t, row)) out.push_back(row);
  }
  return out;
}

/// Checks every evaluation path of `p` on `t` against the oracle: the full
/// morsel scan, SelectRange over a range that starts off the first row, and
/// in-place narrowing of a dense, a strided, an empty and a singleton
/// selection.
void ExpectMatchesOracle(const Table& t, const Predicate& p) {
  SCOPED_TRACE(p.ToString());
  const int64_t n = t.num_rows();
  SelectionVector dense(static_cast<size_t>(n));
  std::iota(dense.begin(), dense.end(), 0);
  EXPECT_EQ(Sel(t, p), OracleRows(t, p, dense));
  if (n > 1) {
    SelectionVector out;
    ASSERT_TRUE(p.SelectRange(t, 1, n, &out).ok());
    EXPECT_EQ(out, OracleRows(t, p, SelectionVector(dense.begin() + 1,
                                                    dense.end())));
  }
  SelectionVector strided;
  for (int64_t r = 0; r < n; r += 3) strided.push_back(r);
  std::vector<SelectionVector> selections = {dense, strided, {}};
  if (n > 0) selections.push_back({n - 1});
  for (const SelectionVector& sel : selections) {
    SelectionVector rows = sel;
    ASSERT_TRUE(p.Select(t, &rows).ok());
    EXPECT_EQ(rows, OracleRows(t, p, sel));
  }
}

/// Row counts around the 4-lane vector width: empty, a lone tail, exact
/// blocks and blocks plus a tail.
constexpr int64_t kOracleSizes[] = {0, 1, 3, 4, 5, 7, 8, 33};

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

TEST(ExprKernelOracleTest, CompareEveryOpOnDoubleAndInt64Columns) {
  std::vector<Value> literals;
  literals.reserve(SpecialDoubles().size() + 2);
  for (const double v : SpecialDoubles()) literals.emplace_back(v);
  literals.emplace_back(int64_t{1});
  literals.emplace_back(int64_t{9007199254740993});
  for (const bool nulls : {false, true}) {
    for (const int64_t size : kOracleSizes) {
      const Table t = SpecialTable(size, nulls);
      ASSERT_EQ(t.column(0).has_nulls(), nulls && size > 0);
      for (const char* col : {"x", "i"}) {
        for (const CompareOp op : kAllOps) {
          for (const Value& lit : literals) {
            ExpectMatchesOracle(t, *Compare(col, op, lit));
          }
        }
      }
    }
  }
}

TEST(ExprKernelOracleTest, BetweenOnDoubleAndInt64Columns) {
  const std::vector<double> bounds = {-kInf, -1.0, -0.0, 0.0, 1.0, 2.5, kInf,
                                      kNaN};
  for (const bool nulls : {false, true}) {
    for (const int64_t size : kOracleSizes) {
      const Table t = SpecialTable(size, nulls);
      for (const char* col : {"x", "i"}) {
        for (const double lo : bounds) {
          for (const double hi : bounds) {
            ExpectMatchesOracle(t, *Between(col, lo, hi));
          }
        }
      }
    }
  }
}

TEST(ExprKernelOracleTest, ConeOverEveryColumnTypePair) {
  struct Center {
    double x0, y0;
  };
  const std::vector<Center> centers = {
      {0.0, 0.0}, {-0.0, 1.0}, {2.5, -1.0}, {kNaN, 0.0}, {kInf, 0.0}};
  const std::vector<std::pair<const char*, const char*>> columns = {
      {"x", "y"}, {"x", "i"}, {"i", "y"}, {"i", "j"}};
  for (const bool nulls : {false, true}) {
    for (const int64_t size : kOracleSizes) {
      const Table t = SpecialTable(size, nulls);
      for (const auto& [cx, cy] : columns) {
        for (const Center& c : centers) {
          for (const double r : {0.0, 1.0, 2.5, kInf}) {
            ExpectMatchesOracle(t, *Cone(cx, cy, c.x0, c.y0, r));
          }
        }
      }
    }
  }
}

TEST(ExprKernelOracleTest, FoldedConjunctions) {
  const std::vector<double> bounds = {-kInf, -1.0, -0.0, 0.0, 2.5, kNaN};
  for (const bool nulls : {false, true}) {
    for (const int64_t size : kOracleSizes) {
      const Table t = SpecialTable(size, nulls);
      for (const double a : bounds) {
        for (const double b : bounds) {
          // Folds: a range either way round, on double and int64 columns,
          // with int64 literals, around a cone, and with a spare bound.
          ExpectMatchesOracle(t, *And(Ge("x", Value(a)), Le("x", Value(b))));
          ExpectMatchesOracle(t, *And(Le("i", Value(b)), Ge("i", Value(a))));
          ExpectMatchesOracle(
              t, *And(Ge("i", Value(int64_t{-1})), Le("i", Value(b))));
          ExpectMatchesOracle(t, *And(Ge("x", Value(a)),
                                      Cone("x", "y", 0.0, 0.0, 2.5),
                                      Le("x", Value(b))));
          ExpectMatchesOracle(t, *And(Ge("x", Value(a)), Ge("x", Value(b)),
                                      Le("x", Value(2.0)), Le("y", Value(a)),
                                      Ge("y", Value(b))));
          // No fold: strict bounds, and bounds on different columns.
          ExpectMatchesOracle(t, *And(Gt("x", Value(a)), Lt("x", Value(b))));
          ExpectMatchesOracle(t, *And(Ge("x", Value(a)), Le("y", Value(b))));
          // A folded conjunction under NOT and OR.
          ExpectMatchesOracle(
              t, *Not(And(Ge("x", Value(a)), Le("x", Value(b)))));
          ExpectMatchesOracle(t, *Or(And(Ge("x", Value(a)), Le("x", Value(b))),
                                     Eq("j", Value(int64_t{0}))));
        }
      }
    }
  }
}

std::string Rendered(const std::vector<PredicatePtr>& parts) {
  std::string out;
  for (const PredicatePtr& p : parts) {
    if (!out.empty()) out += " AND ";
    out += "(" + p->ToString() + ")";
  }
  return out;
}

std::vector<PredicatePtr> CloneAll(const std::vector<PredicatePtr>& parts) {
  std::vector<PredicatePtr> out;
  out.reserve(parts.size());
  for (const PredicatePtr& p : parts) out.push_back(p->Clone());
  return out;
}

TEST(ExprTest, FoldingKeepsRenderingPointsAndErrors) {
  std::vector<PredicatePtr> parts;
  parts.push_back(Ge("ra", Value(180.0)));
  parts.push_back(Gt("dec", Value(1.0)));
  parts.push_back(Le("ra", Value(int64_t{190})));
  parts.push_back(Le("dec", Value(5.0)));
  parts.push_back(Ge("dec", Value(-1.0)));
  parts.push_back(Cone("ra", "dec", 185.0, 2.0, 1.5));
  const PredicatePtr conj = And(CloneAll(parts));

  EXPECT_EQ(conj->ToString(), Rendered(parts));
  EXPECT_EQ(conj->Clone()->ToString(), Rendered(parts));

  std::vector<PredicatePoint> want_points;
  std::vector<PredicatePair> want_pairs;
  for (const PredicatePtr& p : parts) {
    p->CollectPredicatePoints(&want_points);
    p->CollectPredicatePairs(&want_pairs);
  }
  std::vector<PredicatePoint> points;
  std::vector<PredicatePair> pairs;
  conj->CollectPredicatePoints(&points);
  conj->CollectPredicatePairs(&pairs);
  ASSERT_EQ(points.size(), want_points.size());
  for (size_t k = 0; k < points.size(); ++k) {
    EXPECT_EQ(points[k].column, want_points[k].column);
    EXPECT_EQ(points[k].value, want_points[k].value);
  }
  ASSERT_EQ(pairs.size(), want_pairs.size());
  EXPECT_EQ(pairs[0].x, want_pairs[0].x);

  // Validation reports the first failing child's own error, fold or not.
  const Schema schema = ObjTable().schema();
  const auto expect_error_of_child = [&schema](const PredicatePtr& conj_pred,
                                               const PredicatePtr& child) {
    const Status got = conj_pred->Validate(schema);
    const Status want = child->Validate(schema);
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(got.ToString(), want.ToString());
  };
  expect_error_of_child(And(Ge("cls", Value(1.0)), Le("cls", Value(2.0))),
                        Ge("cls", Value(1.0)));
  expect_error_of_child(And(Ge("nope", Value(1.0)), Le("nope", Value(2.0))),
                        Ge("nope", Value(1.0)));
  expect_error_of_child(And(Ge("ra", Value(1.0)), Le("ra", Value(2.0)),
                            Eq("id", Value("text"))),
                        Eq("id", Value("text")));
  EXPECT_TRUE(conj->Validate(schema).ok());
}

}  // namespace
}  // namespace sciborq
