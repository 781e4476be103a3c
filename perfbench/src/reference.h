// Reference evaluation of preferential queries, written straight from the
// paper's definitions. It reads base rows only through the catalog's tables
// and shares no code with the parser, planner, optimizers, engine, p-algebra
// or strategies: conditions, scores, F_S and the filters are all evaluated
// here from the declarative query specs below.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "types/value.h"

namespace perfbench {

/// One comparison of a column ("TABLE.column") with constants.
struct Atom {
  enum class Op { kTrue, kEq, kGt, kGe, kLe, kBetween };
  Op op = Op::kTrue;
  std::string column;
  prefdb::Value lo;
  prefdb::Value hi;  // kBetween only.

  static Atom True() { return Atom(); }
  static Atom Cmp(Op op, std::string column, prefdb::Value value);
  static Atom Between(std::string column, prefdb::Value lo, prefdb::Value hi);
  /// PrefSQL text of the comparison, e.g. "MOVIES.year >= 2005".
  std::string ToSql() const;
};

/// The scoring part of a preference (paper §III): a constant, or one of the
/// paper's scoring functions over a column.
struct Score {
  enum class Kind { kConst, kRecency, kAround, kRating };
  Kind kind = Kind::kConst;
  std::string column;  // Unused for kConst.
  double x = 0.0;      // The constant, or the function's reference point.

  static Score Const(double value);
  /// S_m(a, x) = a / x.
  static Score Recency(std::string column, double x);
  /// S_d(a, x) = 1 - |a - x| / x.
  static Score Around(std::string column, double x);
  /// S_r(rating) = rating / 10.
  static Score Rating(std::string column);
  std::string ToSql() const;
};

/// A membership clause: the preference applies only to tuples whose
/// `local_column` value occurs in `member_table`.`member_column`.
struct Membership {
  std::string local_column;  // "TABLE.column" of the query.
  std::string member_table;
  std::string member_column;  // Unqualified column of member_table.
};

/// A preference p = (σ_cond, S, C), optionally with membership.
struct Pref {
  Atom cond;
  Score score;
  double conf = 1.0;
  std::optional<Membership> membership;

  /// The relations the preference is defined over, in first-use order:
  /// those of the condition, the scoring column and the membership's local
  /// column (never the member relation).
  std::vector<std::string> Relations() const;
  /// "(cond) SCORE s CONF c [EXISTS IN T ON a = b]".
  std::string ToSql() const;
};

/// An equi-join step: `right` (a column of the table being joined) equals
/// `left` (a column of a table joined earlier).
struct JoinStep {
  std::string right;
  std::string left;
};

/// A select-join-prefer-filter query: the shape of every benchmark query.
struct QuerySpec {
  std::string name;
  std::vector<std::string> tables;  // Join order; tables[0] drives.
  std::vector<JoinStep> joins;      // joins[i] attaches tables[i + 1].
  std::vector<Atom> where;          // Hard selections (conjunction).
  std::vector<Pref> prefs;
  std::vector<std::string> output;  // "TABLE.column" per output column.
  /// TOP k BY SCORE when set; RANKED (all rows by score) otherwise.
  std::optional<size_t> top_k;
  /// WITH CONF >= τ, applied before ranking, when set.
  std::optional<double> min_conf;
};

/// One answer row, reduced to what the checks compare: the output values
/// rendered into one key string, and the (score, conf) pair. An absent
/// score is the paper's ⊥ (no preference matched).
struct Row {
  std::string key;
  std::optional<double> score;
  double conf = 0.0;
};

/// Renders output values into the key used to match rows across answers.
std::string RowKey(const std::vector<const prefdb::Value*>& values);

/// The reference answer of a query before ranking: every row that
/// satisfies the joins, the hard selections and the confidence threshold
/// (when set), with its F_S-combined pair.
struct RefAnswer {
  std::vector<Row> rows;
  /// Rows whose confidence lies within the check tolerance of the
  /// threshold: an engine may keep or drop them (floating-point
  /// association), so they are matched when present but not required.
  std::vector<bool> optional;
};

/// Evaluates `spec` over the base tables of `catalog`.
prefdb::StatusOr<RefAnswer> Evaluate(const QuerySpec& spec,
                                     const prefdb::Catalog& catalog,
                                     double tolerance);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
