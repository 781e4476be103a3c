#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <strings.h>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

using prefdb::Catalog;
using prefdb::Status;
using prefdb::StatusOr;
using prefdb::Table;
using prefdb::Tuple;
using prefdb::Value;

namespace {

// Shortest plain decimal (PrefSQL has no exponent notation) that parses
// back to exactly `v`.
std::string FormatDouble(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strchr(buf, 'e') == nullptr && std::strtod(buf, nullptr) == v) break;
  }
  std::string s = buf;
  if (s.find_first_of(".e") == std::string::npos) s += ".0";
  return s;
}

std::string ValueSql(const Value& v) {
  if (v.is_string()) return "'" + v.AsString() + "'";
  if (v.is_double()) return FormatDouble(v.AsDouble());
  return v.ToString();
}

std::string TableOf(const std::string& column) {
  return column.substr(0, column.find('.'));
}

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

bool SameName(const std::string& a, const std::string& b) {
  return strcasecmp(a.c_str(), b.c_str()) == 0;
}

// Index of the column named `name` (unqualified) in `table`, or -1.
int ColumnIndex(const Table& table, const std::string& name) {
  for (size_t i = 0; i < table.schema().size(); ++i) {
    if (SameName(table.schema().column(i).name, name)) return static_cast<int>(i);
  }
  return -1;
}

// A column of the join: which table of the query, which column of it.
struct ColumnRef {
  size_t table = 0;
  size_t column = 0;
};

class Resolver {
 public:
  Resolver(const QuerySpec& spec, const std::vector<const Table*>& tables)
      : spec_(spec), tables_(tables) {}

  StatusOr<ColumnRef> Resolve(const std::string& qualified) const {
    size_t dot = qualified.find('.');
    if (dot == std::string::npos) {
      return Status::InvalidArgument("reference columns must be qualified: " +
                                     qualified);
    }
    std::string table = qualified.substr(0, dot);
    for (size_t t = 0; t < spec_.tables.size(); ++t) {
      if (!SameName(spec_.tables[t], table)) continue;
      int col = ColumnIndex(*tables_[t], qualified.substr(dot + 1));
      if (col < 0) break;
      return ColumnRef{t, static_cast<size_t>(col)};
    }
    return Status::NotFound("reference column not in query: " + qualified);
  }

 private:
  const QuerySpec& spec_;
  const std::vector<const Table*>& tables_;
};

struct BoundAtom {
  Atom::Op op;
  ColumnRef col;
  Value lo;
  Value hi;
};

bool Holds(const BoundAtom& atom, const Value& v) {
  if (atom.op == Atom::Op::kTrue) return true;
  if (v.is_null()) return false;
  int c = v.Compare(atom.lo);
  switch (atom.op) {
    case Atom::Op::kEq:
      return c == 0;
    case Atom::Op::kGt:
      return c > 0;
    case Atom::Op::kGe:
      return c >= 0;
    case Atom::Op::kLe:
      return c <= 0;
    case Atom::Op::kBetween:
      return c >= 0 && v.Compare(atom.hi) <= 0;
    case Atom::Op::kTrue:
      break;
  }
  return true;
}

struct BoundPref {
  BoundAtom cond;
  Score::Kind kind;
  ColumnRef score_col;
  double x;
  double conf;
  bool has_membership = false;
  ColumnRef local;
  std::unordered_set<Value, prefdb::ValueHash> members;
};

// The paper's scoring functions; nullopt when the input is not numeric.
std::optional<double> ScoreOf(const BoundPref& p, const Value& v) {
  switch (p.kind) {
    case Score::Kind::kConst:
      return Clamp01(p.x);
    case Score::Kind::kRecency:
      if (!v.is_numeric() || p.x == 0.0) return std::nullopt;
      return Clamp01(v.NumericValue() / p.x);
    case Score::Kind::kAround:
      if (!v.is_numeric() || p.x == 0.0) return std::nullopt;
      return Clamp01(1.0 - std::fabs(v.NumericValue() - p.x) / p.x);
    case Score::Kind::kRating:
      if (!v.is_numeric()) return std::nullopt;
      return Clamp01(v.NumericValue() / 10.0);
  }
  return std::nullopt;
}

}  // namespace

Atom Atom::Cmp(Op op, std::string column, Value value) {
  Atom a;
  a.op = op;
  a.column = std::move(column);
  a.lo = std::move(value);
  return a;
}

Atom Atom::Between(std::string column, Value lo, Value hi) {
  Atom a;
  a.op = Op::kBetween;
  a.column = std::move(column);
  a.lo = std::move(lo);
  a.hi = std::move(hi);
  return a;
}

std::string Atom::ToSql() const {
  switch (op) {
    case Op::kTrue:
      return "true";
    case Op::kEq:
      return column + " = " + ValueSql(lo);
    case Op::kGt:
      return column + " > " + ValueSql(lo);
    case Op::kGe:
      return column + " >= " + ValueSql(lo);
    case Op::kLe:
      return column + " <= " + ValueSql(lo);
    case Op::kBetween:
      return column + " BETWEEN " + ValueSql(lo) + " AND " + ValueSql(hi);
  }
  return "true";
}

Score Score::Const(double value) {
  Score s;
  s.x = value;
  return s;
}

Score Score::Recency(std::string column, double x) {
  return Score{Kind::kRecency, std::move(column), x};
}

Score Score::Around(std::string column, double x) {
  return Score{Kind::kAround, std::move(column), x};
}

Score Score::Rating(std::string column) {
  return Score{Kind::kRating, std::move(column), 0.0};
}

std::string Score::ToSql() const {
  switch (kind) {
    case Kind::kConst:
      return FormatDouble(x);
    case Kind::kRecency:
      return "recency(" + column + ", " + FormatDouble(x) + ")";
    case Kind::kAround:
      return "around(" + column + ", " + FormatDouble(x) + ")";
    case Kind::kRating:
      return "rating_score(" + column + ")";
  }
  return "0.0";
}

std::vector<std::string> Pref::Relations() const {
  std::vector<std::string> out;
  auto add = [&out](const std::string& column) {
    if (column.empty()) return;
    std::string t = TableOf(column);
    for (const std::string& r : out) {
      if (SameName(r, t)) return;
    }
    out.push_back(t);
  };
  add(cond.column);
  if (score.kind != Score::Kind::kConst) add(score.column);
  if (membership) add(membership->local_column);
  return out;
}

std::string Pref::ToSql() const {
  std::string s = "(";
  s += cond.ToSql();
  s += ") SCORE ";
  s += score.ToSql();
  s += " CONF ";
  s += FormatDouble(conf);
  if (membership) {
    s += " EXISTS IN " + membership->member_table + " ON " +
         membership->local_column + " = " + membership->member_column;
  }
  return s;
}

std::string RowKey(const std::vector<const Value*>& values) {
  std::string key;
  for (const Value* v : values) {
    key += v->ToString();
    key += '\x1f';
  }
  return key;
}

StatusOr<RefAnswer> Evaluate(const QuerySpec& spec, const Catalog& catalog,
                             double tolerance) {
  if (spec.joins.size() + 1 != spec.tables.size()) {
    return Status::InvalidArgument(spec.name + ": one join step per table");
  }
  std::vector<const Table*> tables;
  for (const std::string& name : spec.tables) {
    auto table = catalog.GetTable(name);
    if (!table.ok()) return table.status();
    tables.push_back(*table);
  }
  Resolver resolver(spec, tables);
  auto bind_atom = [&](const Atom& atom) -> StatusOr<BoundAtom> {
    BoundAtom b{atom.op, {}, atom.lo, atom.hi};
    if (atom.op != Atom::Op::kTrue) {
      auto col = resolver.Resolve(atom.column);
      if (!col.ok()) return col.status();
      b.col = *col;
    }
    return b;
  };

  // Hard selections each read one table: apply them per table, before
  // joining.
  std::vector<std::vector<BoundAtom>> table_where(tables.size());
  for (const Atom& atom : spec.where) {
    auto b = bind_atom(atom);
    if (!b.ok()) return b.status();
    table_where[b->col.table].push_back(*b);
  }
  std::vector<std::vector<uint32_t>> selected(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    const std::vector<Tuple>& rows = tables[t]->relation().rows();
    for (size_t r = 0; r < rows.size(); ++r) {
      bool keep = true;
      for (const BoundAtom& a : table_where[t]) {
        keep = keep && Holds(a, rows[r][a.col.column]);
      }
      if (keep) selected[t].push_back(static_cast<uint32_t>(r));
    }
  }

  // Left-deep hash joins over row indices: `joined` holds one index per
  // table for every partial result row.
  const size_t width = tables.size();
  std::vector<uint32_t> joined;
  for (uint32_t r : selected[0]) joined.push_back(r);
  for (size_t t = 1; t < width; ++t) {
    auto right = resolver.Resolve(spec.joins[t - 1].right);
    auto left = resolver.Resolve(spec.joins[t - 1].left);
    if (!right.ok()) return right.status();
    if (!left.ok()) return left.status();
    if (right->table != t || left->table >= t) {
      return Status::InvalidArgument(spec.name + ": join step out of order");
    }
    const std::vector<Tuple>& rrows = tables[t]->relation().rows();
    std::unordered_map<Value, std::vector<uint32_t>, prefdb::ValueHash> build;
    for (uint32_t r : selected[t]) build[rrows[r][right->column]].push_back(r);
    std::vector<uint32_t> next;
    for (size_t i = 0; i < joined.size(); i += t) {
      const Tuple& lrow =
          tables[left->table]->relation().rows()[joined[i + left->table]];
      auto it = build.find(lrow[left->column]);
      if (it == build.end()) continue;
      for (uint32_t r : it->second) {
        next.insert(next.end(), joined.begin() + i, joined.begin() + i + t);
        next.push_back(r);
      }
    }
    joined = std::move(next);
  }

  std::vector<BoundPref> prefs;
  for (const Pref& p : spec.prefs) {
    BoundPref b;
    auto cond = bind_atom(p.cond);
    if (!cond.ok()) return cond.status();
    b.cond = *cond;
    b.kind = p.score.kind;
    b.x = p.score.x;
    b.conf = p.conf;
    if (p.score.kind != Score::Kind::kConst) {
      auto col = resolver.Resolve(p.score.column);
      if (!col.ok()) return col.status();
      b.score_col = *col;
    }
    if (p.membership) {
      auto local = resolver.Resolve(p.membership->local_column);
      if (!local.ok()) return local.status();
      auto member = catalog.GetTable(p.membership->member_table);
      if (!member.ok()) return member.status();
      int mcol = ColumnIndex(**member, p.membership->member_column);
      if (mcol < 0) return Status::NotFound("member column");
      b.has_membership = true;
      b.local = *local;
      for (const Tuple& row : (*member)->relation().rows()) {
        b.members.insert(row[static_cast<size_t>(mcol)]);
      }
    }
    prefs.push_back(std::move(b));
  }
  std::vector<ColumnRef> output;
  for (const std::string& col : spec.output) {
    auto ref = resolver.Resolve(col);
    if (!ref.ok()) return ref.status();
    output.push_back(*ref);
  }

  RefAnswer answer;
  std::vector<const Tuple*> row(width);
  std::vector<const Value*> values(output.size());
  for (size_t i = 0; i < joined.size(); i += width) {
    for (size_t t = 0; t < width; ++t) {
      row[t] = &tables[t]->relation().rows()[joined[i + t]];
    }
    auto value = [&row](const ColumnRef& c) -> const Value& {
      return (*row[c.table])[c.column];
    };
    // F_S: the confidence-weighted mean of the matched scores, with the
    // confidences summed (paper §IV-A).
    double weighted = 0.0;
    double conf = 0.0;
    for (const BoundPref& p : prefs) {
      if (p.cond.op != Atom::Op::kTrue && !Holds(p.cond, value(p.cond.col))) {
        continue;
      }
      if (p.has_membership && p.members.count(value(p.local)) == 0) continue;
      std::optional<double> s =
          ScoreOf(p, p.kind == Score::Kind::kConst ? Value() : value(p.score_col));
      if (!s || p.conf <= 0.0) continue;
      weighted += p.conf * *s;
      conf += p.conf;
    }
    bool optional = false;
    if (spec.min_conf) {
      if (conf < *spec.min_conf - tolerance) continue;
      optional = conf < *spec.min_conf + tolerance;
    }
    for (size_t c = 0; c < output.size(); ++c) values[c] = &value(output[c]);
    Row out;
    out.key = RowKey(values);
    if (conf > 0.0) out.score = weighted / conf;
    out.conf = conf;
    answer.rows.push_back(std::move(out));
    answer.optional.push_back(optional);
  }
  return answer;
}

}  // namespace perfbench
