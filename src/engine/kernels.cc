#include "engine/kernels.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <unordered_set>
#include <utility>

namespace prefdb {

namespace {

// Concatenates per-morsel buffers in morsel order; a single buffer (the
// serial plan) is moved, not copied.
template <typename T>
std::vector<T> Concat(std::vector<std::vector<T>>* parts) {
  if (parts->size() == 1) return std::move(parts->front());
  size_t total = 0;
  for (const std::vector<T>& part : *parts) total += part.size();
  std::vector<T> out;
  out.reserve(total);
  for (std::vector<T>& part : *parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

// The indices `i` in [0, n) for which `keep(i, &ticker)` holds, in order.
template <typename Keep>
RowIds SelectIds(size_t n, KernelRegion* region, const Keep& keep) {
  std::vector<RowIds> kept(region->Plan(n));
  ForEachRow(*region, [&](size_t m, size_t i, GovernorTicker* ticker) {
    if (keep(i, ticker)) kept[m].push_back(static_cast<uint32_t>(i));
  });
  return Concat(&kept);
}

// Whole-tuple hashing over row pointers: the set operations test and record
// membership without copying the tuples into the set.
struct RowPtrHash {
  size_t operator()(const Tuple* row) const { return TupleHash()(*row); }
};
struct RowPtrEq {
  bool operator()(const Tuple* a, const Tuple* b) const {
    return TupleEq()(*a, *b);
  }
};
using RowPtrSet = std::unordered_set<const Tuple*, RowPtrHash, RowPtrEq>;

// Finds an equi-join conjunct `l = r` with l from the left schema and r
// from the right schema. Returns false if none exists.
bool FindEquiConjunct(const Expr& predicate, const Schema& left,
                      const Schema& right, std::string* left_col,
                      std::string* right_col) {
  if (predicate.kind() == ExprKind::kLogical) {
    const auto& logical = static_cast<const LogicalExpr&>(predicate);
    if (logical.op() != LogicalOp::kAnd) return false;
    return FindEquiConjunct(logical.left(), left, right, left_col, right_col) ||
           FindEquiConjunct(logical.right(), left, right, left_col, right_col);
  }
  if (predicate.kind() != ExprKind::kComparison) return false;
  const auto& cmp = static_cast<const ComparisonExpr&>(predicate);
  if (cmp.op() != CompareOp::kEq) return false;
  if (cmp.left().kind() != ExprKind::kColumnRef ||
      cmp.right().kind() != ExprKind::kColumnRef) {
    return false;
  }
  const std::string& a = static_cast<const ColumnRefExpr&>(cmp.left()).name();
  const std::string& b = static_cast<const ColumnRefExpr&>(cmp.right()).name();
  if (left.HasColumn(a) && right.HasColumn(b)) {
    *left_col = a;
    *right_col = b;
    return true;
  }
  if (left.HasColumn(b) && right.HasColumn(a)) {
    *left_col = b;
    *right_col = a;
    return true;
  }
  return false;
}

}  // namespace

Relation TakeRows(const Relation& input, const RowIds& ids) {
  Relation out(input.schema());
  out.set_key_columns(input.key_columns());
  out.Reserve(ids.size());
  for (uint32_t i : ids) out.AddRow(input.rows()[i]);
  return out;
}

Relation TakeRows(Relation&& input, const RowIds& ids) {
  Relation out(input.schema());
  out.set_key_columns(input.key_columns());
  out.Reserve(ids.size());
  for (uint32_t i : ids) out.AddRow(std::move((*input.mutable_rows())[i]));
  return out;
}

RowIds FilterRows(const Expr& bound, const std::vector<Tuple>& rows,
                  KernelRegion* region) {
  // Bound expressions are immutable after Bind, so all slots share `bound`.
  return SelectIds(rows.size(), region, [&](size_t i, GovernorTicker*) {
    return IsTruthy(bound.Eval(rows[i]));
  });
}

Relation ProjectRows(const Relation& input, const ProjectionResolution& res) {
  Relation out(input.schema().Select(res.indices));
  out.set_key_columns(res.key_positions);
  out.Reserve(input.NumRows());
  for (const Tuple& row : input.rows()) {
    out.AddRow(ProjectTuple(row, res.indices));
  }
  return out;
}

StatusOr<JoinKernel> JoinKernel::Make(const Expr& predicate,
                                      const Schema& left,
                                      const Schema& right) {
  JoinKernel kernel;
  kernel.bound_ = predicate.Clone();
  RETURN_IF_ERROR(kernel.bound_->Bind(left.Concat(right)));
  std::string left_col;
  std::string right_col;
  if (FindEquiConjunct(predicate, left, right, &left_col, &right_col)) {
    kernel.hash_ = true;
    ASSIGN_OR_RETURN(kernel.left_col_, left.FindColumn(left_col));
    ASSIGN_OR_RETURN(kernel.right_col_, right.FindColumn(right_col));
  }
  return kernel;
}

size_t JoinKernel::Build(const Relation& right) {
  const std::vector<Tuple>& rrows = right.rows();
  table_.reserve(rrows.size());
  for (size_t i = 0; i < rrows.size(); ++i) {
    table_[rrows[i][right_col_]].push_back(static_cast<uint32_t>(i));
  }
  return table_.size();
}

template <typename OnMatch>
void JoinKernel::Probe(const Tuple& lrow, const std::vector<Tuple>& rrows,
                       GovernorTicker* ticker,
                       const OnMatch& on_match) const {
  auto visit = [&](uint32_t pos) {
    Tuple joined = ConcatTuples(lrow, rrows[pos]);
    if (!IsTruthy(bound_->Eval(joined))) return true;
    return on_match(pos, std::move(joined));
  };
  if (hash_) {
    auto it = table_.find(lrow[left_col_]);
    if (it == table_.end()) return;
    for (uint32_t pos : it->second) {
      if (!visit(pos)) return;
    }
    return;
  }
  // Nested loop: tick per probed pair, so one left row against a large
  // right input cannot defer cancellation to the end of its scan.
  for (size_t pos = 0; pos < rrows.size(); ++pos) {
    ticker->Tick();
    if (!visit(static_cast<uint32_t>(pos))) return;
  }
}

Relation JoinKernel::Join(const Relation& left, const Relation& right,
                          KernelRegion* region, JoinLineage* lineage) const {
  Relation out(left.schema().Concat(right.schema()));
  std::vector<size_t> keys = left.key_columns();
  for (size_t k : right.key_columns()) keys.push_back(k + left.schema().size());
  out.set_key_columns(std::move(keys));

  // Per-morsel match buffers over the probe side; the build table, both
  // inputs and the bound predicate are read-only here.
  const std::vector<Tuple>& lrows = left.rows();
  std::vector<std::vector<Tuple>> rows(region->Plan(lrows.size()));
  std::vector<RowIds> left_ids(rows.size());
  std::vector<RowIds> right_ids(rows.size());
  ForEachRow(*region, [&](size_t m, size_t i, GovernorTicker* ticker) {
    Probe(lrows[i], right.rows(), ticker, [&](uint32_t pos, Tuple joined) {
      rows[m].push_back(std::move(joined));
      if (lineage != nullptr) {
        left_ids[m].push_back(static_cast<uint32_t>(i));
        right_ids[m].push_back(pos);
      }
      return true;
    });
  });
  *out.mutable_rows() = Concat(&rows);
  if (lineage != nullptr) {
    lineage->left = Concat(&left_ids);
    lineage->right = Concat(&right_ids);
  }
  return out;
}

RowIds JoinKernel::SemiJoin(const Relation& left, const Relation& right,
                            KernelRegion* region) const {
  const std::vector<Tuple>& lrows = left.rows();
  return SelectIds(lrows.size(), region, [&](size_t i, GovernorTicker* ticker) {
    bool matched = false;
    Probe(lrows[i], right.rows(), ticker, [&matched](uint32_t, Tuple) {
      matched = true;
      return false;  // A left row qualifies once.
    });
    return matched;
  });
}

Relation SetOpRows(PlanKind kind, const Relation& left, const Relation& right,
                   KernelRegion* region, SetOpLineage* lineage) {
  Relation out(left.schema());
  out.set_key_columns(left.key_columns());
  const std::vector<Tuple>& lrows = left.rows();
  const std::vector<Tuple>& rrows = right.rows();

  // Membership probes run over the region's morsels; the order-dependent
  // duplicate elimination below consumes the flags in input order.
  std::vector<uint8_t> in_right;
  if (kind != PlanKind::kUnion || lineage != nullptr) {
    RowPtrSet right_set;
    right_set.reserve(rrows.size());
    for (const Tuple& row : rrows) right_set.insert(&row);
    in_right.assign(lrows.size(), 0);
    region->Plan(lrows.size());
    ForEachRow(*region, [&](size_t, size_t i, GovernorTicker*) {
      in_right[i] = right_set.count(&lrows[i]) > 0 ? 1 : 0;
    });
  }

  RowPtrSet emitted;
  auto emit = [&](const Tuple& row, size_t i, bool in_other) {
    if (!emitted.insert(&row).second) return;
    out.AddRow(row);
    if (lineage != nullptr) {
      lineage->row.push_back(static_cast<uint32_t>(i));
      lineage->in_other.push_back(in_other ? 1 : 0);
    }
  };
  for (size_t i = 0; i < lrows.size(); ++i) {
    bool member = !in_right.empty() && in_right[i] != 0;
    if (kind == PlanKind::kIntersect && !member) continue;
    if (kind == PlanKind::kExcept && member) continue;
    emit(lrows[i], i, member);
  }
  if (lineage != nullptr) lineage->from_left = out.NumRows();
  if (kind == PlanKind::kUnion) {
    for (size_t i = 0; i < rrows.size(); ++i) emit(rrows[i], i, false);
  }
  return out;
}

RowIds DistinctRows(const std::vector<Tuple>& rows, KernelRegion* region) {
  // Whole-tuple hashing, the expensive part of deduplication, runs over the
  // region's morsels; the serial pass then keeps each row whose tuple no
  // earlier kept row has, preserving first-occurrence-wins order.
  std::vector<size_t> hashes(rows.size());
  region->Plan(rows.size());
  ForEachRow(*region, [&](size_t, size_t i, GovernorTicker*) {
    hashes[i] = TupleHash()(rows[i]);
  });
  auto hash = [&hashes](uint32_t i) { return hashes[i]; };
  auto eq = [&rows](uint32_t a, uint32_t b) {
    return TupleEq()(rows[a], rows[b]);
  };
  std::unordered_set<uint32_t, decltype(hash), decltype(eq)> seen(
      rows.size(), hash, eq);
  RowIds kept;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if (seen.insert(i).second) kept.push_back(i);
  }
  return kept;
}

Status SortRows(const std::vector<SortKey>& keys, Relation* rel) {
  struct ResolvedKey {
    size_t index;
    bool descending;
  };
  std::vector<ResolvedKey> resolved;
  resolved.reserve(keys.size());
  for (const SortKey& k : keys) {
    ASSIGN_OR_RETURN(size_t idx, rel->schema().FindColumn(k.column));
    resolved.push_back({idx, k.descending});
  }
  // Value::Compare is a strict total order including NULL and NaN, which
  // std::stable_sort requires (UB otherwise) — see Value::Compare.
  const std::vector<size_t>& pk = rel->key_columns();
  std::stable_sort(rel->mutable_rows()->begin(), rel->mutable_rows()->end(),
                   [&resolved, &pk](const Tuple& a, const Tuple& b) {
                     for (const ResolvedKey& k : resolved) {
                       int c = a[k.index].Compare(b[k.index]);
                       if (c != 0) return k.descending ? c > 0 : c < 0;
                     }
                     for (size_t k : pk) {
                       int c = a[k].Compare(b[k]);
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  return Status::OK();
}

RowIds LimitRows(size_t limit, size_t num_rows) {
  RowIds ids(std::min(limit, num_rows));
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

}  // namespace prefdb
