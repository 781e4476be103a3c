#include "palgebra/p_ops.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "engine/kernels.h"
#include "plan/plan.h"

namespace prefdb {

namespace {

// Annotates the caller-provided span with an operator's cardinalities and
// (when the operator actually split into morsels) its parallel shape. The
// span's wall time is owned by the caller: strategies wrap each operator
// call in a SpanScope, so a null span here costs only this pointer test.
void AnnotateSpan(obs::Span* span, size_t rows_in, size_t rows_out,
                  const MorselPlan* plan = nullptr) {
  if (span == nullptr) return;
  span->rows_in = rows_in;
  span->rows_out = rows_out;
  if (plan != nullptr && !plan->serial()) {
    span->detail = StrFormat("morsels=%zu slots=%zu", plan->morsel_count(),
                             plan->slots());
  }
}

// The pair of row `i` of `p`; ⟨⊥, 0⟩ without a key extraction when `p`
// has no scores.
ScoreConf PairOf(const PRelation& p, uint32_t i) {
  if (p.scores.empty()) return ScoreConf();
  return p.ScoreOf(p.rel.rows()[i]);
}

// The score fold of every p-operator: stores each row's pair, computed from
// its lineage by `pair_of(i, &key)` (which sets the key of non-default
// pairs). The first morsel stores directly, later ones after the region in
// morsel order: row order either way. Callers skip the fold when no input
// has scores, since ⟨⊥, 0⟩ is the identity of every F.
template <typename Fn>
void FoldScores(const ParallelContext* parallel, PRelation* out,
                ExecStats* stats, const Fn& pair_of) {
  using Hit = std::pair<Tuple, ScoreConf>;
  KernelRegion region{parallel};
  std::vector<std::vector<Hit>> hits(region.Plan(out->rel.NumRows()));
  size_t stored = 0;  // Morsel 0's direct stores; only its slot counts.
  ForEachRow(region, [&](size_t m, size_t i, GovernorTicker*) {
    Tuple key;
    ScoreConf pair = pair_of(i, &key);
    if (pair.IsDefault()) return;
    if (m > 0) {
      hits[m].emplace_back(std::move(key), pair);
      return;
    }
    out->scores.Set(key, pair);
    ++stored;
  });
  for (const std::vector<Hit>& local : hits) {
    for (const Hit& hit : local) out->scores.Set(hit.first, hit.second);
    stored += local.size();
  }
  stats->score_entries_written += stored;
}

// The rows `ids` of `input` with their pairs: the shared tail of the
// p-operators whose output rows are a subsequence of one input (selection,
// semi-join, distinct, limit).
PRelation Subset(const PRelation& input, const RowIds& ids, ExecStats* stats,
                 const ParallelContext* parallel) {
  PRelation out(TakeRows(input.rel, ids));
  stats->tuples_materialized += out.rel.NumRows();
  if (!input.scores.empty()) {
    out.scores.Reserve(std::min(input.scores.size(), ids.size()));
    FoldScores(parallel, &out, stats, [&](size_t i, Tuple* key) {
      *key = input.rel.KeyOf(input.rel.rows()[ids[i]]);
      return input.scores.Lookup(*key);
    });
  }
  return out;
}

Status CheckSetCompatible(const PRelation& left, const PRelation& right) {
  if (left.rel.schema().size() != right.rel.schema().size()) {
    return Status::InvalidArgument("set operation inputs differ in arity");
  }
  if (left.rel.key_columns() != right.rel.key_columns()) {
    return Status::InvalidArgument("set operation inputs differ in keys");
  }
  return Status::OK();
}

// ∪_F, ∩_F and − (`agg` is unused, and may be null, for kExcept): the
// set-operation kernel, then each output row keeps its source row's pair,
// combined with F with the other input's pair when the tuple occurs in
// both.
StatusOr<PRelation> PSetOp(PlanKind kind, const PRelation& left,
                           const PRelation& right, const AggregateFunction* agg,
                           ExecStats* stats, const ParallelContext* parallel,
                           obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  RETURN_IF_ERROR(CheckSetCompatible(left, right));
  KernelRegion region{parallel};
  SetOpLineage lineage;
  PRelation out(SetOpRows(kind, left.rel, right.rel, &region, &lineage));
  stats->tuples_materialized += out.rel.NumRows();
  if (!left.scores.empty() || !right.scores.empty()) {
    FoldScores(parallel, &out, stats, [&](size_t i, Tuple* key) {
      const PRelation& source = i < lineage.from_left ? left : right;
      *key = source.rel.KeyOf(source.rel.rows()[lineage.row[i]]);
      ScoreConf pair = source.scores.Lookup(*key);
      // Only left rows occur in the other input, and never under EXCEPT.
      if (lineage.in_other[i] != 0) {
        pair = CombineCounted(*agg, pair, right.scores.Lookup(*key));
      }
      return pair;
    });
  }
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &region.plan);
  return out;
}

}  // namespace

StatusOr<PRelation> PSelect(const Expr& predicate, const PRelation& input,
                            ExecStats* stats, const ParallelContext* parallel,
                            obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ExprPtr bound = predicate.Clone();
  RETURN_IF_ERROR(bound->Bind(input.rel.schema()));
  KernelRegion region{parallel};
  RowIds kept = FilterRows(*bound, input.rel.rows(), &region);
  PRelation out = Subset(input, kept, stats, parallel);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows(), &region.plan);
  return out;
}

StatusOr<PRelation> PProject(const std::vector<std::string>& columns,
                             const PRelation& input, ExecStats* stats,
                             obs::Span* span) {
  ++stats->operator_invocations;
  PlanShape shape{input.rel.schema(), input.rel.key_columns()};
  ASSIGN_OR_RETURN(ProjectionResolution res, ResolveProjection(shape, columns));
  PRelation out(ProjectRows(input.rel, res));
  stats->tuples_materialized += out.rel.NumRows();
  // The key column *set* is preserved by construction, but the canonical
  // (ascending-position) key order can change when projection permutes
  // columns, so the score map is re-keyed under that permutation.
  // perm[i] = position, within the input key order, of the column that the
  // i-th output key column came from.
  const std::vector<size_t>& in_keys = input.rel.key_columns();
  const std::vector<size_t>& out_keys = out.rel.key_columns();
  std::vector<size_t> perm(out_keys.size());
  bool identity = true;
  for (size_t i = 0; i < out_keys.size(); ++i) {
    size_t source_col = res.indices[out_keys[i]];
    auto it = std::find(in_keys.begin(), in_keys.end(), source_col);
    if (it == in_keys.end()) {
      return Status::Internal("projection lost a key column");
    }
    perm[i] = static_cast<size_t>(it - in_keys.begin());
    if (perm[i] != i) identity = false;
  }
  if (identity) {
    out.scores = input.scores;
  } else {
    out.scores.Reserve(input.scores.size());
    for (const auto& [key, pair] : input.scores.entries()) {
      Tuple permuted(perm.size());
      for (size_t i = 0; i < perm.size(); ++i) permuted[i] = key[perm[i]];
      out.scores.Set(permuted, pair);
      ++stats->score_entries_written;
    }
  }
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PJoin(const Expr& predicate, const PRelation& left,
                          const PRelation& right, const AggregateFunction& agg,
                          ExecStats* stats, const ParallelContext* parallel,
                          obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ASSIGN_OR_RETURN(JoinKernel join, JoinKernel::Make(predicate,
                                                     left.rel.schema(),
                                                     right.rel.schema()));
  if (join.hash()) join.Build(right.rel);
  KernelRegion region{parallel};
  JoinLineage lineage;
  PRelation out(join.Join(left.rel, right.rel, &region, &lineage));
  stats->tuples_materialized += out.rel.NumRows();
  // Each joined tuple combines its two input pairs with F (paper Fig. 3).
  if (!left.scores.empty() || !right.scores.empty()) {
    FoldScores(parallel, &out, stats, [&](size_t i, Tuple* key) {
      ScoreConf pair = CombineCounted(agg, PairOf(left, lineage.left[i]),
                                      PairOf(right, lineage.right[i]));
      if (!pair.IsDefault()) *key = out.rel.KeyOf(out.rel.rows()[i]);
      return pair;
    });
  }
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &region.plan);
  return out;
}

StatusOr<PRelation> PSemiJoin(const Expr& predicate, const PRelation& left,
                              const PRelation& right, ExecStats* stats,
                              const ParallelContext* parallel,
                              obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ASSIGN_OR_RETURN(JoinKernel join, JoinKernel::Make(predicate,
                                                     left.rel.schema(),
                                                     right.rel.schema()));
  if (join.hash()) join.Build(right.rel);
  KernelRegion region{parallel};
  RowIds kept = join.SemiJoin(left.rel, right.rel, &region);
  PRelation out = Subset(left, kept, stats, parallel);
  AnnotateSpan(span, left.rel.NumRows() + right.rel.NumRows(),
               out.rel.NumRows(), &region.plan);
  return out;
}

StatusOr<PRelation> PUnion(const PRelation& left, const PRelation& right,
                           const AggregateFunction& agg, ExecStats* stats,
                           const ParallelContext* parallel, obs::Span* span) {
  return PSetOp(PlanKind::kUnion, left, right, &agg, stats, parallel, span);
}

StatusOr<PRelation> PIntersect(const PRelation& left, const PRelation& right,
                               const AggregateFunction& agg, ExecStats* stats,
                               const ParallelContext* parallel,
                               obs::Span* span) {
  return PSetOp(PlanKind::kIntersect, left, right, &agg, stats, parallel,
                span);
}

StatusOr<PRelation> PDiff(const PRelation& left, const PRelation& right,
                          ExecStats* stats, const ParallelContext* parallel,
                          obs::Span* span) {
  return PSetOp(PlanKind::kExcept, left, right, /*agg=*/nullptr, stats,
                parallel, span);
}

StatusOr<PRelation> PDistinct(const PRelation& input, ExecStats* stats,
                              obs::Span* span) {
  ++stats->operator_invocations;
  KernelRegion region;
  RowIds kept = DistinctRows(input.rel.rows(), &region);
  PRelation out = Subset(input, kept, stats, /*parallel=*/nullptr);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PSort(const std::vector<SortKey>& keys,
                          const PRelation& input, ExecStats* stats,
                          obs::Span* span) {
  ++stats->operator_invocations;
  PRelation out = input;
  RETURN_IF_ERROR(SortRows(keys, &out.rel));
  stats->tuples_materialized += out.rel.NumRows();
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> PLimit(size_t n, const PRelation& input, ExecStats* stats,
                           obs::Span* span) {
  ++stats->operator_invocations;
  RowIds kept = LimitRows(n, input.rel.NumRows());
  PRelation out = Subset(input, kept, stats, /*parallel=*/nullptr);
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows());
  return out;
}

StatusOr<PRelation> EvalPrefer(const Preference& pref, const PRelation& input,
                               const AggregateFunction& agg,
                               const Catalog* catalog, ExecStats* stats,
                               const ParallelContext* parallel,
                               obs::Span* span) {
  ++stats->operator_invocations;
  RETURN_IF_ERROR(GovernorCheck(parallel));
  ExprPtr condition = pref.CloneCondition();
  RETURN_IF_ERROR(condition->Bind(input.rel.schema()));
  ScoringFunction scoring = pref.CloneScoring();
  RETURN_IF_ERROR(scoring.Bind(input.rel.schema()));

  // Membership preferences additionally require a join partner in the
  // member relation; build the probe set once.
  std::unordered_set<Value, ValueHash> member_keys;
  int local_col = -1;
  if (pref.membership() != nullptr) {
    const MembershipSpec& spec = *pref.membership();
    if (catalog == nullptr) {
      return Status::InvalidArgument(
          "membership preference requires catalog access: " + pref.name());
    }
    ASSIGN_OR_RETURN(Table * member, catalog->GetTable(spec.member_relation));
    ASSIGN_OR_RETURN(size_t member_idx,
                     member->schema().FindColumn(spec.member_column));
    ASSIGN_OR_RETURN(size_t local_idx,
                     input.rel.schema().FindColumn(spec.local_column));
    local_col = static_cast<int>(local_idx);
    member_keys.reserve(member->NumRows());
    for (const Tuple& row : member->relation().rows()) {
      member_keys.insert(row[member_idx]);
    }
    stats->rows_scanned += member->NumRows();
  }

  // The first morsel folds contributions into the output pairs in place,
  // later ones into partials from the identity, merged in morsel order
  // (see the header). The condition, scoring function and member keys are
  // immutable after binding.
  // Copy-assigned rather than copy-constructed: that measured ~20% faster
  // for a 100k-row prefer pass (bench_operators BM_PreferEvaluation).
  PRelation out;
  out.rel = input.rel;
  out.scores = input.scores;
  const std::vector<Tuple>& rows = out.rel.rows();
  KernelRegion region{parallel};
  std::vector<ScoreRelation> partials(region.Plan(rows.size()));
  std::vector<size_t> contributions(partials.size(), 0);
  ForEachRow(region, [&](size_t m, size_t i, GovernorTicker*) {
    const Tuple& row = rows[i];
    if (local_col >= 0 &&
        member_keys.count(row[static_cast<size_t>(local_col)]) == 0) {
      return;  // Membership not satisfied: tuple unaffected.
    }
    if (!IsTruthy(condition->Eval(row))) return;
    std::optional<double> score = scoring.Score(row);
    if (!score.has_value()) return;  // S(r) = ⊥ contributes nothing.
    ScoreRelation& local = m == 0 ? out.scores : partials[m];
    Tuple key = out.rel.KeyOf(row);
    local.Set(key, CombineCounted(agg, local.Lookup(key),
                                  ScoreConf::Known(*score, pref.confidence())));
    ++contributions[m];
  });
  for (size_t m = 0; m < partials.size(); ++m) {
    for (const auto& [key, pair] : partials[m].entries()) {
      out.scores.Set(key, CombineCounted(agg, out.scores.Lookup(key), pair));
    }
    stats->score_entries_written += contributions[m];
  }
  stats->tuples_materialized += out.rel.NumRows();
  AnnotateSpan(span, input.rel.NumRows(), out.rel.NumRows(), &region.plan);
  return out;
}

}  // namespace prefdb
