#ifndef PREFDB_PALGEBRA_P_OPS_H_
#define PREFDB_PALGEBRA_P_OPS_H_

#include "engine/exec_stats.h"
#include "obs/trace.h"
#include "palgebra/p_relation.h"
#include "parallel/parallel_context.h"
#include "plan/plan.h"
#include "prefs/agg_func.h"
#include "prefs/preference.h"
#include "storage/catalog.h"

namespace prefdb {

/// Physical implementations of the extended relational operators over
/// p-relations (paper §IV-B) and of the prefer operator λ_{p,F}
/// (paper §IV-C). These are the "user defined functions" of the paper's
/// prototype: they run in the middle layer, outside the native engine,
/// against materialized inputs.
///
/// Each relational p-operator is the engine's kernel (engine/kernels.h) —
/// the same filter, join, set-operation, distinct, sort and limit code the
/// native executor runs — followed by a score fold: every output row's pair
/// is computed from the kernel's lineage (the input row(s) it came from),
/// combining pairs with the aggregate function `F` where two inputs meet.
/// Only non-default pairs are stored, and keys follow the relation's
/// canonical key order.
///
/// Operators with a per-tuple hot loop — selection, prefer, the join probe,
/// the set operations' membership checks, and every score fold — accept an
/// optional ParallelContext (null = serial) and run the loop over its
/// morsels; per-morsel partial results are merged in morsel order, so rows,
/// their order and the score relation are the same at every thread count.
/// A serial context runs one covering morsel inline: there is no separate
/// serial code path.
///
/// Every operator also accepts an optional trace span (obs/trace.h). When
/// non-null, the operator annotates it with input/output cardinalities and
/// its morsel shape; the caller owns the span's timing (strategies wrap
/// each operator call in a SpanScope). A null span costs one pointer test.

/// σ_φ over a p-relation: hard boolean filter; surviving tuples keep their
/// pairs (score entries of dropped tuples are pruned) and their input
/// order.
StatusOr<PRelation> PSelect(const Expr& predicate, const PRelation& input,
                            ExecStats* stats,
                            const ParallelContext* parallel = nullptr,
                            obs::Span* span = nullptr);

/// π over a p-relation: projects columns, implicitly preserving the key
/// columns (and thereby scores and confidences, paper §IV-B).
StatusOr<PRelation> PProject(const std::vector<std::string>& columns,
                             const PRelation& input, ExecStats* stats,
                             obs::Span* span = nullptr);

/// Inner join ⋈_{φ,F}: joins tuples and combines their pairs with `F`
/// (paper Fig. 3). The output key is the concatenation of the input keys.
/// The probe side is morselized (the hash build stays serial), and so is
/// the fold of each joined row's two input pairs.
StatusOr<PRelation> PJoin(const Expr& predicate, const PRelation& left,
                          const PRelation& right, const AggregateFunction& agg,
                          ExecStats* stats,
                          const ParallelContext* parallel = nullptr,
                          obs::Span* span = nullptr);

/// Left semijoin ⋉_φ: keeps left tuples with at least one match; left pairs
/// are kept unchanged (the right side only qualifies tuples). The left-side
/// probe is morselized like PJoin's.
StatusOr<PRelation> PSemiJoin(const Expr& predicate, const PRelation& left,
                              const PRelation& right, ExecStats* stats,
                              const ParallelContext* parallel = nullptr,
                              obs::Span* span = nullptr);

/// Set union ∪_F with duplicate elimination; pairs of tuples present in
/// both inputs are combined with `F`. The left side's membership probes
/// against the right input run over morsels; duplicate elimination
/// (inherently sequential — first occurrence wins) stays serial over the
/// precomputed flags.
StatusOr<PRelation> PUnion(const PRelation& left, const PRelation& right,
                           const AggregateFunction& agg, ExecStats* stats,
                           const ParallelContext* parallel = nullptr,
                           obs::Span* span = nullptr);

/// Set intersection ∩_F; pairs combined with `F`. Parallelizes like PUnion.
StatusOr<PRelation> PIntersect(const PRelation& left, const PRelation& right,
                               const AggregateFunction& agg, ExecStats* stats,
                               const ParallelContext* parallel = nullptr,
                               obs::Span* span = nullptr);

/// Set difference: tuples of `left` not in `right`, keeping left pairs.
/// Parallelizes like PUnion.
StatusOr<PRelation> PDiff(const PRelation& left, const PRelation& right,
                          ExecStats* stats,
                          const ParallelContext* parallel = nullptr,
                          obs::Span* span = nullptr);

/// Duplicate elimination over a p-relation (pairs unaffected: duplicate
/// tuples share a key and therefore a pair).
StatusOr<PRelation> PDistinct(const PRelation& input, ExecStats* stats,
                              obs::Span* span = nullptr);

/// ORDER BY over a p-relation (pairs unaffected).
StatusOr<PRelation> PSort(const std::vector<SortKey>& keys,
                          const PRelation& input, ExecStats* stats,
                          obs::Span* span = nullptr);

/// First-n over a p-relation; pairs of dropped tuples are pruned.
StatusOr<PRelation> PLimit(size_t n, const PRelation& input, ExecStats* stats,
                           obs::Span* span = nullptr);

/// The prefer operator λ_{p,F} (paper Def. in §IV-C): evaluates preference
/// `pref` on the p-relation. For every tuple satisfying the conditional
/// part, the contributed pair ⟨S(r), C⟩ is combined with the tuple's
/// current pair using `F`; other tuples pass through unchanged. Never
/// filters tuples.
///
/// `catalog` is needed only for membership preferences (to probe the member
/// relation); it may be null otherwise.
///
/// The scoring pass is tuple-local and `F` is associative with identity
/// ⟨⊥, 0⟩ (paper §IV-A): the first morsel folds into the output pairs in
/// place, later morsels into partials merged in morsel order. Serially this
/// is one in-place pass; in parallel it equals it up to floating-point
/// association (exactly when keys are unique), the latitude the strategy
/// contract already grants.
StatusOr<PRelation> EvalPrefer(const Preference& pref, const PRelation& input,
                               const AggregateFunction& agg,
                               const Catalog* catalog, ExecStats* stats,
                               const ParallelContext* parallel = nullptr,
                               obs::Span* span = nullptr);

}  // namespace prefdb

#endif  // PREFDB_PALGEBRA_P_OPS_H_
