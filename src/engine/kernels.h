#ifndef PREFDB_ENGINE_KERNELS_H_
#define PREFDB_ENGINE_KERNELS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"
#include "obs/trace.h"
#include "parallel/morsel.h"
#include "parallel/parallel_context.h"
#include "plan/plan.h"
#include "types/relation.h"

namespace prefdb {

/// The physical operators, as kernels over materialized relations. The
/// native executor calls them on its children's outputs; the p-operators
/// (palgebra/p_ops.h) call the same kernels and fold scores over the
/// lineage they return. Kernels charge no ExecStats and open no spans.

/// Row indices into a kernel input, one per output row, in output order:
/// a selection vector, and the lineage the p-operators fold scores over.
using RowIds = std::vector<uint32_t>;

/// Where a hot loop runs: `parallel` (null = serial) partitions it and
/// supplies the governor; `morsel_parent`, when non-null, receives one
/// "morsel[i]" slice per morsel (obs::TraceLevel::kMorsel). `plan` is the
/// partitioning the loop used, for span annotations and metrics.
struct KernelRegion {
  const ParallelContext* parallel = nullptr;
  obs::Span* morsel_parent = nullptr;
  MorselPlan plan = MorselPlan();

  /// Plans `n` rows and returns the number of morsels.
  size_t Plan(size_t n) {
    plan = MorselPlan::Make(n, parallel);
    return plan.morsel_count();
  }
};

/// The one morsel loop of the operator layer: calls `body(morsel, row,
/// &ticker)` for every row of the region's plan, morsels running
/// concurrently; a serial plan is one covering morsel run inline. Bodies
/// write only state owned by their morsel index, merged in morsel order by
/// the caller. The governor is checked per morsel and ticked per row (inner
/// loops tick too), bounding cancellation latency even at threads=1.
template <typename Body>
void ForEachRow(const KernelRegion& region, const Body& body) {
  const QueryGovernor* governor =
      region.parallel == nullptr ? nullptr : region.parallel->governor;
  ParallelForTraced(region.plan, region.morsel_parent,
                    [&](size_t, const Morsel& m) {
                      GovernorCheckpoint(governor);
                      GovernorTicker ticker(governor);
                      for (size_t i = m.begin; i < m.end; ++i) {
                        ticker.Tick();
                        body(m.index, i, &ticker);
                      }
                    });
}

/// The rows `ids` of `input`, in order, under its schema and key: copied
/// from a const input, moved out of an owned one.
Relation TakeRows(const Relation& input, const RowIds& ids);
Relation TakeRows(Relation&& input, const RowIds& ids);

/// σ: the rows satisfying `bound` (bound to the rows' schema).
RowIds FilterRows(const Expr& bound, const std::vector<Tuple>& rows,
                  KernelRegion* region);

/// π: the columns `res.indices` of every row, keyed at `res.key_positions`.
Relation ProjectRows(const Relation& input, const ProjectionResolution& res);

/// Per output row of a join: the left and the right input row.
struct JoinLineage {
  RowIds left;
  RowIds right;
};

/// A join predicate bound over left ++ right, run as a hash join when an
/// equality conjunct links a left column to a right column (build on the
/// right, probe with the left) and as a nested loop otherwise.
class JoinKernel {
 public:
  static StatusOr<JoinKernel> Make(const Expr& predicate, const Schema& left,
                                   const Schema& right);

  bool hash() const { return hash_; }

  /// Hash joins, before probing: builds the table on `right` and returns
  /// its distinct keys. Serial, so each key's postings keep input order.
  size_t Build(const Relation& right);

  /// ⋈: matching pairs in left-row order, then right-row order; columns
  /// left ++ right, key the concatenated input keys. `lineage` may be null.
  Relation Join(const Relation& left, const Relation& right,
                KernelRegion* region, JoinLineage* lineage) const;

  /// ⋉: the left rows with at least one match.
  RowIds SemiJoin(const Relation& left, const Relation& right,
                  KernelRegion* region) const;

 private:
  JoinKernel() = default;

  // Calls `on_match(pos, joined)` for the right rows matching `lrow`, in
  // right-row order, until it returns false.
  template <typename OnMatch>
  void Probe(const Tuple& lrow, const std::vector<Tuple>& rrows,
             GovernorTicker* ticker, const OnMatch& on_match) const;

  ExprPtr bound_;
  bool hash_ = false;
  size_t left_col_ = 0;
  size_t right_col_ = 0;
  std::unordered_map<Value, std::vector<uint32_t>, ValueHash> table_;
};

/// Per output row of a set operation: source row, source side, and whether
/// the tuple also occurs in the other input (only left rows can: a right
/// row is emitted only when the left did not already emit its tuple).
struct SetOpLineage {
  RowIds row;
  size_t from_left = 0;  // Output rows [0, from_left) come from the left.
  std::vector<uint8_t> in_other;
};

/// `kind` ∈ {kUnion, kIntersect, kExcept} over inputs of equal arity,
/// first occurrence wins: left rows in order, then (UNION) right rows; the
/// left input's schema and key. UNION probes membership only for lineage.
Relation SetOpRows(PlanKind kind, const Relation& left, const Relation& right,
                   KernelRegion* region, SetOpLineage* lineage);

/// DISTINCT: the first occurrence of every tuple, in input order.
RowIds DistinctRows(const std::vector<Tuple>& rows, KernelRegion* region);

/// ORDER BY, in place: stable on `keys`, ties broken by the key columns so
/// the order (and any LIMIT above it) is deterministic.
Status SortRows(const std::vector<SortKey>& keys, Relation* rel);

/// LIMIT: the first min(limit, num_rows) rows.
RowIds LimitRows(size_t limit, size_t num_rows);

}  // namespace prefdb

#endif  // PREFDB_ENGINE_KERNELS_H_
