#include "engine/executor.h"

#include <utility>

#include "common/fault_injection.h"
#include "engine/kernels.h"

namespace prefdb {

namespace {

class Executor {
 public:
  Executor(Catalog* catalog, ExecStats* stats, const NativeExecOptions& options)
      : catalog_(catalog),
        stats_(stats),
        parallel_(options.parallel),
        trace_level_(options.trace_level),
        metrics_(options.metrics == nullptr ? NativeExecMetrics{}
                                            : *options.metrics) {}

  StatusOr<Relation> Execute(const PlanNode& node, obs::Span* parent) {
    ++stats_->operator_invocations;
    // Operator-entry checkpoint: a governed query stops before starting
    // another operator, whatever its regions' morsel shape.
    RETURN_IF_ERROR(GovernorCheck(parallel_));
    RETURN_IF_ERROR(FaultInjection::Global().Hit("exec.operator"));
    switch (node.kind) {
      case PlanKind::kScan:
        return ExecScan(node, /*predicate=*/nullptr, parent);
      case PlanKind::kSelect:
        // Fuse Select(Scan) so base predicates can use indexes and avoid
        // materializing the unfiltered table.
        if (node.child().kind == PlanKind::kScan) {
          return ExecScan(node.child(), node.predicate.get(), parent);
        }
        return ExecSelect(node, parent);
      case PlanKind::kProject:
        return ExecProject(node, parent);
      case PlanKind::kJoin:
        return ExecJoin(node, /*semi=*/false, parent);
      case PlanKind::kSemiJoin:
        return ExecJoin(node, /*semi=*/true, parent);
      case PlanKind::kUnion:
      case PlanKind::kIntersect:
      case PlanKind::kExcept:
        return ExecSetOp(node, parent);
      case PlanKind::kDistinct:
        return ExecDistinct(node, parent);
      case PlanKind::kSort:
        return ExecSort(node, parent);
      case PlanKind::kLimit:
        return ExecLimit(node, parent);
      case PlanKind::kPrefer:
        return Status::Unimplemented(
            "the conventional executor cannot evaluate prefer operators; "
            "use a preference-aware execution strategy");
    }
    return Status::Internal("unknown plan kind");
  }

 private:
  static void Bump(obs::Counter* counter, size_t n) {
    if (counter != nullptr) counter->Increment(n);
  }

  // The region an operator's kernel runs in; at TraceLevel::kMorsel the
  // operator span `op_span` receives its per-morsel slices.
  KernelRegion Region(obs::Span* op_span) const {
    return {parallel_,
            trace_level_ == obs::TraceLevel::kMorsel ? op_span : nullptr};
  }

  // Counts a kernel region that split into concurrent morsels. The
  // ExecStats block and every span stay owned by the calling thread.
  void CountRegion(const KernelRegion& region) {
    if (!region.plan.serial()) Bump(metrics_.parallel_regions, 1);
  }

  // Charges an operator's output and records it on the operator's span.
  Relation Produce(obs::Span* span, Relation out) {
    stats_->tuples_materialized += out.NumRows();
    obs::SetRowsOut(span, out.NumRows());
    return out;
  }

  StatusOr<Relation> ExecScan(const PlanNode& node, const Expr* predicate,
                              obs::Span* parent) {
    obs::SpanScope scope(parent, "native.scan");
    ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(node.table_name));
    // Strategy-registered temporaries carry a process-unique counter in
    // their name; masking it keeps the timing-free trace rendering
    // byte-identical run to run (the determinism contract).
    obs::AppendDetail(
        scope.get(),
        table->temporary()
            ? "table=<temp>"
            : "table=" + (node.alias.empty() ? node.table_name : node.alias));
    Schema schema = table->schema();
    if (!node.alias.empty() && node.alias != node.table_name) {
      schema = schema.WithQualifier(node.alias);
    }
    Relation out(schema);
    out.set_key_columns(table->primary_key());
    const std::vector<Tuple>& rows = table->relation().rows();

    if (predicate == nullptr) {
      stats_->rows_scanned += rows.size();
      Bump(metrics_.scan_rows, rows.size());
      obs::SetRowsIn(scope.get(), rows.size());
      *out.mutable_rows() = rows;
      return Produce(scope.get(), std::move(out));
    }

    // Try an index scan: find an `col = literal` conjunct.
    ExprPtr bound = predicate->Clone();
    RETURN_IF_ERROR(bound->Bind(schema));
    int index_col = -1;
    Value index_key;
    FindIndexableConjunct(*bound, schema, &index_col, &index_key);
    if (index_col >= 0) {
      const HashIndex& index = table->EnsureIndex(static_cast<size_t>(index_col));
      const std::vector<uint32_t>& matches = index.Lookup(index_key);
      obs::AppendDetail(scope.get(), "index");
      stats_->rows_scanned += matches.size();
      Bump(metrics_.scan_rows, matches.size());
      obs::SetRowsIn(scope.get(), matches.size());
      out.Reserve(matches.size());
      for (uint32_t pos : matches) {
        const Tuple& row = rows[pos];
        if (IsTruthy(bound->Eval(row))) out.AddRow(row);
      }
    } else {
      stats_->rows_scanned += rows.size();
      Bump(metrics_.scan_rows, rows.size());
      obs::SetRowsIn(scope.get(), rows.size());
      KernelRegion region = Region(scope.get());
      RowIds kept = FilterRows(*bound, rows, &region);
      CountRegion(region);
      *out.mutable_rows() =
          std::move(*TakeRows(table->relation(), kept).mutable_rows());
    }
    return Produce(scope.get(), std::move(out));
  }

  // Looks for an equality conjunct between a column of `schema` and a
  // literal, to serve via hash index. Prefers higher-selectivity (key)
  // columns implicitly by taking the first match.
  static void FindIndexableConjunct(const Expr& bound, const Schema& schema,
                                    int* col_out, Value* key_out) {
    if (bound.kind() == ExprKind::kLogical) {
      const auto& logical = static_cast<const LogicalExpr&>(bound);
      if (logical.op() != LogicalOp::kAnd) return;
      FindIndexableConjunct(logical.left(), schema, col_out, key_out);
      if (*col_out < 0) {
        FindIndexableConjunct(logical.right(), schema, col_out, key_out);
      }
      return;
    }
    if (bound.kind() != ExprKind::kComparison) return;
    const auto& cmp = static_cast<const ComparisonExpr&>(bound);
    if (cmp.op() != CompareOp::kEq) return;
    const Expr* col = &cmp.left();
    const Expr* lit = &cmp.right();
    if (col->kind() != ExprKind::kColumnRef) std::swap(col, lit);
    if (col->kind() != ExprKind::kColumnRef || lit->kind() != ExprKind::kLiteral) {
      return;
    }
    int idx = static_cast<const ColumnRefExpr*>(col)->index();
    if (idx < 0) return;
    *col_out = idx;
    *key_out = static_cast<const LiteralExpr*>(lit)->value();
  }

  StatusOr<Relation> ExecSelect(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.select");
    ASSIGN_OR_RETURN(Relation input, Execute(node.child(), scope.get()));
    ExprPtr bound = node.predicate->Clone();
    RETURN_IF_ERROR(bound->Bind(input.schema()));
    obs::SetRowsIn(scope.get(), input.NumRows());
    KernelRegion region = Region(scope.get());
    RowIds kept = FilterRows(*bound, input.rows(), &region);
    CountRegion(region);
    return Produce(scope.get(), TakeRows(std::move(input), kept));
  }

  StatusOr<Relation> ExecProject(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.project");
    ASSIGN_OR_RETURN(Relation input, Execute(node.child(), scope.get()));
    PlanShape input_shape{input.schema(), input.key_columns()};
    ASSIGN_OR_RETURN(ProjectionResolution res,
                     ResolveProjection(input_shape, node.project_columns));
    obs::SetRowsIn(scope.get(), input.NumRows());
    return Produce(scope.get(), ProjectRows(input, res));
  }

  StatusOr<Relation> ExecJoin(const PlanNode& node, bool semi,
                              obs::Span* parent) {
    obs::SpanScope scope(parent, "native.join");
    if (semi) obs::AppendDetail(scope.get(), "semi");
    ASSIGN_OR_RETURN(Relation left, Execute(node.child(0), scope.get()));
    ASSIGN_OR_RETURN(Relation right, Execute(node.child(1), scope.get()));
    obs::SetRowsIn(scope.get(), left.NumRows() + right.NumRows());
    ASSIGN_OR_RETURN(JoinKernel join,
                     JoinKernel::Make(*node.predicate, left.schema(),
                                      right.schema()));
    obs::AppendDetail(scope.get(), join.hash() ? "hash" : "nested_loop");
    if (join.hash()) {
      obs::SpanScope build_scope(scope.get(), "native.join.build");
      obs::SetRowsIn(build_scope.get(), right.NumRows());
      size_t keys = join.Build(right);
      obs::SetRowsOut(build_scope.get(), keys);
      Bump(metrics_.join_build_rows, right.NumRows());
    }
    obs::SpanScope probe_scope(scope.get(), "native.join.probe");
    obs::SetRowsIn(probe_scope.get(), left.NumRows());
    Bump(metrics_.join_probe_rows, left.NumRows());
    KernelRegion region = Region(probe_scope.get());
    Relation out =
        semi ? TakeRows(std::move(left), join.SemiJoin(left, right, &region))
             : join.Join(left, right, &region, /*lineage=*/nullptr);
    CountRegion(region);
    obs::SetRowsOut(probe_scope.get(), out.NumRows());
    return Produce(scope.get(), std::move(out));
  }

  static const char* SetOpSpanName(PlanKind kind) {
    switch (kind) {
      case PlanKind::kUnion:
        return "native.union";
      case PlanKind::kIntersect:
        return "native.intersect";
      case PlanKind::kExcept:
        return "native.except";
      default:
        return "native.setop";
    }
  }

  StatusOr<Relation> ExecSetOp(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, SetOpSpanName(node.kind));
    ASSIGN_OR_RETURN(Relation left, Execute(node.child(0), scope.get()));
    ASSIGN_OR_RETURN(Relation right, Execute(node.child(1), scope.get()));
    if (left.schema().size() != right.schema().size()) {
      return Status::InvalidArgument("set operation inputs differ in arity");
    }
    obs::SetRowsIn(scope.get(), left.NumRows() + right.NumRows());
    // UNION needs no membership probe (first occurrence wins over both
    // inputs); INTERSECT and EXCEPT probe every left row.
    if (node.kind != PlanKind::kUnion) {
      Bump(metrics_.setop_probe_rows, left.NumRows());
    }
    KernelRegion region = Region(scope.get());
    Relation out =
        SetOpRows(node.kind, left, right, &region, /*lineage=*/nullptr);
    CountRegion(region);
    return Produce(scope.get(), std::move(out));
  }

  StatusOr<Relation> ExecDistinct(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.distinct");
    ASSIGN_OR_RETURN(Relation input, Execute(node.child(), scope.get()));
    obs::SetRowsIn(scope.get(), input.NumRows());
    Bump(metrics_.distinct_rows, input.NumRows());
    KernelRegion region = Region(scope.get());
    RowIds kept = DistinctRows(input.rows(), &region);
    CountRegion(region);
    return Produce(scope.get(), TakeRows(std::move(input), kept));
  }

  StatusOr<Relation> ExecSort(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.sort");
    ASSIGN_OR_RETURN(Relation input, Execute(node.child(), scope.get()));
    obs::SetRowsIn(scope.get(), input.NumRows());
    RETURN_IF_ERROR(SortRows(node.sort_keys, &input));
    return Produce(scope.get(), std::move(input));
  }

  StatusOr<Relation> ExecLimit(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.limit");
    ASSIGN_OR_RETURN(Relation input, Execute(node.child(), scope.get()));
    obs::SetRowsIn(scope.get(), input.NumRows());
    RowIds kept = LimitRows(node.limit, input.NumRows());
    return Produce(scope.get(), TakeRows(std::move(input), kept));
  }

  Catalog* catalog_;
  ExecStats* stats_;
  const ParallelContext* parallel_;  // Null = serial.
  obs::TraceLevel trace_level_;      // kMorsel = per-morsel slices.
  NativeExecMetrics metrics_;        // All-null when metrics are off.
};

}  // namespace

StatusOr<Relation> ExecutePlan(const PlanNode& node, Catalog* catalog,
                               ExecStats* stats,
                               const NativeExecOptions& options) {
  Executor executor(catalog, stats, options);
  return executor.Execute(node, options.span);
}

StatusOr<Relation> ExecutePlan(const PlanNode& node, Catalog* catalog,
                               ExecStats* stats) {
  return ExecutePlan(node, catalog, stats, NativeExecOptions());
}

}  // namespace prefdb
