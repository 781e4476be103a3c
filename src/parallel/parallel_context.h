#ifndef PREFDB_PARALLEL_PARALLEL_CONTEXT_H_
#define PREFDB_PARALLEL_PARALLEL_CONTEXT_H_

#include <cstddef>
#include <string>

#include "common/governor.h"

namespace prefdb {

/// Intra-query parallelism knobs, plumbed from the session's QueryOptions
/// through the Engine into the morsel-driven operators (the engine's
/// kernels, the p-operators' score folds, prefer) and into the strategies
/// that evaluate subtrees or issue engine queries concurrently.
///
/// The default is serial execution (`threads == 1`): every region plans one
/// covering morsel that runs inline on the calling thread — the same code
/// the parallel regions run — and is bit-identical run to run, the
/// reproducibility baseline the equivalence tests compare against.
struct ParallelContext {
  /// Maximum number of concurrent worker slots per parallel region.
  /// 0 means "use the hardware concurrency"; 1 means serial.
  size_t threads = 1;

  /// Rows per morsel. Morsels are the unit of work stealing: small enough
  /// to balance skew, large enough to amortize dispatch (a few thousand
  /// rows keeps a morsel's tuples within the L2 footprint for the narrow
  /// schemas of the evaluation workloads).
  size_t morsel_size = 1024;

  /// Inputs with fewer rows than this run serially regardless of
  /// `threads`: below the threshold, dispatch overhead dominates any
  /// parallel win.
  size_t min_parallel_rows = 2048;

  /// Cooperative query governor consulted at cancellation checkpoints
  /// (morsel-loop bodies, operator entry, materialization sites). Null —
  /// the default — means ungoverned: each checkpoint is one pointer test.
  /// Session::Run points this at a stack-local governor for the duration
  /// of one query; the object outlives every task observing the context.
  const QueryGovernor* governor = nullptr;

  /// `threads` with 0 resolved to the hardware concurrency (at least 1).
  size_t ResolvedThreads() const;

  /// True when this context always runs its regions inline.
  bool IsSerial() const { return ResolvedThreads() <= 1; }

  static ParallelContext Serial() { return ParallelContext(); }
  static ParallelContext Hardware() {
    ParallelContext ctx;
    ctx.threads = 0;
    return ctx;
  }

  std::string ToString() const;
};

/// Operator-entry governor check through an optional context — operators
/// receive their ParallelContext as a possibly-null pointer.
inline Status GovernorCheck(const ParallelContext* ctx) {
  return ctx == nullptr ? Status::OK() : GovernorCheck(ctx->governor);
}

}  // namespace prefdb

#endif  // PREFDB_PARALLEL_PARALLEL_CONTEXT_H_
