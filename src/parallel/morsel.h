#ifndef PREFDB_PARALLEL_MORSEL_H_
#define PREFDB_PARALLEL_MORSEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "obs/trace.h"
#include "parallel/parallel_context.h"

namespace prefdb {

/// A contiguous chunk of rows [begin, end) of some input relation — the
/// unit of morsel-driven scheduling. `index` is the morsel's position in
/// input order; operators that keep per-morsel partial results merge them
/// in index order so parallel output is deterministic for a fixed
/// ParallelContext, independent of which thread ran which morsel.
struct Morsel {
  size_t begin = 0;
  size_t end = 0;
  size_t index = 0;

  size_t size() const { return end - begin; }
};

/// The partitioning decision for one parallel region over `n` input rows:
/// either a single serial pass (small input, or a serial context) or a list
/// of morsels to be claimed by up to `slots()` concurrent workers.
class MorselPlan {
 public:
  /// Splits [0, n) into morsels of `ctx.morsel_size` rows. Falls back to a
  /// serial plan (one morsel, one slot) when the context is serial, when
  /// `n < ctx.min_parallel_rows`, or when fewer than two morsels result.
  static MorselPlan Make(size_t n, const ParallelContext& ctx);

  /// Pointer-taking convenience for operators whose parallelism is optional
  /// plumbing: a null context means "serial". The kernels, the score folds
  /// and the prefer operator all partition through this entry point.
  static MorselPlan Make(size_t n, const ParallelContext* ctx);

  /// True when the region runs inline on the calling thread: ParallelFor
  /// then calls the same body for the single covering morsel, so serial
  /// and parallel execution share one code path. Operators consult it
  /// only to label spans and count parallel regions.
  bool serial() const { return slots_ <= 1; }

  /// Number of concurrent worker slots (1 for serial plans; otherwise
  /// min(ctx.threads, morsel_count)).
  size_t slots() const { return slots_; }

  size_t morsel_count() const { return morsels_.size(); }
  const Morsel& morsel(size_t i) const { return morsels_[i]; }
  size_t rows() const { return rows_; }

 private:
  std::vector<Morsel> morsels_;
  size_t slots_ = 1;
  size_t rows_ = 0;
};

/// Runs `fn(slot, morsel)` for every morsel of `plan`.
///
/// Serial plans run inline, in morsel order, entirely on the calling
/// thread. Parallel plans dispatch `plan.slots() - 1` tasks to the shared
/// thread pool and use the calling thread as slot 0; all slots claim
/// morsels from a shared atomic cursor (morsel-driven scheduling), so a
/// slow morsel never strands the rest of the input, and the region cannot
/// deadlock even if every pool worker is busy — the caller alone will
/// drain the cursor. `fn` must be safe to call concurrently from
/// different slots; `slot` is in [0, plan.slots()) and can index
/// per-worker scratch state. The first exception thrown by any slot is
/// rethrown here after all slots finish.
void ParallelFor(const MorselPlan& plan,
                 const std::function<void(size_t slot, const Morsel&)>& fn);

/// ParallelFor plus per-morsel trace spans (TraceLevel::kMorsel): every
/// morsel records a "morsel[i]" child under `parent` carrying its row range
/// (detail "range=[begin, end)"), its size (rows_in) and its wall time.
/// Each slot times its own morsels into a detached span indexed by morsel
/// number; after the join the spans are adopted into `parent` in morsel
/// order, so the assembled tree is a pure function of (row count,
/// ParallelContext) — scheduling never reorders it, and at threads=1 the
/// single covering morsel makes the untimed rendering byte-identical run
/// to run. A null `parent` degrades to plain ParallelFor.
void ParallelForTraced(
    const MorselPlan& plan, obs::Span* parent,
    const std::function<void(size_t slot, const Morsel&)>& fn);

/// Runs every function in `fns` exactly once, with up to
/// `ctx.ResolvedThreads()` concurrent workers. The coarse-grained sibling
/// of ParallelFor, used for independent units that are not row ranges:
/// plan subtrees (BU's join/set-operation children, GBU's prefer-subtree
/// materializations) and batches of engine queries (the plug-ins).
///
/// Serial contexts — or fewer than two functions — run everything in index
/// order on the calling thread, taking exactly the code path a serial
/// caller would have written. Parallel contexts dispatch `workers - 1`
/// pool tasks and use the calling thread as a worker; all workers claim
/// function indices from a shared atomic cursor, so the caller alone can
/// drain the batch if the pool is saturated, and nested invocations are
/// deadlock-free (TaskGroup joins help the pool while waiting). Functions
/// must be safe to run concurrently with each other and must communicate
/// results through their own slots (e.g. a pre-sized vector of optionals);
/// the first exception thrown by any function is rethrown here after all
/// of them finish.
void ParallelInvoke(const ParallelContext& ctx,
                    const std::vector<std::function<void()>>& fns);

}  // namespace prefdb

#endif  // PREFDB_PARALLEL_MORSEL_H_
