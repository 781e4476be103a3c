// Flattens the span tree a traced query returns (QueryResult::trace) into
// fixed per-layer buckets by span name. A span's self time is its duration
// minus the time its children cover; where children ran concurrently and
// cover more than their parent, the parent's self time counts as zero.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// The self-time buckets (milliseconds), in report order.
const std::vector<std::string>& SpanBuckets();

/// Where spans whose names no bucket rule knows are counted, so that a
/// renamed or new span shows up instead of vanishing.
inline constexpr const char* kUnbucketedSpans = "obs.unbucketed_spans";

/// Adds the self times (milliseconds) of every span under `root`, root
/// included, to `totals` by bucket, and counts unknown spans under
/// kUnbucketedSpans.
void AddSelfTimes(const prefdb::obs::Span& root,
                  std::map<std::string, double>* totals);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
