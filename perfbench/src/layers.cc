#include "layers.h"

#include <algorithm>
#include <string_view>

namespace perfbench {

namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string_view BucketOf(std::string_view name) {
  // Native executor operators (engine).
  if (name == "native.scan") return "engine.scan_ms";
  if (name == "native.join.build") return "engine.join_build_ms";
  if (name == "native.join.probe") return "engine.join_probe_ms";
  if (name == "native.project") return "engine.project_ms";
  if (name == "native.select") return "engine.select_ms";
  if (StartsWith(name, "native.")) return "engine.other_ms";
  // Delegated conventional queries: native optimization, cache probe and
  // hand-off around the operators above.
  if (StartsWith(name, "EngineQuery") || name == "RegionQuery" ||
      name == "CombinedQuery" || StartsWith(name, "DelegatedQuery[") ||
      StartsWith(name, "RewriteQuery[") || StartsWith(name, "MembershipQuery[")) {
    return "engine.delegate_ms";
  }
  if (name == "ExtendedOptimize") return "optimizer.extended_ms";
  if (StartsWith(name, "Prefer[")) return "palgebra.prefer_ms";
  if (name == "FilterAndProject") return "palgebra.filter_project_ms";
  // Operator-at-a-time p-operators (BU evaluates every plan node).
  static constexpr std::string_view kPOps[] = {
      "Select", "Project", "Join",     "SemiJoin", "Union", "Intersect",
      "Except", "Distinct", "Sort",    "Limit"};
  if (StartsWith(name, "Scan[") ||
      std::find(std::begin(kPOps), std::end(kPOps), name) != std::end(kPOps)) {
    return "palgebra.pop_ms";
  }
  if (name == "RecombineScores" || StartsWith(name, "MergePartial[")) {
    return "exec.recombine_ms";
  }
  if (StartsWith(name, "strategy[") || StartsWith(name, "Region[") ||
      name == "MaterializeRegionInputs" || name == "PrefetchDelegatedQueries" ||
      name == "PostFilterSweep" || name == "task" ||
      StartsWith(name, "morsel[")) {
    return "exec.region_self_ms";
  }
  if (name == "Query") return "exec.query_self_ms";
  return "";
}

}  // namespace

const std::vector<std::string>& SpanBuckets() {
  static const std::vector<std::string> buckets = {
      "optimizer.extended_ms", "engine.scan_ms",       "engine.join_build_ms",
      "engine.join_probe_ms",  "engine.project_ms",    "engine.select_ms",
      "engine.other_ms",       "engine.delegate_ms",   "palgebra.prefer_ms",
      "palgebra.pop_ms",       "palgebra.filter_project_ms",
      "exec.recombine_ms",     "exec.region_self_ms",  "exec.query_self_ms"};
  return buckets;
}

void AddSelfTimes(const prefdb::obs::Span& root,
                  std::map<std::string, double>* totals) {
  std::string_view bucket = BucketOf(root.name);
  if (bucket.empty()) {
    (*totals)[kUnbucketedSpans] += 1.0;
  } else {
    double self_us = std::max(0.0, root.micros - root.ChildMicros());
    (*totals)[std::string(bucket)] += self_us / 1000.0;
  }
  for (const prefdb::obs::SpanPtr& child : root.children) {
    AddSelfTimes(*child, totals);
  }
}

}  // namespace perfbench
