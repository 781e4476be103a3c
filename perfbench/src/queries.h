// The benchmark's queries: the Table II workload (SQL from src/workload,
// with an independent spec of each query for the reference), and the
// personalization setting's query skeletons and per-user profiles.
#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

#include <random>
#include <string>
#include <vector>

#include "prefs/profile.h"
#include "reference.h"

namespace perfbench {

/// One Table II query: its PrefSQL text as the workload defines it and the
/// reference spec of the same query.
struct Table2Query {
  std::string sql;
  QuerySpec spec;
  bool imdb = true;  // Which database it reads.
};

/// IMDB-1..3 then DBLP-1..3. Fails if src/workload no longer defines one
/// of them.
prefdb::StatusOr<std::vector<Table2Query>> Table2Queries();

/// The IMDB Table II queries without their PREFERRING clauses: the
/// questions many users ask, each with their own preferences.
std::vector<QuerySpec> ImdbSkeletons();

/// PrefSQL text of a spec without its preferences: SELECT, joins, WHERE
/// and the filter clauses.
std::string SkeletonSql(const QuerySpec& spec);

/// A user's profile: 2-5 preferences drawn from the templates (genre like
/// and dislike, recency, rating, duration, director, actor, award
/// membership) with per-user constants.
std::vector<Pref> DrawProfile(std::mt19937_64* rng);

/// The engine's Profile for the same preferences.
prefdb::StatusOr<prefdb::Profile> BuildProfile(const std::string& user,
                                               const std::vector<Pref>& prefs);

/// The preferences of `profile` that apply to a query over `spec`'s
/// tables: those whose relations the query reads (paper §I/§V).
std::vector<Pref> RelevantPrefs(const std::vector<Pref>& profile,
                                const QuerySpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
