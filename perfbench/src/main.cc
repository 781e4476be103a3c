// prefdb benchmark: one closed-loop client in one process, zero think
// time. See ../README.md for the workloads, metrics and how to run it.
//
//   perfbench --workload <table2-serial|table2-parallel|personalized-cached>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Progress and diagnostics go to standard error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checker.h"
#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "exec/personalize.h"
#include "exec/runner.h"
#include "layers.h"
#include "parallel/thread_pool.h"
#include "parser/parser.h"
#include "queries.h"
#include "reference.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using prefdb::QueryOptions;
using prefdb::QueryResult;
using prefdb::Session;
using prefdb::StrategyKind;

// Taken during static initialization, before main: set-up time counts from
// here.
const Clock::time_point kProcessStart = Clock::now();

// Scale factor relative to the paper's Table I. At 0.01 query time goes
// into per-row work (4-130 ms per query), while data generation — which is
// quadratic today — stays near ten seconds.
constexpr double kScale = 0.01;

constexpr StrategyKind kStrategies[] = {
    StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
    StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
constexpr size_t kNumStrategies = std::size(kStrategies);
constexpr const char* kStrategyMetrics[] = {
    "ftp_round_ms", "bu_round_ms", "gbu_round_ms", "plugin_basic_round_ms",
    "plugin_combined_round_ms"};

// personalized-cached: the user population, the skew of who asks, the share
// of RATINGS rows a replacement changes, and how much of the stream the
// reference re-evaluates. The population (users and their profiles) is
// part of the workload's definition and the same for every seed; the seed
// draws the data, the request stream and the second RATINGS version.
constexpr size_t kUsers = 1000;
constexpr uint64_t kPopulationSeed = 20120401;
constexpr double kUserSkew = 1.0;
constexpr double kReferenceSample = 0.05;
constexpr double kRatingsChanged = 0.3;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      args->selftest = true;
    } else if (a == "--workload") {
      if ((v = value("--workload")) == nullptr) return false;
      args->workload = v;
    } else if (a == "--seed") {
      if ((v = value("--seed")) == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      if ((v = value("--seconds")) == nullptr) return false;
      args->seconds = std::atof(v);
    } else if (a == "--trace") {
      if ((v = value("--trace")) == nullptr) return false;
      args->trace = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
  }
  if (!args->selftest && args->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return args->seconds > 0.0;
}

// Per-round totals. A round is the unit behind the per-strategy metrics.
struct Round {
  bool traced = false;
  double wall_ms = 0.0;
  double strategy_ms[kNumStrategies] = {};
  prefdb::ExecStats exec;
  std::map<std::string, double> spans;  // Traced rounds only.
};

// Everything measured in the timed phase.
struct Measurement {
  std::vector<double> latency_ms;  // Per query, untraced rounds.
  std::vector<double> parse_us;
  std::vector<double> personalize_us;
  std::vector<double> reload_ms;
  double wall_s = 0.0;  // Summed over untraced operations.
  double cpu_s = 0.0;
  size_t queries = 0;  // Untraced queries.
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Round> rounds;
  prefdb::cache::QueryCache::Stats cache_before, cache_after;
  prefdb::ThreadPoolTelemetry pool_before, pool_after;
};

// Set-up figures, timed directly.
struct Setup {
  double imdb_s = 0.0;
  double dblp_s = 0.0;
  double warmup_s = 0.0;
  // Time spent in the benchmark's own checking during set-up (reference
  // evaluation, the serial pass of table2-parallel); not set-up of the
  // program, so subtracted from setup_s.
  double checking_s = 0.0;
};

// Correctness bookkeeping: every failed check is counted, the first few
// are printed.
struct Checks {
  size_t performed = 0;
  size_t failures = 0;

  void Expect(bool ok, const std::string& what) {
    ++performed;
    if (ok) return;
    if (++failures <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

// One query of the closed loop: parse (plus profile injection), run, and
// the timings of each step.
struct QueryRun {
  std::optional<QueryResult> result;
  size_t injected = 0;
  double wall_ms = 0.0;
  double cpu_s = 0.0;
  double parse_us = 0.0;
  double personalize_us = 0.0;
};

QueryRun RunQuery(Session* session, const std::string& sql,
                  const prefdb::Profile* profile, const QueryOptions& options) {
  QueryRun run;
  double cpu0 = CpuSeconds();
  Clock::time_point t0 = Clock::now();
  auto parsed = prefdb::ParseQuery(sql, session->engine().catalog());
  Clock::time_point t1 = Clock::now();
  Clock::time_point t2 = t1;
  prefdb::Status status = parsed.status();
  if (status.ok() && profile != nullptr) {
    auto injected =
        prefdb::InjectProfile(&*parsed, *profile, session->engine().catalog());
    t2 = Clock::now();
    status = injected.status();
    if (injected.ok()) run.injected = *injected;
  }
  if (status.ok()) {
    auto result = session->Run(*parsed, options);
    status = result.status();
    if (result.ok()) run.result = std::move(*result);
  }
  Clock::time_point t3 = Clock::now();
  run.cpu_s = CpuSeconds() - cpu0;
  run.wall_ms = 1e3 * Seconds(t3 - t0);
  run.parse_us = 1e6 * Seconds(t1 - t0);
  run.personalize_us = 1e6 * Seconds(t2 - t1);
  if (!status.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n", status.ToString().c_str(),
                 sql.c_str());
  }
  return run;
}

// Books one finished query into the round and the measurement.
void Record(const QueryRun& run, size_t strategy, Round* round,
            Measurement* m) {
  ++m->attempted;
  round->wall_ms += run.wall_ms;
  if (!run.result) {
    ++m->failed;
    return;
  }
  round->strategy_ms[strategy] += run.wall_ms;
  round->exec.Merge(run.result->stats);
  m->parse_us.push_back(run.parse_us);
  m->personalize_us.push_back(run.personalize_us);
  if (round->traced) {
    if (run.result->trace) AddSelfTimes(*run.result->trace, &round->spans);
    return;
  }
  m->latency_ms.push_back(run.wall_ms);
  m->wall_s += run.wall_ms / 1e3;
  m->cpu_s += run.cpu_s;
  ++m->queries;
}

// Checks the answer of one query against its reference, by the properties
// of the filter clauses.
void CheckAnswer(const QueryResult& result, const QuerySpec& spec,
                 const RefAnswer* reference, const std::string& label,
                 Checks* checks) {
  auto rows = RowsOf(result.relation, spec.output.size());
  if (!rows.ok()) {
    checks->Expect(false, label + ": " + rows.status().ToString());
    return;
  }
  std::string problem = reference != nullptr
                            ? CheckAgainstReference(*rows, *reference, spec)
                            : CheckProperties(*rows, spec);
  checks->Expect(problem.empty(), label + ": " + problem);
}

// Method invariant, checked with the cache off or replaying cached counts:
// FtP sends the engine one query, the basic plug-in one per preference
// plus the non-preference query.
void CheckEngineQueries(const QueryResult& result, StrategyKind strategy,
                        size_t n_prefs, const std::string& label,
                        Checks* checks) {
  size_t expected = 0;
  if (strategy == StrategyKind::kFtP) expected = 1;
  if (strategy == StrategyKind::kPlugInBasic) expected = n_prefs + 1;
  if (expected == 0) return;
  checks->Expect(result.stats.engine_queries == expected,
                 label + ": " + std::to_string(result.stats.engine_queries) +
                     " engine queries, expected " + std::to_string(expected));
}

std::string Label(const std::string& query, StrategyKind strategy) {
  return query + "/" + std::string(prefdb::StrategyKindName(strategy));
}

// Sums the cache counters of `sessions`.
prefdb::cache::QueryCache::Stats CacheTotals(const std::vector<Session*>& sessions) {
  prefdb::cache::QueryCache::Stats total;
  for (Session* session : sessions) {
    prefdb::cache::QueryCache::Stats s = session->engine().cache()->snapshot();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.insertions += s.insertions;
    total.admission_rejected += s.admission_rejected;
    total.entries += s.entries;
    total.bytes += s.bytes;
  }
  return total;
}

// Runs rounds until `seconds` of operation time have been measured; every
// run finishes whole rounds. With tracing, odd rounds are traced.
template <typename RunRound>
void TimedPhase(const Args& args, const std::vector<Session*>& sessions,
                Measurement* m, RunRound run_round) {
  m->pool_before = prefdb::ThreadPool::Shared().telemetry();
  m->cache_before = CacheTotals(sessions);
  double measured_s = 0.0;
  size_t min_rounds = args.trace ? 2 : 1;
  while (measured_s < args.seconds || m->rounds.size() < min_rounds) {
    Round round;
    round.traced = args.trace && m->rounds.size() % 2 == 1;
    run_round(&round);
    measured_s += round.wall_ms / 1e3;
    m->rounds.push_back(std::move(round));
  }
  m->pool_after = prefdb::ThreadPool::Shared().telemetry();
  m->cache_after = CacheTotals(sessions);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using MetricList = std::vector<Metric>;

void PrintResult(const Checks& checks, const Measurement& m,
                 const MetricList& metrics) {
  std::fprintf(stderr, "checks: %zu performed, %zu failed\n", checks.performed,
               checks.failures);
  std::string json = "{\"correct\": ";
  json += checks.failures == 0 && checks.performed > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.attempted);
  json += ", \"failed\": " + std::to_string(m.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// a / b, or 0 when there is nothing to divide by.
double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

MetricList EndToEnd(double setup_s, const Measurement& m) {
  const double queries = static_cast<double>(m.queries);
  MetricList out = {
      {"setup_s", setup_s, "s"},
      {"throughput_qps", Ratio(queries, m.wall_s), "queries/s"},
      {"latency_p95_ms", Percentile(m.latency_ms, 0.95), "ms"},
      {"cpu_ms_per_query", Ratio(1e3 * m.cpu_s, queries), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"}};
  for (size_t s = 0; s < kNumStrategies; ++s) {
    std::vector<double> per_round;
    for (const Round& r : m.rounds) {
      if (!r.traced) per_round.push_back(r.strategy_ms[s]);
    }
    out.push_back({kStrategyMetrics[s], Median(per_round), "ms"});
  }
  std::fprintf(stderr, "timed phase: %zu rounds, %zu queries, %.2f s; round ms:",
               m.rounds.size(), m.queries, m.wall_s);
  for (const Round& r : m.rounds) std::fprintf(stderr, " %.0f", r.wall_ms);
  std::fprintf(stderr, "\n");
  return out;
}

MetricList PerLayer(const Setup& setup, const Measurement& m) {
  const double rounds = static_cast<double>(m.rounds.size());
  auto per_round = [&](size_t prefdb::ExecStats::*field) {
    double total = 0.0;
    for (const Round& r : m.rounds) total += static_cast<double>(r.exec.*field);
    return total / rounds;
  };
  auto delta = [&](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before) / rounds;
  };
  std::vector<double> traced_ms, untraced_ms;
  for (const Round& r : m.rounds) {
    (r.traced ? traced_ms : untraced_ms).push_back(r.wall_ms);
  }

  MetricList out = {
      {"datagen.imdb_s", setup.imdb_s, "s"},
      {"datagen.dblp_s", setup.dblp_s, "s"},
      {"storage.warmup_s", setup.warmup_s, "s"},
      {"storage.reload_ms", Median(m.reload_ms), "ms"},
      {"parser.parse_us", Median(m.parse_us), "us"},
      {"exec.personalize_us", Median(m.personalize_us), "us"}};
  auto traced_median = [&](const std::string& bucket) {
    std::vector<double> v;
    for (const Round& r : m.rounds) {
      if (!r.traced) continue;
      auto it = r.spans.find(bucket);
      v.push_back(it == r.spans.end() ? 0.0 : it->second);
    }
    return Median(v);
  };
  for (const std::string& bucket : SpanBuckets()) {
    out.push_back({bucket, traced_median(bucket), "ms"});
  }
  out.push_back({kUnbucketedSpans, traced_median(kUnbucketedSpans), "count"});
  const auto& c0 = m.cache_before;
  const auto& c1 = m.cache_after;
  const auto& p0 = m.pool_before;
  const auto& p1 = m.pool_after;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double lookups = hits + static_cast<double>(c1.misses - c0.misses);
  const MetricList rest = {
      {"engine.queries", per_round(&prefdb::ExecStats::engine_queries), "count"},
      {"engine.rows_scanned", per_round(&prefdb::ExecStats::rows_scanned), "count"},
      {"engine.tuples_materialized",
       per_round(&prefdb::ExecStats::tuples_materialized), "count"},
      {"engine.operator_invocations",
       per_round(&prefdb::ExecStats::operator_invocations), "count"},
      {"palgebra.score_entries",
       per_round(&prefdb::ExecStats::score_entries_written), "count"},
      {"cache.hits", delta(c0.hits, c1.hits), "count"},
      {"cache.misses", delta(c0.misses, c1.misses), "count"},
      {"cache.hit_ratio", Ratio(hits, lookups), "ratio"},
      {"cache.insertions", delta(c0.insertions, c1.insertions), "count"},
      {"cache.admission_rejected",
       delta(c0.admission_rejected, c1.admission_rejected), "count"},
      {"cache.evictions", delta(c0.evictions, c1.evictions), "count"},
      {"cache.resident_mb", static_cast<double>(c1.bytes) / (1 << 20), "MB"},
      {"parallel.cpu_per_wall", Ratio(m.cpu_s, m.wall_s), "ratio"},
      {"parallel.tasks", delta(p0.tasks_executed, p1.tasks_executed), "count"},
      {"parallel.steals", delta(p0.steals, p1.steals), "count"},
      {"obs.trace_overhead_pct",
       100.0 * (Ratio(Median(traced_ms), Median(untraced_ms)) - 1.0), "%"}};
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

double SetupSeconds(const Setup& setup) {
  return Seconds(Clock::now() - kProcessStart) - setup.checking_s;
}

template <typename Gen>
auto Timed(double* seconds, Gen gen) {
  Clock::time_point t0 = Clock::now();
  auto out = gen();
  *seconds += Seconds(Clock::now() - t0);
  return out;
}

// ---------------------------------------------------------------------------
// table2-serial / table2-parallel

int RunTable2(const Args& args, bool parallel) {
  Setup setup;
  prefdb::ImdbOptions imdb_options;
  imdb_options.scale = kScale;
  imdb_options.seed = args.seed * 2 + 1;
  prefdb::DblpOptions dblp_options;
  dblp_options.scale = kScale;
  dblp_options.seed = args.seed * 2 + 2;
  auto imdb = Timed(&setup.imdb_s, [&] { return prefdb::GenerateImdb(imdb_options); });
  auto dblp = Timed(&setup.dblp_s, [&] { return prefdb::GenerateDblp(dblp_options); });
  if (!imdb.ok() || !dblp.ok()) {
    std::fprintf(stderr, "data generation failed\n");
    return 1;
  }
  Session imdb_session(std::move(*imdb));
  Session dblp_session(std::move(*dblp));
  auto queries = Table2Queries();
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }
  auto session_of = [&](const Table2Query& q) {
    return q.imdb ? &imdb_session : &dblp_session;
  };

  // All (query, strategy) pairs in one seeded order, the same every round.
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t q = 0; q < queries->size(); ++q) {
    for (size_t s = 0; s < kNumStrategies; ++s) pairs.push_back({q, s});
  }
  std::mt19937_64 order_rng(args.seed);
  std::shuffle(pairs.begin(), pairs.end(), order_rng);

  const size_t threads =
      parallel ? std::max(1u, std::thread::hardware_concurrency()) : 1;
  auto options_for = [&](size_t s, bool trace, size_t n_threads) {
    QueryOptions o;
    o.strategy = kStrategies[s];
    o.cache = false;
    o.parallel.threads = n_threads;
    o.trace = trace;
    return o;
  };

  // Warm-up: lazy hash indexes and column statistics.
  {
    Clock::time_point t0 = Clock::now();
    for (const auto& [q, s] : pairs) {
      const Table2Query& query = (*queries)[q];
      QueryRun run = RunQuery(session_of(query), query.sql, nullptr,
                              options_for(s, false, threads));
      if (!run.result) return 1;
    }
    setup.warmup_s = Seconds(Clock::now() - t0);
  }

  Checks checks;
  std::vector<RefAnswer> references;
  std::vector<uint64_t> serial_digest(queries->size() * kNumStrategies);
  {
    Clock::time_point t0 = Clock::now();
    for (const Table2Query& q : *queries) {
      auto ref = Evaluate(q.spec, session_of(q)->engine().catalog(), kTolerance);
      if (!ref.ok()) {
        std::fprintf(stderr, "reference %s: %s\n", q.spec.name.c_str(),
                     ref.status().ToString().c_str());
        return 1;
      }
      references.push_back(std::move(*ref));
    }
    // The answers of table2-parallel must equal those of a serial run bit
    // for bit.
    if (parallel) {
      for (size_t q = 0; q < queries->size(); ++q) {
        for (size_t s = 0; s < kNumStrategies; ++s) {
          const Table2Query& query = (*queries)[q];
          QueryRun run = RunQuery(session_of(query), query.sql, nullptr,
                                  options_for(s, false, 1));
          if (!run.result) return 1;
          serial_digest[q * kNumStrategies + s] = Digest(run.result->relation);
        }
      }
    }
    setup.checking_s += Seconds(Clock::now() - t0);
  }
  const double setup_s = SetupSeconds(setup);

  Measurement m;
  TimedPhase(args, {&imdb_session, &dblp_session}, &m, [&](Round* round) {
    for (const auto& [q, s] : pairs) {
      const Table2Query& query = (*queries)[q];
      QueryRun run = RunQuery(session_of(query), query.sql, nullptr,
                              options_for(s, round->traced, threads));
      Record(run, s, round, &m);
      if (!run.result) continue;
      std::string label = Label(query.spec.name, kStrategies[s]);
      CheckAnswer(*run.result, query.spec, &references[q], label, &checks);
      CheckEngineQueries(*run.result, kStrategies[s], query.spec.prefs.size(),
                         label, &checks);
      if (parallel) {
        checks.Expect(Digest(run.result->relation) ==
                          serial_digest[q * kNumStrategies + s],
                      label + ": answer differs from the serial run");
      }
    }
  });

  PrintResult(checks, m, args.trace ? PerLayer(setup, m) : EndToEnd(setup_s, m));
  return 0;
}

// ---------------------------------------------------------------------------
// personalized-cached

// Inverse-CDF Zipf sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t operator()(std::mt19937_64* rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// The second RATINGS version: a seeded share of the rows gets a new rating
// and a new vote count.
std::vector<prefdb::Tuple> ChangedRatings(const std::vector<prefdb::Tuple>& rows,
                                          const prefdb::Schema& schema,
                                          uint64_t seed) {
  int rating = schema.FindColumnOrNegative("rating");
  int votes = schema.FindColumnOrNegative("votes");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<prefdb::Tuple> out = rows;
  for (prefdb::Tuple& row : out) {
    if (u(rng) >= kRatingsChanged) continue;
    row[static_cast<size_t>(rating)] =
        prefdb::Value::Double(std::round(10.0 + 90.0 * u(rng)) / 10.0);
    row[static_cast<size_t>(votes)] =
        prefdb::Value::Int(static_cast<int64_t>(1 + 2000 * u(rng)));
  }
  return out;
}

// Replaces RATINGS through the catalog: the system's write path. The new
// table gets a fresh version, which is what invalidates cached results.
bool ReplaceRatings(Session* session, const prefdb::Schema& schema,
                    const std::vector<prefdb::Tuple>& rows) {
  prefdb::Catalog* catalog = session->engine().mutable_catalog();
  catalog->DropTable("RATINGS");
  auto table = prefdb::Table::Create("RATINGS", schema, rows, {"m_id"});
  if (!table.ok()) return false;
  return catalog->AddTable(std::move(*table)).ok();
}

struct User {
  std::vector<Pref> prefs;
  std::optional<prefdb::Profile> profile;
};

struct StreamOp {
  bool replace = false;
  size_t skeleton = 0;
  size_t strategy = 0;
  size_t user = 0;
  bool reference = false;  // Re-evaluate the reference for this answer.
};

int RunPersonalized(const Args& args) {
  Setup setup;
  prefdb::ImdbOptions imdb_options;
  imdb_options.scale = kScale;
  imdb_options.seed = args.seed * 2 + 1;
  auto imdb = Timed(&setup.imdb_s, [&] { return prefdb::GenerateImdb(imdb_options); });
  if (!imdb.ok()) {
    std::fprintf(stderr, "data generation failed\n");
    return 1;
  }
  Session session(std::move(*imdb));
  const std::vector<QuerySpec> skeletons = ImdbSkeletons();
  std::vector<std::string> skeleton_sql;
  for (const QuerySpec& s : skeletons) skeleton_sql.push_back(SkeletonSql(s));
  const size_t ratings_skeleton = 1;  // IMDB-2 reads RATINGS.

  std::mt19937_64 user_rng(kPopulationSeed);
  std::vector<User> users(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    users[u].prefs = DrawProfile(&user_rng);
    auto profile = BuildProfile("u" + std::to_string(u), users[u].prefs);
    if (!profile.ok()) {
      std::fprintf(stderr, "profile: %s\n", profile.status().ToString().c_str());
      return 1;
    }
    users[u].profile = std::move(*profile);
  }

  auto ratings = session.engine().catalog().GetTable("RATINGS");
  if (!ratings.ok()) return 1;
  const prefdb::Schema ratings_schema = (*ratings)->schema();
  const std::vector<prefdb::Tuple> versions[2] = {
      (*ratings)->relation().rows(),
      ChangedRatings((*ratings)->relation().rows(), ratings_schema,
                     args.seed * 31 + 5)};

  auto options_for = [](size_t s, bool trace, bool cache) {
    QueryOptions o;
    o.strategy = kStrategies[s];
    o.cache = cache;
    o.trace = trace;
    return o;
  };

  // Warm-up with the cache off: lazy indexes and statistics only.
  {
    Clock::time_point t0 = Clock::now();
    for (size_t k = 0; k < skeletons.size(); ++k) {
      for (size_t s = 0; s < kNumStrategies; ++s) {
        QueryRun run = RunQuery(&session, skeleton_sql[k], &*users[0].profile,
                                options_for(s, false, false));
        if (!run.result) return 1;
      }
    }
    setup.warmup_s = Seconds(Clock::now() - t0);
  }
  const double setup_s = SetupSeconds(setup);

  // The stream: a round is two halves, each a RATINGS replacement followed
  // by every skeleton x strategy pair once, in a seeded order, each for a
  // Zipf-drawn user. The first query of each half reads RATINGS and is
  // checked against the new version; its strategy rotates from half to half.
  std::mt19937_64 stream_rng(args.seed * 104729 + 3);
  const Zipf user_dist(kUsers, kUserSkew);
  size_t half = 0;
  int version = 0;  // The generated RATINGS is version 0.
  auto next_half = [&]() {
    std::vector<StreamOp> ops;
    for (size_t k = 0; k < skeletons.size(); ++k) {
      for (size_t s = 0; s < kNumStrategies; ++s) {
        StreamOp op;
        op.skeleton = k;
        op.strategy = s;
        op.user = user_dist(&stream_rng);
        op.reference =
            std::uniform_real_distribution<double>(0.0, 1.0)(stream_rng) <
            kReferenceSample;
        ops.push_back(op);
      }
    }
    std::shuffle(ops.begin(), ops.end(), stream_rng);
    auto first = std::find_if(ops.begin(), ops.end(), [&](const StreamOp& op) {
      return op.skeleton == ratings_skeleton &&
             op.strategy == half % kNumStrategies;
    });
    std::iter_swap(ops.begin(), first);
    ops.front().reference = true;
    StreamOp replace;
    replace.replace = true;
    ops.insert(ops.begin(), replace);
    ++half;
    return ops;
  };

  Checks checks;
  // Reference answers by (skeleton, user, RATINGS version).
  std::map<std::tuple<size_t, size_t, int>, RefAnswer> memo;
  std::vector<bool> covered(skeletons.size() * kNumStrategies * 2, false);
  Measurement m;
  TimedPhase(args, {&session}, &m, [&](Round* round) {
    for (int h = 0; h < 2; ++h) {
      for (const StreamOp& op : next_half()) {
        if (op.replace) {
          version = 1 - version;
          Clock::time_point t0 = Clock::now();
          double cpu0 = CpuSeconds();
          bool ok = ReplaceRatings(&session, ratings_schema, versions[version]);
          double ms = 1e3 * Seconds(Clock::now() - t0);
          ++m.attempted;
          round->wall_ms += ms;
          if (!ok) {
            ++m.failed;
            continue;
          }
          m.reload_ms.push_back(ms);
          if (!round->traced) {
            m.wall_s += ms / 1e3;
            m.cpu_s += CpuSeconds() - cpu0;
          }
          continue;
        }
        const User& user = users[op.user];
        QueryRun run = RunQuery(&session, skeleton_sql[op.skeleton],
                                &*user.profile,
                                options_for(op.strategy, round->traced, true));
        Record(run, op.strategy, round, &m);
        if (!run.result) continue;

        QuerySpec spec = skeletons[op.skeleton];
        spec.prefs = RelevantPrefs(user.prefs, spec);
        std::string label = Label(spec.name, kStrategies[op.strategy]) +
                            " user " + std::to_string(op.user) + " ratings v" +
                            std::to_string(version);
        checks.Expect(run.injected == spec.prefs.size(),
                      label + ": injected " + std::to_string(run.injected) +
                          " preferences, " + std::to_string(spec.prefs.size()) +
                          " apply");
        CheckEngineQueries(*run.result, kStrategies[op.strategy],
                           spec.prefs.size(), label, &checks);
        size_t combo = (op.skeleton * kNumStrategies + op.strategy) * 2 + version;
        const RefAnswer* reference = nullptr;
        if (op.reference || !covered[combo]) {
          covered[combo] = true;
          auto key = std::make_tuple(op.skeleton, op.user, version);
          auto it = memo.find(key);
          if (it == memo.end()) {
            if (memo.size() >= 256) memo.clear();
            auto ref = Evaluate(spec, session.engine().catalog(), kTolerance);
            if (!ref.ok()) {
              checks.Expect(false, label + ": reference " + ref.status().ToString());
              continue;
            }
            it = memo.emplace(key, std::move(*ref)).first;
          }
          reference = &it->second;
        }
        CheckAnswer(*run.result, spec, reference, label, &checks);
      }
    }
  });
  checks.Expect(std::all_of(covered.begin(), covered.end(), [](bool c) { return c; }),
                "reference sample misses a skeleton x strategy x version");

  PrintResult(checks, m, args.trace ? PerLayer(setup, m) : EndToEnd(setup_s, m));
  return 0;
}

// ---------------------------------------------------------------------------
// Checker self-test: feeds the checker corrupted answers.

int RunSelfTest() {
  prefdb::ImdbOptions options;
  options.scale = 0.003;
  options.seed = 7;
  auto imdb = prefdb::GenerateImdb(options);
  if (!imdb.ok()) return 1;
  Session session(std::move(*imdb));
  auto queries = Table2Queries();
  if (!queries.ok()) return 1;
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what,
                            const std::string& detail) {
    std::printf("%-58s %s%s%s\n", what.c_str(), ok ? "ok" : "FAILED",
                detail.empty() ? "" : "  -- ", detail.c_str());
    if (!ok) ++failures;
  };
  auto answer_of = [&](const std::string& sql, const QuerySpec& spec,
                       const prefdb::Profile* profile) -> std::vector<Row> {
    QueryOptions o;
    o.cache = true;
    QueryRun run = RunQuery(&session, sql, profile, o);
    if (!run.result) return {};
    auto rows = RowsOf(run.result->relation, spec.output.size());
    return rows.ok() ? *rows : std::vector<Row>{};
  };

  // RANKED (IMDB-1) and TOP k (IMDB-2), answered by the engine.
  const Table2Query& ranked = (*queries)[0];
  const Table2Query& topk = (*queries)[1];
  auto ranked_ref = Evaluate(ranked.spec, session.engine().catalog(), kTolerance);
  auto topk_ref = Evaluate(topk.spec, session.engine().catalog(), kTolerance);
  if (!ranked_ref.ok() || !topk_ref.ok()) return 1;
  std::vector<Row> ranked_rows = answer_of(ranked.sql, ranked.spec, nullptr);
  std::vector<Row> topk_rows = answer_of(topk.sql, topk.spec, nullptr);
  std::string problem = CheckAgainstReference(ranked_rows, *ranked_ref, ranked.spec);
  expect(problem.empty() && ranked_rows.size() > 10, "engine answer to IMDB-1 accepted", problem);
  problem = CheckAgainstReference(topk_rows, *topk_ref, topk.spec);
  expect(problem.empty() && topk_rows.size() == 20, "engine answer to IMDB-2 accepted", problem);
  if (ranked_rows.size() <= 10 || topk_rows.size() != 20) return 1;

  {
    std::vector<Row> bad = ranked_rows;
    bad.erase(bad.begin() + static_cast<long>(bad.size() / 2));
    problem = CheckAgainstReference(bad, *ranked_ref, ranked.spec);
    expect(!problem.empty(), "dropped row reported", problem);
  }
  {
    std::vector<Row> bad = ranked_rows;
    Row& row = bad[bad.size() / 2];
    double score = row.score.value_or(0.5);
    row.score = score > 0.5 ? score - 1e-3 : score + 1e-3;
    problem = CheckAgainstReference(bad, *ranked_ref, ranked.spec);
    expect(!problem.empty(), "score perturbed by 1e-3 reported", problem);
  }
  {
    // Swap one top-k row for a row ranked below the k-th.
    std::vector<Row> bad = topk_rows;
    double kth = bad.back().score.value_or(-1.0);
    const Row* lower = nullptr;
    for (const Row& r : topk_ref->rows) {
      if (r.score && *r.score < kth - 1e-6) {
        lower = &r;
        break;
      }
    }
    if (lower == nullptr) {
      expect(false, "top-k row swapped for a lower-ranked one reported",
             "no lower-ranked row in the reference");
    } else {
      bad[bad.size() / 2] = *lower;
      std::stable_sort(bad.begin(), bad.end(), [](const Row& a, const Row& b) {
        return a.score.value_or(-1.0) > b.score.value_or(-1.0);
      });
      problem = CheckAgainstReference(bad, *topk_ref, topk.spec);
      expect(!problem.empty(), "top-k row swapped for a lower-ranked one reported",
             problem);
    }
  }
  {
    // An answer from before a RATINGS replacement, served after it.
    QuerySpec spec = ImdbSkeletons()[1];
    std::vector<Pref> prefs = {Pref{
        Atom::Cmp(Atom::Op::kGt, "RATINGS.votes", prefdb::Value::Int(50)),
        Score::Rating("RATINGS.rating"), 1.0, std::nullopt}};
    auto profile = BuildProfile("selftest", prefs);
    if (!profile.ok()) return 1;
    spec.prefs = RelevantPrefs(prefs, spec);
    std::string sql = SkeletonSql(spec);
    std::vector<Row> before = answer_of(sql, spec, &*profile);
    auto table = session.engine().catalog().GetTable("RATINGS");
    if (!table.ok()) return 1;
    prefdb::Schema schema = (*table)->schema();
    if (!ReplaceRatings(&session, schema,
                        ChangedRatings((*table)->relation().rows(), schema, 99))) {
      return 1;
    }
    auto after_ref = Evaluate(spec, session.engine().catalog(), kTolerance);
    if (!after_ref.ok()) return 1;
    std::vector<Row> after = answer_of(sql, spec, &*profile);
    problem = CheckAgainstReference(after, *after_ref, spec);
    expect(problem.empty() && after.size() == 20,
           "answer after a RATINGS replacement accepted", problem);
    problem = CheckAgainstReference(before, *after_ref, spec);
    expect(!problem.empty(), "pre-replacement answer served after it reported",
           problem);
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) return perfbench::RunSelfTest();
  if (args.workload == "table2-serial") return perfbench::RunTable2(args, false);
  if (args.workload == "table2-parallel") return perfbench::RunTable2(args, true);
  if (args.workload == "personalized-cached") {
    return perfbench::RunPersonalized(args);
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
