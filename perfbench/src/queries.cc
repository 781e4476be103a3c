#include "queries.h"

#include <algorithm>
#include <memory>
#include <strings.h>

#include "parser/parser.h"
#include "workload/workload.h"

namespace perfbench {

using prefdb::Value;
using Op = Atom::Op;

namespace {

Value I(int64_t v) { return Value::Int(v); }
Value S(const char* v) { return Value::String(v); }

Pref P(Atom cond, Score score, double conf) {
  Pref p;
  p.cond = std::move(cond);
  p.score = std::move(score);
  p.conf = conf;
  return p;
}

Pref Member(std::string local, std::string table, std::string column,
            double score, double conf) {
  Pref p = P(Atom::True(), Score::Const(score), conf);
  p.membership = Membership{std::move(local), std::move(table), std::move(column)};
  return p;
}

// The Table II queries of src/workload, restated as specs. The SQL is what
// the engine runs; the spec is what the reference evaluates.
std::vector<QuerySpec> Table2Specs() {
  std::vector<QuerySpec> specs(6);
  QuerySpec& imdb1 = specs[0];
  imdb1.name = "IMDB-1";
  imdb1.tables = {"MOVIES", "GENRES"};
  imdb1.joins = {{"GENRES.m_id", "MOVIES.m_id"}};
  imdb1.where = {Atom::Cmp(Op::kGe, "MOVIES.year", I(2000))};
  imdb1.prefs = {P(Atom::Cmp(Op::kEq, "GENRES.genre", S("Comedy")),
                   Score::Const(1.0), 0.8),
                 P(Atom::Cmp(Op::kGe, "MOVIES.year", I(2005)),
                   Score::Recency("MOVIES.year", 2011), 0.9)};
  imdb1.output = {"MOVIES.title", "MOVIES.year"};

  QuerySpec& imdb2 = specs[1];
  imdb2.name = "IMDB-2";
  imdb2.tables = {"MOVIES", "GENRES", "DIRECTORS", "RATINGS"};
  imdb2.joins = {{"GENRES.m_id", "MOVIES.m_id"},
                 {"DIRECTORS.d_id", "MOVIES.d_id"},
                 {"RATINGS.m_id", "MOVIES.m_id"}};
  imdb2.where = {Atom::Cmp(Op::kGe, "MOVIES.year", I(1990))};
  imdb2.prefs = {P(Atom::Cmp(Op::kEq, "GENRES.genre", S("Drama")),
                   Score::Const(0.9), 0.7),
                 P(Atom::Cmp(Op::kGt, "RATINGS.votes", I(500)),
                   Score::Rating("RATINGS.rating"), 0.8),
                 P(Atom::Between("MOVIES.duration", I(90), I(150)),
                   Score::Around("MOVIES.duration", 120), 0.5)};
  imdb2.output = {"MOVIES.title", "DIRECTORS.director", "RATINGS.rating"};
  imdb2.top_k = 20;

  QuerySpec& imdb3 = specs[2];
  imdb3.name = "IMDB-3";
  imdb3.tables = {"MOVIES", "CAST", "ACTORS", "DIRECTORS", "GENRES"};
  imdb3.joins = {{"CAST.m_id", "MOVIES.m_id"},
                 {"ACTORS.a_id", "CAST.a_id"},
                 {"DIRECTORS.d_id", "MOVIES.d_id"},
                 {"GENRES.m_id", "MOVIES.m_id"}};
  imdb3.where = {Atom::Cmp(Op::kGe, "MOVIES.year", I(2008))};
  imdb3.prefs = {P(Atom::Cmp(Op::kEq, "GENRES.genre", S("Action")),
                   Score::Recency("MOVIES.year", 2011), 0.8),
                 P(Atom::Cmp(Op::kLe, "CAST.a_id", I(50)), Score::Const(1.0), 1.0),
                 P(Atom::Cmp(Op::kLe, "MOVIES.d_id", I(20)), Score::Const(0.9),
                   0.8),
                 Member("MOVIES.m_id", "AWARDS", "m_id", 1.0, 0.9)};
  imdb3.output = {"MOVIES.title", "ACTORS.actor", "DIRECTORS.director"};
  imdb3.top_k = 50;

  QuerySpec& dblp1 = specs[3];
  dblp1.name = "DBLP-1";
  dblp1.tables = {"PUBLICATIONS", "CONFERENCES"};
  dblp1.joins = {{"CONFERENCES.p_id", "PUBLICATIONS.p_id"}};
  dblp1.where = {Atom::Cmp(Op::kGe, "CONFERENCES.year", I(2000))};
  dblp1.prefs = {P(Atom::Cmp(Op::kGe, "CONFERENCES.year", I(2005)),
                   Score::Recency("CONFERENCES.year", 2011), 0.9),
                 P(Atom::Cmp(Op::kEq, "CONFERENCES.location", S("Athens")),
                   Score::Const(1.0), 0.7)};
  dblp1.output = {"PUBLICATIONS.title", "CONFERENCES.name", "CONFERENCES.year"};

  QuerySpec& dblp2 = specs[4];
  dblp2.name = "DBLP-2";
  dblp2.tables = {"PUBLICATIONS", "PUB_AUTHORS", "AUTHORS", "CONFERENCES"};
  dblp2.joins = {{"PUB_AUTHORS.p_id", "PUBLICATIONS.p_id"},
                 {"AUTHORS.a_id", "PUB_AUTHORS.a_id"},
                 {"CONFERENCES.p_id", "PUBLICATIONS.p_id"}};
  dblp2.where = {Atom::Cmp(Op::kGe, "CONFERENCES.year", I(2005))};
  dblp2.prefs = {P(Atom::Cmp(Op::kLe, "PUB_AUTHORS.a_id", I(25)),
                   Score::Const(1.0), 1.0),
                 P(Atom::Cmp(Op::kEq, "CONFERENCES.name", S("Conference 1")),
                   Score::Const(0.9), 0.8),
                 P(Atom::Cmp(Op::kGe, "CONFERENCES.year", I(2009)),
                   Score::Recency("CONFERENCES.year", 2011), 0.6)};
  dblp2.output = {"PUBLICATIONS.title", "PUBLICATIONS.p_id", "AUTHORS.name"};
  dblp2.top_k = 20;

  QuerySpec& dblp3 = specs[5];
  dblp3.name = "DBLP-3";
  dblp3.tables = {"PUBLICATIONS", "JOURNALS"};
  dblp3.joins = {{"JOURNALS.p_id", "PUBLICATIONS.p_id"}};
  dblp3.where = {Atom::Cmp(Op::kGe, "JOURNALS.year", I(1995))};
  dblp3.prefs = {P(Atom::Cmp(Op::kEq, "JOURNALS.name", S("Journal 1")),
                   Score::Const(1.0), 0.9),
                 P(Atom::Cmp(Op::kGe, "JOURNALS.year", I(2005)),
                   Score::Recency("JOURNALS.year", 2011), 0.8),
                 Member("PUBLICATIONS.p_id", "CITATIONS", "p2_id", 1.0, 0.9)};
  dblp3.output = {"PUBLICATIONS.title", "JOURNALS.name", "JOURNALS.year"};
  dblp3.min_conf = 0.9;
  return specs;
}

// Draws one of `n` choices, the first ones more often.
size_t Skewed(std::mt19937_64* rng, size_t n) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  return std::min(n - 1, static_cast<size_t>(n * u(*rng) * u(*rng)));
}

template <typename T, size_t N>
const T& Pick(std::mt19937_64* rng, const T (&choices)[N]) {
  return choices[std::uniform_int_distribution<size_t>(0, N - 1)(*rng)];
}

// A confidence or score in tenths, in [lo, hi] tenths.
double Tenths(std::mt19937_64* rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(*rng) / 10.0;
}

}  // namespace

prefdb::StatusOr<std::vector<Table2Query>> Table2Queries() {
  std::vector<prefdb::WorkloadQuery> sql = prefdb::ImdbWorkload();
  for (prefdb::WorkloadQuery& q : prefdb::DblpWorkload()) sql.push_back(q);
  std::vector<Table2Query> out;
  for (QuerySpec& spec : Table2Specs()) {
    auto it = std::find_if(sql.begin(), sql.end(), [&](const auto& q) {
      return q.name == spec.name;
    });
    if (it == sql.end()) {
      return prefdb::Status::NotFound("workload query " + spec.name);
    }
    bool imdb = spec.name.rfind("IMDB", 0) == 0;
    out.push_back(Table2Query{it->sql, std::move(spec), imdb});
  }
  return out;
}

std::vector<QuerySpec> ImdbSkeletons() {
  std::vector<QuerySpec> out;
  for (QuerySpec& spec : Table2Specs()) {
    if (spec.name.rfind("IMDB", 0) != 0) continue;
    spec.prefs.clear();
    out.push_back(std::move(spec));
  }
  return out;
}

std::string SkeletonSql(const QuerySpec& spec) {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < spec.output.size(); ++i) {
    sql += (i > 0 ? ", " : "") + spec.output[i];
  }
  sql += " FROM " + spec.tables[0];
  for (size_t i = 0; i < spec.joins.size(); ++i) {
    sql += " JOIN " + spec.tables[i + 1] + " ON " + spec.joins[i].left +
           " = " + spec.joins[i].right;
  }
  for (size_t i = 0; i < spec.where.size(); ++i) {
    sql += (i == 0 ? " WHERE " : " AND ") + spec.where[i].ToSql();
  }
  if (spec.min_conf) sql += " WITH CONF >= " + std::to_string(*spec.min_conf);
  sql += spec.top_k ? " TOP " + std::to_string(*spec.top_k) + " BY SCORE"
                    : std::string(" RANKED");
  return sql;
}

std::vector<Pref> DrawProfile(std::mt19937_64* rng) {
  // The most frequent genres of the generator, most frequent first.
  static constexpr const char* kGenres[] = {"Drama",  "Comedy", "Action",
                                            "Thriller", "Romance", "Horror",
                                            "Documentary", "Crime"};
  static constexpr int64_t kYears[] = {1990, 1995, 2000, 2005};
  static constexpr int64_t kVotes[] = {50, 100, 500, 1000};
  static constexpr int64_t kDurationLo[] = {60, 80, 90};
  static constexpr int64_t kDurationHi[] = {120, 150, 180};
  static constexpr double kDurationTarget[] = {90, 100, 120};
  static constexpr int64_t kDirectors[] = {10, 20, 50, 100};
  static constexpr int64_t kActors[] = {25, 50, 100};
  constexpr int kTemplates = 8;

  std::vector<int> templates(kTemplates);
  for (int i = 0; i < kTemplates; ++i) templates[i] = i;
  std::shuffle(templates.begin(), templates.end(), *rng);
  int n = std::uniform_int_distribution<int>(2, 5)(*rng);
  std::vector<Pref> prefs;
  size_t liked = Skewed(rng, std::size(kGenres));
  for (int i = 0; i < n; ++i) {
    double conf = Tenths(rng, 4, 10);
    switch (templates[i]) {
      case 0:  // Genre like.
        prefs.push_back(P(Atom::Cmp(Op::kEq, "GENRES.genre", S(kGenres[liked])),
                          Score::Const(Tenths(rng, 7, 10)), conf));
        break;
      case 1: {  // Genre dislike (never the liked genre).
        size_t g = (liked + 1 + Skewed(rng, std::size(kGenres) - 1)) %
                   std::size(kGenres);
        prefs.push_back(P(Atom::Cmp(Op::kEq, "GENRES.genre", S(kGenres[g])),
                          Score::Const(Tenths(rng, 0, 2)), conf));
        break;
      }
      case 2:  // Recency.
        prefs.push_back(P(Atom::Cmp(Op::kGe, "MOVIES.year", I(Pick(rng, kYears))),
                          Score::Recency("MOVIES.year", 2011), conf));
        break;
      case 3:  // Rating, for well-voted movies.
        prefs.push_back(P(Atom::Cmp(Op::kGt, "RATINGS.votes", I(Pick(rng, kVotes))),
                          Score::Rating("RATINGS.rating"), conf));
        break;
      case 4:  // Duration.
        prefs.push_back(P(Atom::Between("MOVIES.duration", I(Pick(rng, kDurationLo)),
                                        I(Pick(rng, kDurationHi))),
                          Score::Around("MOVIES.duration", Pick(rng, kDurationTarget)),
                          conf));
        break;
      case 5:  // Favourite directors.
        prefs.push_back(P(Atom::Cmp(Op::kLe, "MOVIES.d_id", I(Pick(rng, kDirectors))),
                          Score::Const(Tenths(rng, 6, 10)), conf));
        break;
      case 6:  // Favourite actors.
        prefs.push_back(P(Atom::Cmp(Op::kLe, "CAST.a_id", I(Pick(rng, kActors))),
                          Score::Const(Tenths(rng, 6, 10)), conf));
        break;
      default:  // Award winners.
        prefs.push_back(Member("MOVIES.m_id", "AWARDS", "m_id",
                               Tenths(rng, 6, 10), conf));
        break;
    }
  }
  return prefs;
}

prefdb::StatusOr<prefdb::Profile> BuildProfile(const std::string& user,
                                               const std::vector<Pref>& prefs) {
  prefdb::Profile profile(user);
  for (size_t i = 0; i < prefs.size(); ++i) {
    const Pref& p = prefs[i];
    auto cond = prefdb::ParseExpression(p.cond.ToSql());
    auto scoring = prefdb::ParseExpression(p.score.ToSql());
    if (!cond.ok() || !scoring.ok()) {
      return prefdb::Status::InvalidArgument("cannot parse preference " +
                                             p.ToSql());
    }
    std::string name = user + "_p" + std::to_string(i + 1);
    std::vector<std::string> relations = p.Relations();
    if (p.membership) {
      prefdb::MembershipSpec spec{p.membership->member_table,
                                  p.membership->local_column,
                                  p.membership->member_column};
      profile.Add(prefdb::Preference::Membership(
          name, relations[0], spec, std::move(*cond),
          prefdb::ScoringFunction(std::move(*scoring)), p.conf));
    } else {
      profile.Add(std::make_shared<prefdb::Preference>(
          name, relations, std::move(*cond),
          prefdb::ScoringFunction(std::move(*scoring)), p.conf));
    }
  }
  return profile;
}

std::vector<Pref> RelevantPrefs(const std::vector<Pref>& profile,
                                const QuerySpec& spec) {
  std::vector<Pref> out;
  for (const Pref& p : profile) {
    bool relevant = true;
    for (const std::string& rel : p.Relations()) {
      relevant = relevant &&
                 std::any_of(spec.tables.begin(), spec.tables.end(),
                             [&](const std::string& t) {
                               return strcasecmp(t.c_str(), rel.c_str()) == 0;
                             });
    }
    if (relevant) out.push_back(p);
  }
  return out;
}

}  // namespace perfbench
