#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"
#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "gtest/gtest.h"

namespace prefdb {
namespace {

// Verifies primary-key uniqueness for a table.
void ExpectUniqueKeys(Catalog& catalog, const std::string& table_name) {
  Table* table = *catalog.GetTable(table_name);
  std::unordered_set<Tuple, TupleHash, TupleEq> keys;
  for (const Tuple& row : table->relation().rows()) {
    Tuple key = table->relation().KeyOf(row);
    EXPECT_TRUE(keys.insert(std::move(key)).second)
        << table_name << " has duplicate key in row " << TupleToString(row);
  }
}

// FNV-1a over a canonical rendering of every row of every table, tables in
// name order. Doubles render with 17 significant digits and strings with
// their length, so the hash pins the generated catalog exactly and does not
// depend on the standard library's std::hash.
uint64_t CatalogHash(const Catalog& catalog) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  std::vector<std::string> names = catalog.TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const Table* table = *catalog.GetTable(name);
    mix("#" + name + "\n");
    for (const Tuple& row : table->relation().rows()) {
      for (const Value& v : row) {
        switch (v.type()) {
          case ValueType::kNull:
            mix("N|");
            break;
          case ValueType::kInt:
            mix(StrFormat("I%" PRId64 "|", v.AsInt()));
            break;
          case ValueType::kDouble:
            mix(StrFormat("D%.17g|", v.AsDouble()));
            break;
          case ValueType::kString:
            mix(StrFormat("S%zu:", v.AsString().size()) + v.AsString() + "|");
            break;
        }
      }
      mix("\n");
    }
  }
  return h;
}

class ImdbGenTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* instance = [] {
      ImdbOptions options;
      options.scale = 0.002;
      options.seed = 99;
      auto result = GenerateImdb(options);
      EXPECT_TRUE(result.ok());
      return new Catalog(std::move(*result));
    }();
    return *instance;
  }
};

TEST_F(ImdbGenTest, AllSevenTablesPresent) {
  for (const char* name :
       {"MOVIES", "DIRECTORS", "GENRES", "ACTORS", "CAST", "RATINGS", "AWARDS"}) {
    EXPECT_TRUE(catalog().HasTable(name)) << name;
  }
}

TEST_F(ImdbGenTest, SizesScaleWithTableIRatios) {
  size_t movies = (*catalog().GetTable("MOVIES"))->NumRows();
  size_t ratings = (*catalog().GetTable("RATINGS"))->NumRows();
  size_t cast = (*catalog().GetTable("CAST"))->NumRows();
  EXPECT_GT(movies, 1000u);
  // About a fifth of movies are rated (Table I: 318,374 / 1,573,401).
  EXPECT_NEAR(static_cast<double>(ratings) / movies, 0.2, 0.05);
  // Cast is the dominant table, several entries per movie.
  EXPECT_GT(cast, 3 * movies);
}

TEST_F(ImdbGenTest, PrimaryKeysUnique) {
  for (const char* name :
       {"MOVIES", "DIRECTORS", "GENRES", "ACTORS", "CAST", "RATINGS", "AWARDS"}) {
    ExpectUniqueKeys(catalog(), name);
  }
}

TEST_F(ImdbGenTest, ForeignKeysResolve) {
  Table* movies = *catalog().GetTable("MOVIES");
  size_t n_directors = (*catalog().GetTable("DIRECTORS"))->NumRows();
  for (const Tuple& row : movies->relation().rows()) {
    int64_t d_id = row[4].AsInt();
    ASSERT_GE(d_id, 1);
    ASSERT_LE(d_id, static_cast<int64_t>(n_directors));
  }
  Table* genres = *catalog().GetTable("GENRES");
  size_t n_movies = movies->NumRows();
  for (const Tuple& row : genres->relation().rows()) {
    ASSERT_GE(row[0].AsInt(), 1);
    ASSERT_LE(row[0].AsInt(), static_cast<int64_t>(n_movies));
  }
}

TEST_F(ImdbGenTest, ValueRangesAreSane) {
  Table* movies = *catalog().GetTable("MOVIES");
  for (const Tuple& row : movies->relation().rows()) {
    int64_t year = row[2].AsInt();
    int64_t duration = row[3].AsInt();
    ASSERT_GE(year, 1900);
    ASSERT_LE(year, 2011);
    ASSERT_GE(duration, 55);
    ASSERT_LE(duration, 280);
  }
  Table* ratings = *catalog().GetTable("RATINGS");
  for (const Tuple& row : ratings->relation().rows()) {
    double rating = row[1].AsDouble();
    ASSERT_GE(rating, 1.0);
    ASSERT_LE(rating, 10.0);
    ASSERT_GE(row[2].AsInt(), 1);
  }
}

TEST_F(ImdbGenTest, YearsSkewRecent) {
  Table* movies = *catalog().GetTable("MOVIES");
  size_t recent = 0;
  for (const Tuple& row : movies->relation().rows()) {
    if (row[2].AsInt() >= 1990) ++recent;
  }
  EXPECT_GT(recent, movies->NumRows() / 2);
}

TEST_F(ImdbGenTest, DeterministicInSeed) {
  ImdbOptions options;
  options.scale = 0.0005;
  options.seed = 4242;
  auto a = GenerateImdb(options);
  auto b = GenerateImdb(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Table* ta = *a->GetTable("MOVIES");
  Table* tb = *b->GetTable("MOVIES");
  ASSERT_EQ(ta->NumRows(), tb->NumRows());
  for (size_t i = 0; i < ta->NumRows(); ++i) {
    ASSERT_TRUE(TupleEq()(ta->relation().rows()[i], tb->relation().rows()[i]));
  }
}

// Golden catalogs: a change to the generators or to the random draws they
// consume (Rng::Zipf's CDF cache included) must leave these bytes alone, or
// every recorded experiment silently changes its input.
TEST(DatagenGoldenTest, ImdbCatalogHashIsPinned) {
  ImdbOptions options;
  options.scale = 0.001;
  options.seed = 42;
  auto catalog = GenerateImdb(options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(CatalogHash(*catalog), 0x9eb42d0a5725ff66ull);
}

TEST(DatagenGoldenTest, DblpCatalogHashIsPinned) {
  DblpOptions options;
  options.scale = 0.001;
  options.seed = 42;
  auto catalog = GenerateDblp(options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(CatalogHash(*catalog), 0xa035a07852857651ull);
}

class DblpGenTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* instance = [] {
      DblpOptions options;
      options.scale = 0.002;
      options.seed = 77;
      auto result = GenerateDblp(options);
      EXPECT_TRUE(result.ok());
      return new Catalog(std::move(*result));
    }();
    return *instance;
  }
};

TEST_F(DblpGenTest, AllSixTablesPresent) {
  for (const char* name : {"PUBLICATIONS", "PUB_AUTHORS", "AUTHORS",
                           "CONFERENCES", "JOURNALS", "CITATIONS"}) {
    EXPECT_TRUE(catalog().HasTable(name)) << name;
  }
}

TEST_F(DblpGenTest, PrimaryKeysUnique) {
  for (const char* name : {"PUBLICATIONS", "PUB_AUTHORS", "AUTHORS",
                           "CONFERENCES", "JOURNALS", "CITATIONS"}) {
    ExpectUniqueKeys(catalog(), name);
  }
}

TEST_F(DblpGenTest, PubTypeMatchesVenueTables) {
  Table* pubs = *catalog().GetTable("PUBLICATIONS");
  Table* conferences = *catalog().GetTable("CONFERENCES");
  Table* journals = *catalog().GetTable("JOURNALS");
  std::unordered_set<Value, ValueHash> conf_ids;
  for (const Tuple& row : conferences->relation().rows()) conf_ids.insert(row[0]);
  std::unordered_set<Value, ValueHash> journal_ids;
  for (const Tuple& row : journals->relation().rows()) journal_ids.insert(row[0]);
  for (const Tuple& row : pubs->relation().rows()) {
    const std::string& type = row[2].AsString();
    if (type == "conference") {
      ASSERT_TRUE(conf_ids.count(row[0]) > 0);
    } else if (type == "journal") {
      ASSERT_TRUE(journal_ids.count(row[0]) > 0);
    }
  }
  // Venue fractions roughly match Table I.
  double conf_fraction =
      static_cast<double>(conferences->NumRows()) / pubs->NumRows();
  EXPECT_NEAR(conf_fraction, 0.36, 0.05);
}

TEST_F(DblpGenTest, CitationsPointBackward) {
  Table* citations = *catalog().GetTable("CITATIONS");
  EXPECT_GT(citations->NumRows(), 0u);
  for (const Tuple& row : citations->relation().rows()) {
    ASSERT_LT(row[1].AsInt(), row[0].AsInt());  // p2 published before p1.
  }
}

}  // namespace
}  // namespace prefdb
