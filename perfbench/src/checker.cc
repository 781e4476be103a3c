#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <unordered_map>

namespace perfbench {

using prefdb::Relation;
using prefdb::Status;
using prefdb::StatusOr;
using prefdb::Value;

namespace {

// Ranking value of a score: ⊥ ranks below every known score.
double RankOf(const std::optional<double>& score) {
  return score ? *score : -INFINITY;
}

bool Close(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || std::fabs(*a - *b) <= kTolerance;
}

bool SamePair(const Row& a, const Row& b) {
  return Close(a.score, b.score) && std::fabs(a.conf - b.conf) <= kTolerance;
}

std::string Describe(const Row& row) {
  std::string key = row.key;
  std::replace(key.begin(), key.end(), '\x1f', '|');
  char buf[96];
  if (row.score) {
    std::snprintf(buf, sizeof(buf), " (score=%.12g conf=%.12g)", *row.score,
                  row.conf);
  } else {
    std::snprintf(buf, sizeof(buf), " (score=NULL conf=%.12g)", row.conf);
  }
  return key + buf;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

StatusOr<std::vector<Row>> RowsOf(const Relation& answer, size_t n_output) {
  const prefdb::Schema& schema = answer.schema();
  if (schema.size() != n_output + 2 ||
      schema.column(n_output).name != "score" ||
      schema.column(n_output + 1).name != "conf") {
    return Status::InvalidArgument("answer shape is not (columns..., score, conf): " +
                                   schema.ToString());
  }
  std::vector<Row> rows;
  rows.reserve(answer.NumRows());
  std::vector<const Value*> values(n_output);
  for (const prefdb::Tuple& t : answer.rows()) {
    for (size_t c = 0; c < n_output; ++c) values[c] = &t[c];
    Row row;
    row.key = RowKey(values);
    const Value& score = t[n_output];
    const Value& conf = t[n_output + 1];
    if (!score.is_null()) {
      if (!score.is_numeric()) return Status::InvalidArgument("non-numeric score");
      row.score = score.NumericValue();
    }
    if (!conf.is_numeric()) return Status::InvalidArgument("non-numeric conf");
    row.conf = conf.NumericValue();
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string CheckProperties(const std::vector<Row>& answer,
                            const QuerySpec& spec) {
  if (spec.top_k && answer.size() > *spec.top_k) {
    return "TOP " + std::to_string(*spec.top_k) + " returned " +
           std::to_string(answer.size()) + " rows";
  }
  for (size_t i = 0; i < answer.size(); ++i) {
    const Row& row = answer[i];
    // A pair is ⊥ with zero confidence, or a mean of scores in [0, 1]
    // backed by positive confidence.
    bool domain = row.score ? (*row.score >= -kTolerance &&
                               *row.score <= 1.0 + kTolerance && row.conf > 0.0)
                            : row.conf == 0.0;
    if (!domain) return "pair outside its domain: " + Describe(row);
    if (spec.min_conf && row.conf < *spec.min_conf - kTolerance) {
      return "confidence below the threshold: " + Describe(row);
    }
    if (i > 0 && RankOf(row.score) > RankOf(answer[i - 1].score) + kTolerance) {
      return "scores increase at row " + std::to_string(i) + ": " +
             Describe(row);
    }
  }
  return "";
}

std::string CheckAgainstReference(const std::vector<Row>& answer,
                                  const RefAnswer& reference,
                                  const QuerySpec& spec) {
  std::string problem = CheckProperties(answer, spec);
  if (!problem.empty()) return problem;

  std::unordered_map<std::string, std::vector<size_t>> by_key;
  for (size_t i = 0; i < reference.rows.size(); ++i) {
    by_key[reference.rows[i].key].push_back(i);
  }
  std::vector<bool> matched(reference.rows.size(), false);
  for (const Row& row : answer) {
    auto it = by_key.find(row.key);
    bool found = false;
    if (it != by_key.end()) {
      for (size_t i : it->second) {
        if (!matched[i] && SamePair(row, reference.rows[i])) {
          matched[i] = true;
          found = true;
          break;
        }
      }
    }
    if (!found) return "row not in the reference answer: " + Describe(row);
  }

  size_t required = 0;
  for (bool opt : reference.optional) required += opt ? 0 : 1;
  if (!spec.top_k) {
    for (size_t i = 0; i < reference.rows.size(); ++i) {
      if (!matched[i] && !reference.optional[i]) {
        return "missing row: " + Describe(reference.rows[i]);
      }
    }
    return "";
  }

  // TOP k: as many rows as the reference can supply, and exactly its k
  // best scores (ties may pick any of the tied rows).
  size_t k = *spec.top_k;
  size_t expected = std::min(k, required);
  if (answer.size() < expected) {
    return "TOP " + std::to_string(k) + " returned " +
           std::to_string(answer.size()) + " of " + std::to_string(expected) +
           " rows";
  }
  std::vector<double> best;
  for (const Row& r : reference.rows) best.push_back(RankOf(r.score));
  size_t n = std::min(answer.size(), best.size());
  std::partial_sort(best.begin(), best.begin() + n, best.end(),
                    std::greater<double>());
  std::vector<double> got;
  for (const Row& r : answer) got.push_back(RankOf(r.score));
  std::sort(got.begin(), got.end(), std::greater<double>());
  for (size_t i = 0; i < n; ++i) {
    bool same = (std::isinf(got[i]) && std::isinf(best[i])) ||
                std::fabs(got[i] - best[i]) <= kTolerance;
    if (!same) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "rank %zu score %.12g, the reference's is %.12g", i + 1,
                    got[i], best[i]);
      return buf;
    }
  }
  return "";
}

uint64_t Digest(const Relation& answer) {
  uint64_t h = answer.NumRows();
  for (const prefdb::Tuple& row : answer.rows()) {
    for (const Value& v : row) {
      h = Mix(h, static_cast<uint64_t>(v.type()));
      if (v.is_int()) {
        h = Mix(h, static_cast<uint64_t>(v.AsInt()));
      } else if (v.is_double()) {
        uint64_t bits;
        double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        h = Mix(h, bits);
      } else if (v.is_string()) {
        h = Mix(h, std::hash<std::string>()(v.AsString()));
      }
    }
  }
  return h;
}

}  // namespace perfbench
