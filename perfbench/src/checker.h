// Answer checks. An engine answer is compared with the reference answer by
// properties of the method, never by row order alone:
//   * RANKED: the same row multiset, each (score, conf) within `tolerance`
//     of the reference pair, scores non-increasing;
//   * TOP k: the returned scores equal the reference's k best, and every
//     returned row exists in the reference with that pair;
//   * WITH CONF >= τ: every returned conf is at least τ.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "reference.h"
#include "types/relation.h"

namespace perfbench {

/// Absolute tolerance on scores and confidences. Strategies combine the
/// same pairs in different orders, so answers agree only up to
/// floating-point association (about 1e-15 here).
inline constexpr double kTolerance = 1e-9;

/// Reduces an engine answer — the `n_output` requested columns followed by
/// `score` and `conf` — to rows. Fails on a malformed shape.
prefdb::StatusOr<std::vector<Row>> RowsOf(const prefdb::Relation& answer,
                                          size_t n_output);

/// Checks what every answer to `spec` must satisfy, whatever the data:
/// ranked order, at most k rows, the confidence threshold, and pairs inside
/// their domains. Returns an empty string when the answer passes, else what
/// is wrong.
std::string CheckProperties(const std::vector<Row>& answer,
                            const QuerySpec& spec);

/// CheckProperties plus the comparison with the reference answer.
std::string CheckAgainstReference(const std::vector<Row>& answer,
                                  const RefAnswer& reference,
                                  const QuerySpec& spec);

/// Order-sensitive digest of every value and the exact bits of every
/// score and confidence: equal digests mean bit-identical answers.
uint64_t Digest(const prefdb::Relation& answer);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
