// Brute-force reference for IDF threshold selection, kept apart from the
// program's tokenizer, collection, measure and index: it re-derives the
// 3-gram sets and the scores of sim/idf.h from the record texts alone.
#ifndef SIMBENCH_REFERENCE_H_
#define SIMBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace simbench {

/// Scores every record against a query with the paper's IDF similarity,
/// in double precision, exactly as sim/idf.h documents it:
///   idf(t) = log2(1 + N / N(t)), with N(t) = 1 for tokens absent from the
///   collection; len(s) = sqrt(Σ_{t∈s} idf(t)²);
///   I(q, s) = Σ_{t∈q∩s} idf(t)² / (len(s) · len(q)).
/// Tokens are the distinct boundary-padded ('#') 3-grams of the lowercased
/// text with whitespace runs collapsed to '_' (text/tokenizer.h defaults).
class ReferenceScorer {
 public:
  explicit ReferenceScorer(const std::vector<std::string>& records);

  size_t size() const { return record_begin_.size() - 1; }

  /// I(query, s) for every record s, indexed by record id.
  std::vector<double> ScoreAll(std::string_view query) const;

  /// Compares a selection answer with the reference. Records whose
  /// reference score lies within `tolerance` of tau may be present or
  /// absent; every other record must be present exactly when its score is
  /// >= tau, and every reported score must be within `tolerance` of the
  /// reference. Returns "" when the answer agrees, else the first mismatch.
  std::string Check(std::string_view query, double tau,
                    const std::vector<simsel::Match>& answer,
                    double tolerance) const;

  /// The distinct 3-grams of `text`.
  static std::vector<std::string> Grams(std::string_view text);

 private:
  std::unordered_map<std::string, uint32_t> gram_ids_;
  std::vector<double> idf_sq_;  // per gram id
  double default_idf_sq_ = 0.0;
  std::vector<uint64_t> record_begin_;  // CSR over record_grams_
  std::vector<uint32_t> record_grams_;
  std::vector<double> record_len_;
};

/// The tolerance the benchmark checks answers with: the program stores set
/// lengths as float, so its scores differ from the double-precision
/// reference by ~1e-7.
inline constexpr double kScoreTolerance = 1e-6;

/// Self-test on a hand-computed collection: identical sets score 1,
/// disjoint sets 0, two pairs worked by hand (one with absent query
/// tokens), and the checker must reject a perturbed score, a missing id and
/// an extra id. Returns "" on success, else what failed.
std::string ReferenceSelfTest();

}  // namespace simbench

#endif  // SIMBENCH_REFERENCE_H_
