#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace simbench {

namespace {

bool IsSpace(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::string Describe(const char* what, simsel::SetId id, double ref,
                     double got) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: set %u reference %.9f reported %.9f",
                what, id, ref, got);
  return buf;
}

}  // namespace

std::vector<std::string> ReferenceScorer::Grams(std::string_view text) {
  std::string norm;
  bool last_space = true;
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (IsSpace(c)) {
      if (!last_space) norm.push_back('_');
      last_space = true;
      continue;
    }
    last_space = false;
    norm.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                        : raw);
  }
  if (!norm.empty() && norm.back() == '_') norm.pop_back();
  std::vector<std::string> grams;
  if (norm.empty()) return grams;
  const std::string padded = "##" + norm + "##";
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, 3));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

ReferenceScorer::ReferenceScorer(const std::vector<std::string>& records) {
  std::vector<uint64_t> df;
  record_begin_.push_back(0);
  for (const std::string& rec : records) {
    for (const std::string& g : Grams(rec)) {
      auto [it, fresh] =
          gram_ids_.emplace(g, static_cast<uint32_t>(gram_ids_.size()));
      if (fresh) df.push_back(0);
      ++df[it->second];
      record_grams_.push_back(it->second);
    }
    record_begin_.push_back(record_grams_.size());
  }
  const double n = static_cast<double>(records.size());
  idf_sq_.resize(df.size());
  for (size_t g = 0; g < df.size(); ++g) {
    const double idf = std::log2(1.0 + n / static_cast<double>(df[g]));
    idf_sq_[g] = idf * idf;
  }
  const double default_idf = std::log2(1.0 + n);
  default_idf_sq_ = default_idf * default_idf;
  record_len_.resize(records.size());
  for (size_t s = 0; s < records.size(); ++s) {
    double sum = 0.0;
    for (uint64_t i = record_begin_[s]; i < record_begin_[s + 1]; ++i) {
      sum += idf_sq_[record_grams_[i]];
    }
    record_len_[s] = std::sqrt(sum);
  }
}

std::vector<double> ReferenceScorer::ScoreAll(std::string_view query) const {
  // Weight of each query gram by gram id (0 for grams not in the query).
  std::vector<double> weight(idf_sq_.size(), 0.0);
  double len_sq = 0.0;
  for (const std::string& g : Grams(query)) {
    auto it = gram_ids_.find(g);
    if (it == gram_ids_.end()) {
      len_sq += default_idf_sq_;
    } else {
      weight[it->second] = idf_sq_[it->second];
      len_sq += idf_sq_[it->second];
    }
  }
  const double q_len = std::sqrt(len_sq);
  std::vector<double> scores(size(), 0.0);
  for (size_t s = 0; s < size(); ++s) {
    double common = 0.0;
    for (uint64_t i = record_begin_[s]; i < record_begin_[s + 1]; ++i) {
      common += weight[record_grams_[i]];
    }
    const double denom = record_len_[s] * q_len;
    scores[s] = denom == 0.0 ? 0.0 : common / denom;
  }
  return scores;
}

std::string ReferenceScorer::Check(std::string_view query, double tau,
                                   const std::vector<simsel::Match>& answer,
                                   double tolerance) const {
  const std::vector<double> ref = ScoreAll(query);
  std::vector<bool> reported(ref.size(), false);
  for (const simsel::Match& m : answer) {
    if (m.id >= ref.size()) {
      return Describe("reported id out of range", m.id, 0.0, m.score);
    }
    reported[m.id] = true;
    if (std::fabs(m.score - ref[m.id]) > tolerance) {
      return Describe("score differs", m.id, ref[m.id], m.score);
    }
    if (ref[m.id] < tau - tolerance) {
      return Describe("reported below tau", m.id, ref[m.id], m.score);
    }
  }
  for (size_t s = 0; s < ref.size(); ++s) {
    if (!reported[s] && ref[s] > tau + tolerance) {
      return Describe("missing match", static_cast<simsel::SetId>(s), ref[s],
                      0.0);
    }
  }
  return "";
}

std::string ReferenceSelfTest() {
  // N = 3. Grams: "ab" -> {##a, #ab, ab#, b##}, "cd" -> {##c, #cd, cd#,
  // d##}, "ac" -> {##a, #ac, ac#, c##}. Only ##a has df 2:
  //   idf(df 1)² = log2(1 + 3)² = 4,  a := idf(##a)² = log2(2.5)² = 1.74749
  //   len(ab) = len(ac) = sqrt(12 + a)
  //   I(ab, ac) = a / (12 + a) = 0.127114
  // Query "xab" -> {##x, #xa, xab, ab#, b##}: three absent grams at the
  // default idf log2(1 + 3) = 2, so len(q) = sqrt(5 · 4) and
  //   I(xab, ab) = (4 + 4) / (sqrt(20) · sqrt(12 + a)) = 0.482462
  const ReferenceScorer ref({"ab", "cd", "ac"});
  const double a = std::pow(std::log2(2.5), 2);
  struct Expect {
    const char* query;
    size_t set;
    double score;
  };
  const Expect cases[] = {
      {"ab", 0, 1.0},
      {"ab", 1, 0.0},
      {"ab", 2, a / (12.0 + a)},
      {"ab", 2, 0.12711363},
      {"xab", 0, 8.0 / (std::sqrt(20.0) * std::sqrt(12.0 + a))},
      {"xab", 0, 0.48246212},
      {"AB", 0, 1.0},
      {"zz", 0, 0.0},
  };
  for (const Expect& e : cases) {
    const double got = ref.ScoreAll(e.query)[e.set];
    if (std::fabs(got - e.score) > 1e-8) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "self-test: I(%s, set %zu) = %.9f, expected %.9f",
                    e.query, e.set, got, e.score);
      return buf;
    }
  }
  const double tau = 0.1;
  const std::vector<simsel::Match> right = {{0, 1.0}, {2, a / (12.0 + a)}};
  if (!ref.Check("ab", tau, right, kScoreTolerance).empty()) {
    return "self-test: the checker rejects a correct answer";
  }
  std::vector<simsel::Match> perturbed = right;
  perturbed[1].score += 1e-4;
  const std::vector<simsel::Match> missing = {{0, 1.0}};
  const std::vector<simsel::Match> extra = {{0, 1.0}, {1, 0.0},
                                            {2, a / (12.0 + a)}};
  if (ref.Check("ab", tau, perturbed, kScoreTolerance).empty()) {
    return "self-test: the checker accepts a perturbed score";
  }
  if (ref.Check("ab", tau, missing, kScoreTolerance).empty()) {
    return "self-test: the checker accepts a missing match";
  }
  if (ref.Check("ab", tau, extra, kScoreTolerance).empty()) {
    return "self-test: the checker accepts a set below tau";
  }
  // A set whose score sits on tau (within tolerance) may go either way.
  if (!ref.Check("ab", a / (12.0 + a), missing, kScoreTolerance).empty() ||
      !ref.Check("ab", a / (12.0 + a), right, kScoreTolerance).empty()) {
    return "self-test: the checker is not tolerant at score == tau";
  }
  return "";
}

}  // namespace simbench
