#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "eval/experiment.h"
#include "gen/corpus.h"
#include "text/tokenizer.h"

namespace simbench {

void Outcome::Problem(std::string what) {
  // Keep the log readable when one fault repeats on every query.
  if (problems.size() < 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  problems.push_back(std::move(what));
}

void Progress(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "simbench: [%7.2f s] %s\n",
               SecondsBetween(start, Clock::now()), what.c_str());
}

std::vector<std::string> MakeWords() {
  // Mirrors MakeBenchEnv (src/eval/experiment.cc) with its defaults.
  const simsel::BenchEnvOptions env;
  const size_t kWords = env.num_words;
  simsel::CorpusOptions corpus_options;
  corpus_options.vocab_size = env.vocab_size;
  corpus_options.seed = env.seed;
  corpus_options.num_records = kWords / 2 + 16;
  simsel::Corpus corpus = simsel::GenerateCorpus(corpus_options);
  simsel::Tokenizer word_tok(
      simsel::TokenizerOptions{.kind = simsel::TokenizerKind::kWord});
  std::vector<std::string> words;
  words.reserve(kWords);
  for (const std::string& rec : corpus.records) {
    for (std::string& w : word_tok.Tokenize(rec)) {
      words.push_back(std::move(w));
      if (words.size() >= kWords) return words;
    }
  }
  return words;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double IndexImageMb(const simsel::SimilaritySelector& selector,
                    const std::string& out_dir, Outcome* out) {
  const std::string path =
      out_dir + "/image_" + std::to_string(getpid()) + ".simsel";
  const simsel::Status st = selector.SaveIndex(path);
  struct stat sb;
  const bool sized = st.ok() && stat(path.c_str(), &sb) == 0;
  std::remove(path.c_str());
  if (!sized) {
    out->Problem("SaveIndex failed: " + st.ToString());
    return 0.0;
  }
  return static_cast<double>(sb.st_size) / kMiB;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

uint64_t DigestMatches(const std::vector<simsel::Match>& matches) {
  uint64_t h = 0xcbf29ce484222325ull ^ matches.size();
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  };
  for (const simsel::Match& m : matches) {
    uint64_t bits;
    std::memcpy(&bits, &m.score, sizeof(bits));
    mix(m.id);
    mix(bits);
  }
  return h;
}

std::string CheckAnswerProperties(const std::vector<simsel::Match>& matches,
                                  double tau) {
  for (size_t i = 0; i < matches.size(); ++i) {
    if (i > 0 && matches[i].id <= matches[i - 1].id) {
      return "ids not strictly ascending at position " + std::to_string(i);
    }
    if (!(matches[i].score >= tau)) {
      return "set " + std::to_string(matches[i].id) + " reported below tau";
    }
  }
  return "";
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {
  spans_.reserve(1 << 20);
}

void SpanRecorder::Add(const char* name, uint64_t query_id,
                       Clock::time_point start, Clock::time_point end,
                       int tid) {
  spans_.push_back({name, query_id, tid, start, end});
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  origin_ = std::min(origin_, other.origin_);
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 MicrosBetween(origin_, s.start),
                 MicrosBetween(s.start, s.end),
                 static_cast<unsigned long long>(s.query_id));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace simbench
