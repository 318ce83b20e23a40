// Shared plumbing of the workload benchmark: run arguments, the Section
// VIII-A word corpus, raw-sample statistics, result properties, and the
// span recorder of the traced run.
#ifndef SIMBENCH_COMMON_H_
#define SIMBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/selector.h"
#include "core/types.h"

namespace simbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Where the span file and the temporary index image go.
  std::string out_dir;
};

/// One reported metric, printed as {"value": v, "unit": u}.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What a workload run hands back to main.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness findings; the run is correct when this stays empty.
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Problem(std::string what);
};

/// Logs a stage of the run to stderr with the seconds since start-up.
void Progress(const std::string& what);

/// The Section VIII-A word table, built exactly as eval::MakeBenchEnv does
/// with its defaults (100k word occurrences of a 30k-word Zipf vocabulary,
/// corpus seed 42), without indexing. The table is the same in every run;
/// the run's --seed draws the queries and inserts.
std::vector<std::string> MakeWords();

/// Percentile of raw samples (nearest rank on a sorted copy); 0 if empty.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

inline constexpr double kMiB = 1024.0 * 1024.0;

/// Size of the image SaveIndex writes at its default version, in MiB, read
/// back from the file system; the file is removed again. Records a problem
/// and returns 0 when the save fails.
double IndexImageMb(const simsel::SimilaritySelector& selector,
                    const std::string& out_dir, Outcome* out);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();
/// Current resident set of this process, in MiB.
double CurrentRssMb();

/// Order-sensitive digest of a result: ids and the exact score bits.
uint64_t DigestMatches(const std::vector<simsel::Match>& matches);

/// The per-answer properties every query must satisfy: ids strictly
/// ascending and every reported score >= tau. Returns "" or a description.
std::string CheckAnswerProperties(const std::vector<simsel::Match>& matches,
                                  double tau);

/// Spans of the traced run, kept in memory and written out at the end as
/// Chrome trace-event JSON (one "X" event per span; the spans of one query
/// share its id in args.query).
class SpanRecorder {
 public:
  SpanRecorder();

  /// Records [start, end) under `name` for query `query_id`, issued from
  /// thread `tid`. Not thread-safe: concurrent threads record into their
  /// own recorder and Merge afterwards.
  void Add(const char* name, uint64_t query_id, Clock::time_point start,
           Clock::time_point end, int tid = 1);
  void Merge(const SpanRecorder& other);
  size_t size() const { return spans_.size(); }
  /// Writes the trace file; false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t query_id;
    int tid;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times `fn()` as one span and returns its duration in microseconds.
template <typename Fn>
double TimedSpan(SpanRecorder* rec, const char* name, uint64_t query_id,
                 Fn&& fn) {
  Clock::time_point a = Clock::now();
  fn();
  Clock::time_point b = Clock::now();
  rec->Add(name, query_id, a, b);
  return MicrosBetween(a, b);
}

Outcome RunSelectStrict(const RunArgs& args);
Outcome RunSelectBroadDisk(const RunArgs& args);
Outcome RunServeMixed(const RunArgs& args);

}  // namespace simbench

#endif  // SIMBENCH_COMMON_H_
