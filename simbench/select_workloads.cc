// The two in-process workloads: select-strict (in-memory SF at high τ) and
// select-broad-disk (SF/iNRA/Hybrid at low τ over a PostingStore and an
// undersized BufferPool).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"
#include "common/rng.h"
#include "core/selector.h"
#include "gen/workload.h"
#include "layers.h"
#include "reference.h"
#include "simd/kernels.h"
#include "storage/buffer_pool.h"
#include "storage/posting_store.h"

namespace simbench {
namespace {

using simsel::AlgorithmKind;
using simsel::QueryResult;
using simsel::SelectOptions;

/// Ops per run whose answers are checked against the reference.
constexpr size_t kReferenceSample = 120;

/// One operation of a workload's pool: a selection.
struct Op {
  std::string query;
  double tau;
  AlgorithmKind kind;
};

struct WorkloadSpec {
  const char* name;
  bool disk;
  /// Query buckets in 3-grams and the edit counts mixed into the pool.
  int min_tokens;
  int max_tokens;
  std::vector<int> edits;
  std::vector<double> taus;
  std::vector<AlgorithmKind> kinds;
  size_t pool_ops;
  /// BufferPool frames (disk mode only).
  size_t pool_frames;
};

const WorkloadSpec kStrict{"select-strict", false, 6, 20, {0, 1, 2},
                           {0.8, 0.9, 0.95}, {AlgorithmKind::kSf}, 3600, 0};
const WorkloadSpec kBroadDisk{"select-broad-disk",
                              true,
                              11,
                              20,
                              {1, 2},
                              {0.5, 0.6, 0.7},
                              {AlgorithmKind::kSf, AlgorithmKind::kInra,
                               AlgorithmKind::kHybrid},
                              2160,
                              256};

/// The op pool: op i takes edit count edits[i % E], τ taus[(i / E) % T]
/// and algorithm kinds[(i / (E·T)) % K], so every combination appears
/// equally often; the query texts come from GenerateWordWorkload, one
/// seeded stream per edit count.
std::vector<Op> MakeOps(const WorkloadSpec& spec,
                        const std::vector<std::string>& words, uint64_t seed) {
  const simsel::Tokenizer grams;  // the selector's 3-gram tokenizer
  const size_t e = spec.edits.size(), t = spec.taus.size();
  std::vector<simsel::Workload> streams;
  for (size_t k = 0; k < e; ++k) {
    simsel::WorkloadOptions wo;
    wo.num_queries = spec.pool_ops / e + 1;
    wo.min_tokens = spec.min_tokens;
    wo.max_tokens = spec.max_tokens;
    wo.modifications = spec.edits[k];
    wo.seed = seed * 1000003 + 17 * k + 1;
    streams.push_back(simsel::GenerateWordWorkload(words, grams, wo));
  }
  std::vector<Op> ops;
  for (size_t i = 0; i < spec.pool_ops; ++i) {
    const simsel::Workload& w = streams[i % e];
    if (w.queries.empty()) break;
    ops.push_back({w.queries[(i / e) % w.queries.size()],
                   spec.taus[(i / e) % t],
                   spec.kinds[(i / (e * t)) % spec.kinds.size()]});
  }
  return ops;
}

/// The selector and, in disk mode, its store and buffer pool.
struct System {
  std::optional<simsel::SimilaritySelector> selector;
  std::optional<simsel::PostingStore> store;
  std::unique_ptr<simsel::BufferPool> pool;

  SelectOptions Options() const {
    SelectOptions o;
    if (store) o.posting_store = &*store;
    o.buffer_pool = pool.get();
    return o;
  }
};


class SelectRun {
 public:
  SelectRun(const WorkloadSpec& spec, const RunArgs& args)
      : spec_(spec), args_(args) {}

  Outcome Run();

 private:
  /// One pass over the pool. Records latency samples and checks every
  /// answer when `timed`; the first pass fixes each op's digest.
  void Pass(bool timed);
  /// Untraced passes until `seconds` have elapsed (whole passes).
  void TimedPhase(double seconds);
  /// Each op's latency is the fastest of its timed runs. On a shared host,
  /// load from other tenants slows most runs of an op, for seconds to
  /// minutes at a time, and the median of an op's runs follows it; the
  /// fastest run is the op's own cost with that interference taken out.
  std::vector<double> OpLatencies() const;
  void TracedPhase(double seconds);
  void CheckDiskEqualsMemory();
  /// Distinct list pages one pass over the pool touches (an unbounded
  /// BufferPool's misses).
  uint64_t PagesTouched();
  void CheckReference(const std::vector<std::string>& words);

  const WorkloadSpec& spec_;
  const RunArgs& args_;
  Outcome out_;
  System sys_;
  std::vector<Op> ops_;
  std::vector<uint64_t> digests_;  // per op, from the first pass
  // The ops checked against the reference, and their first-pass answers.
  std::vector<bool> sampled_;
  std::vector<std::vector<simsel::Match>> answers_;
  // Timed latencies per op.
  std::vector<std::vector<double>> op_us_;
  uint64_t timed_selects_ = 0;
  simsel::AccessCounters counters_;  // summed over the timed Select calls
  bool first_pass_ = true;
  LayerTimes layers_;
};

void SelectRun::Pass(bool timed) {
  const SelectOptions options = sys_.Options();
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    const Clock::time_point a = Clock::now();
    QueryResult r = sys_.selector->Select(op.query, op.tau, op.kind, options);
    const Clock::time_point b = Clock::now();
    if (timed) ++out_.attempted;
    if (!r.complete()) {
      if (timed) ++out_.failed;
      continue;
    }
    const uint64_t digest = DigestMatches(r.matches);
    if (first_pass_) {
      digests_[i] = digest;
      const std::string bad = CheckAnswerProperties(r.matches, op.tau);
      if (!bad.empty()) out_.Problem(op.query + ": " + bad);
      if (sampled_[i]) answers_[i] = r.matches;
    } else if (digest != digests_[i]) {
      out_.Problem(op.query + ": answer changed between runs of the query");
    }
    if (!timed) continue;
    op_us_[i].push_back(MicrosBetween(a, b));
    ++timed_selects_;
    counters_.Merge(r.counters);
  }
  first_pass_ = false;
}

void SelectRun::TimedPhase(double seconds) {
  const Clock::time_point start = Clock::now();
  do {
    Pass(/*timed=*/true);
  } while (SecondsBetween(start, Clock::now()) < seconds);
}

std::vector<double> SelectRun::OpLatencies() const {
  std::vector<double> per_op;
  for (const std::vector<double>& runs : op_us_) {
    if (!runs.empty()) {
      per_op.push_back(*std::min_element(runs.begin(), runs.end()));
    }
  }
  return per_op;
}

void SelectRun::TracedPhase(double seconds) {
  SpanRecorder rec;
  const SelectOptions options = sys_.Options();
  const Clock::time_point start = Clock::now();
  uint64_t query_id = 0;
  // Whole rotations of: untraced Select, Select in a span, layer calls.
  for (size_t pass = 0;; ++pass) {
    for (size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (pass % 3 == 2) {
        layers_.TraceLayers(*sys_.selector, options, i, op.query, op.tau,
                            op.kind, sys_.store ? &*sys_.store : nullptr,
                            query_id++, &rec);
      } else {
        layers_.TimeSelect(*sys_.selector, options, i, op.query, op.tau,
                           op.kind, query_id++, pass % 3 == 1 ? &rec : nullptr);
      }
    }
    if (pass % 3 == 2 && SecondsBetween(start, Clock::now()) >= seconds) {
      break;
    }
  }
  const std::string path =
      args_.out_dir + "/trace_" + spec_.name + ".json";
  if (!rec.WriteChromeTrace(path)) out_.Problem("cannot write " + path);
  std::fprintf(stderr, "simbench: %zu spans written to %s\n", rec.size(),
               path.c_str());
}

void SelectRun::CheckDiskEqualsMemory() {
  SelectOptions memory;  // same defaults, no store, no pool
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    QueryResult r = sys_.selector->Select(op.query, op.tau, op.kind, memory);
    if (!r.complete() || DigestMatches(r.matches) != digests_[i]) {
      out_.Problem(op.query + ": disk-mode answer differs from memory mode");
    }
  }
}

uint64_t SelectRun::PagesTouched() {
  simsel::BufferPool unbounded(size_t{1} << 24);
  SelectOptions options = sys_.Options();
  options.buffer_pool = &unbounded;
  for (const Op& op : ops_) {
    sys_.selector->Select(op.query, op.tau, op.kind, options);
  }
  return unbounded.misses();
}

void SelectRun::CheckReference(const std::vector<std::string>& words) {
  const ReferenceScorer ref(words);
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (!sampled_[i]) continue;
    const Op& op = ops_[i];
    const std::string bad =
        ref.Check(op.query, op.tau, answers_[i], kScoreTolerance);
    if (!bad.empty()) {
      out_.Problem("reference mismatch for '" + op.query + "' at tau " +
                   std::to_string(op.tau) + ": " + bad);
    }
  }
}

Outcome SelectRun::Run() {
  std::vector<std::string> words = MakeWords();
  ops_ = MakeOps(spec_, words, args_.seed);
  digests_.resize(ops_.size());
  op_us_.resize(ops_.size());
  sampled_.resize(ops_.size());
  answers_.resize(ops_.size());
  simsel::Rng pick(args_.seed ^ 0x5eed5eedull);
  for (size_t k = 0; k < kReferenceSample && !ops_.empty(); ++k) {
    sampled_[pick.NextBounded(ops_.size())] = true;
  }
  Progress("inputs ready");
  layers_ = LayerTimes(ops_.size());
  if (args_.trace) layers_.MeasureSetup(words);

  // Set-up: from the records in memory to the first answerable query.
  const Clock::time_point setup_start = Clock::now();
  simsel::BuildOptions build;
  build.tokenizer.kind = simsel::TokenizerKind::kQGram;
  build.tokenizer.q = 3;
  sys_.selector.emplace(simsel::SimilaritySelector::Build(words, build));
  if (spec_.disk) {
    sys_.store.emplace(simsel::PostingStore::Build(sys_.selector->index()));
    sys_.pool = std::make_unique<simsel::BufferPool>(spec_.pool_frames);
  }
  const double setup_s = SecondsBetween(setup_start, Clock::now());
  std::fprintf(stderr, "simbench: %s set-up %.3f s, %zu ops, kernel %s\n",
               spec_.name, setup_s, ops_.size(),
               simsel::simd::Kernels().name);

  Pass(/*timed=*/false);  // warm-up; fixes every op's answer digest
  Progress("warm-up done");
  if (args_.trace) {
    TimedPhase(args_.seconds / 2);
    TracedPhase(args_.seconds / 2);
  } else {
    TimedPhase(args_.seconds);
  }
  const double peak_rss = PeakRssMb();
  Progress("timed phase done");
  const double image_mb =
      IndexImageMb(*sys_.selector, args_.out_dir, &out_);
  Progress("image saved");
  if (spec_.disk) CheckDiskEqualsMemory();
  CheckReference(words);
  Progress("checks done");

  // One caller issues the ops back to back, so its rate is the inverse of
  // the mean op latency.
  const std::vector<double> op_latencies = OpLatencies();
  double op_sum_us = 0.0;
  for (double us : op_latencies) op_sum_us += us;
  out_.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"query_p50_us", Percentile(op_latencies, 50), "us"},
      {"query_p99_us", Percentile(op_latencies, 99), "us"},
      {"queries_per_s",
       op_sum_us > 0 ? 1e6 * static_cast<double>(op_latencies.size()) / op_sum_us
                     : 0.0,
       "queries/s"},
      {"peak_rss_mb", peak_rss, "MiB"},
      {"index_image_mb", image_mb, "MiB"},
  };
  if (args_.trace) {
    std::vector<Metric> measured;
    const std::string bad = layers_.Finish(
        *sys_.selector, counters_, timed_selects_,
        sys_.pool.get(), PagesTouched(), &measured);
    if (!bad.empty()) out_.Problem(bad);
    out_.per_layer = AllLayerMetrics(measured);
  }
  return out_;
}

}  // namespace

Outcome RunSelectStrict(const RunArgs& args) {
  return SelectRun(kStrict, args).Run();
}

Outcome RunSelectBroadDisk(const RunArgs& args) {
  return SelectRun(kBroadDisk, args).Run();
}

}  // namespace simbench
