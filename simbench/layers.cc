#include "layers.h"

#include <cmath>
#include <cstdio>

#include "core/adaptive.h"
#include "core/hybrid.h"
#include "core/inra.h"
#include "core/sf.h"
#include "storage/block_codec.h"
#include "storage/paged_file.h"

// The sketch tier is optional: when a tree no longer has it, its metrics
// read 0 and every query takes the exact kernel.
#if __has_include("sketch/prefilter.h")
#include "sketch/prefilter.h"
#define SIMBENCH_HAS_SKETCH 1
#else
#define SIMBENCH_HAS_SKETCH 0
#endif

namespace simbench {
namespace {

using simsel::AlgorithmKind;

int KernelSlot(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kInra:
      return 1;
    case AlgorithmKind::kHybrid:
      return 2;
    default:
      return 0;
  }
}

simsel::QueryResult RunKernel(const simsel::SimilaritySelector& sel,
                              const simsel::PreparedQuery& q, double tau,
                              AlgorithmKind kind,
                              const simsel::SelectOptions& options) {
  switch (kind) {
    case AlgorithmKind::kInra:
      return simsel::InraSelect(sel.index(), sel.measure(), q, tau, options);
    case AlgorithmKind::kHybrid:
      return simsel::HybridSelect(sel.index(), sel.measure(), q, tau,
                                  options);
    default:
      return simsel::SfSelect(sel.index(), sel.measure(), q, tau, options);
  }
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

void LayerTimes::MeasureSetup(const std::vector<std::string>& words) {
  simsel::TokenizerOptions grams;
  grams.kind = simsel::TokenizerKind::kQGram;
  grams.q = 3;
  const simsel::Tokenizer tokenizer(grams);
  Clock::time_point t0 = Clock::now();
  const simsel::Collection collection =
      simsel::Collection::Build(words, tokenizer);
  Clock::time_point t1 = Clock::now();
  const simsel::IdfMeasure measure(collection);
  Clock::time_point t2 = Clock::now();
  const simsel::InvertedIndex index =
      simsel::InvertedIndex::Build(collection, measure);
  Clock::time_point t3 = Clock::now();
#if SIMBENCH_HAS_SKETCH
  const auto prefilter = simsel::sketch::AttachPrefilter(measure, index);
#endif
  Clock::time_point t4 = Clock::now();
  const simsel::PostingStore store = simsel::PostingStore::Build(index);
  Clock::time_point t5 = Clock::now();
  collection_s_ = SecondsBetween(t0, t1);
  measure_s_ = SecondsBetween(t1, t2);
  index_s_ = SecondsBetween(t2, t3);
  attach_s_ = SecondsBetween(t3, t4);
  store_s_ = SecondsBetween(t4, t5);
}

void LayerTimes::TimeSelect(const simsel::SimilaritySelector& sel,
                            const simsel::SelectOptions& options, size_t op,
                            std::string_view query, double tau,
                            AlgorithmKind kind, uint64_t query_id,
                            SpanRecorder* rec) {
  const Clock::time_point a = Clock::now();
  simsel::QueryResult r = sel.Select(query, tau, kind, options);
  const Clock::time_point b = Clock::now();
  if (rec != nullptr) rec->Add("select", query_id, a, b);
  const int traced = rec != nullptr ? 1 : 0;
  select_us_[traced][op] += MicrosBetween(a, b);
  ++selects_[traced][op];
}

void LayerTimes::TraceLayers(const simsel::SimilaritySelector& sel,
                             const simsel::SelectOptions& options, size_t op,
                             std::string_view query, double tau,
                             AlgorithmKind kind,
                             const simsel::PostingStore* store,
                             uint64_t query_id, SpanRecorder* rec) {
  std::vector<simsel::TokenCount> counted;
  simsel::PreparedQuery q;
  const double tokenize = TimedSpan(rec, "text.tokenize", query_id, [&] {
    counted = sel.tokenizer().TokenizeCounted(query);
  });
  const double prepare = TimedSpan(rec, "sim.prepare", query_id, [&] {
    q = sel.measure().PrepareQuery(counted);
  });
  double layer_sum = tokenize + prepare;
  bool engaged = false;
  simsel::SelectOptions exact = options;
#if SIMBENCH_HAS_SKETCH
  // Mirrors SimilaritySelector::Dispatch: the tier gate runs first, and an
  // engaged tier answers the query itself (TrySelect re-runs the gate).
  if (options.prefilter && sel.prefilter() != nullptr &&
      simsel::sketch::PrefilterEligible(kind)) {
    simsel::sketch::Prefilter::Plan plan;
    const double plan_us = TimedSpan(rec, "sketch.plan", query_id, [&] {
      plan = sel.prefilter()->PlanFor(q, tau);
    });
    ++planned_;
    plan_us_ += plan_us;
    if (plan.engaged) {
      simsel::QueryResult tier_out;
      const double tier_us = TimedSpan(rec, "sketch.tier", query_id, [&] {
        engaged = sel.prefilter()->TrySelect(q, tau, options, &tier_out);
      });
      tier_us_ += tier_us;
      layer_sum += tier_us;
    } else {
      layer_sum += plan_us;
    }
  }
  exact.prefilter = false;
#endif
  static const char* const kKernelSpan[3] = {"core.sf", "core.inra",
                                              "core.hybrid"};
  const int slot = KernelSlot(kind);
  const double kernel = TimedSpan(rec, kKernelSpan[slot], query_id, [&] {
    simsel::QueryResult r = RunKernel(sel, q, tau, kind, exact);
  });
  kernel_us_[slot] += kernel;
  ++kernel_n_[slot];
  if (!engaged) layer_sum += kernel;

  // Work probes; not part of Select.
  window_postings_ +=
      simsel::ChooseAlgorithm(sel.index(), sel.measure(), q, tau)
          .window_postings;
  if (store != nullptr) {
    const size_t block = store->block_postings();
    std::vector<uint32_t> ids(block);
    std::vector<float> lens(block);
    simsel::BlockDecodeScratch scratch;
    uint64_t decoded = 0;
    const float lo = static_cast<float>(tau * q.length);
    const float hi = static_cast<float>(q.length / tau);
    const double decode_us = TimedSpan(rec, "storage.decode", query_id, [&] {
      for (simsel::TokenId t : q.tokens) {
        const simsel::PostingRange range = sel.index().WindowSpan(t, lo, hi);
        simsel::PageReadStats reader;
        for (size_t pos = range.begin; pos < range.end;) {
          const size_t n = std::min(range.end, (pos / block + 1) * block) - pos;
          store->ReadBlock(t, pos, n, ids.data(), lens.data(),
                           /*random=*/pos == range.begin, &reader, nullptr,
                           &scratch);
          decoded += n;
          pos += n;
        }
      }
    });
    decode_ns_ += decode_us * 1000.0;
    decoded_postings_ += static_cast<double>(decoded);
  }
  tokenize_us_ += tokenize;
  prepare_us_ += prepare;
  engaged_ += engaged ? 1 : 0;
  ++queries_;
  layer_sum_us_[op] += layer_sum;
  ++replays_[op];
}

std::string LayerTimes::Finish(const simsel::SimilaritySelector& sel,
                               const simsel::AccessCounters& counters,
                               uint64_t executions,
                               const simsel::BufferPool* pool,
                               uint64_t pages_touched,
                               std::vector<Metric>* out) const {
  // Per-op means, summed over the ops replayed at least once.
  double untraced = 0, traced = 0, layers = 0;
  size_t ops = 0;
  for (size_t i = 0; i < replays_.size(); ++i) {
    if (replays_[i] == 0 || selects_[0][i] == 0 || selects_[1][i] == 0) {
      continue;
    }
    untraced += select_us_[0][i] / static_cast<double>(selects_[0][i]);
    traced += select_us_[1][i] / static_cast<double>(selects_[1][i]);
    layers += layer_sum_us_[i] / static_cast<double>(replays_[i]);
    ++ops;
  }
  const double n = static_cast<double>(queries_);
  const double ex = static_cast<double>(executions);
  const simsel::IndexSizeReport sizes = sel.Sizes();
  double sketch_bytes = 0;
#if SIMBENCH_HAS_SKETCH
  sketch_bytes = static_cast<double>(sizes.sketches);
#endif
  const double window = Ratio(window_postings_, n);
  const double postings_read = Ratio(counters.elements_read, ex);
  *out = {
      {"text.tokenize_us", Ratio(tokenize_us_, n), "us"},
      {"sim.prepare_us", Ratio(prepare_us_, n), "us"},
      {"sketch.plan_us", Ratio(plan_us_, planned_), "us"},
      {"sketch.engaged_share", Ratio(engaged_, n), "ratio"},
      {"sketch.tier_us", Ratio(tier_us_, engaged_), "us"},
      {"sketch.bytes_mb", sketch_bytes / kMiB, "MiB"},
      {"index.lists_mb", sizes.inverted_lists / kMiB, "MiB"},
      {"text.collection_build_s", collection_s_, "s"},
      {"sim.measure_build_s", measure_s_, "s"},
      {"index.build_s", index_s_, "s"},
      {"sketch.attach_s", attach_s_, "s"},
      {"storage.store_build_s", store_s_, "s"},
      {"index.window_postings", window, "postings"},
      {"core.postings_read", postings_read, "postings"},
      {"core.read_over_window", Ratio(postings_read, window), "ratio"},
      {"core.sf_us", Ratio(kernel_us_[0], kernel_n_[0]), "us"},
      {"core.inra_us", Ratio(kernel_us_[1], kernel_n_[1]), "us"},
      {"core.hybrid_us", Ratio(kernel_us_[2], kernel_n_[2]), "us"},
      {"core.candidates", Ratio(counters.candidate_inserts, ex), "count"},
      {"core.candidates_pruned", Ratio(counters.candidate_prunes, ex),
       "count"},
      {"core.candidate_scan_steps", Ratio(counters.candidate_scan_steps, ex),
       "count"},
      {"core.results", Ratio(counters.results, ex), "count"},
      {"core.unattributed_us", Ratio(untraced - layers, ops), "us"},
      {"storage.seq_pages", Ratio(counters.seq_page_reads, ex), "pages"},
      {"storage.rand_pages", Ratio(counters.rand_page_reads, ex), "pages"},
      {"storage.pool_hit_rate",
       pool ? Ratio(counters.pool_hits, counters.pool_hits + counters.pool_misses)
            : 0.0,
       "ratio"},
      {"storage.pool_misses", Ratio(counters.pool_misses, ex), "pages"},
      {"storage.pages_touched", static_cast<double>(pages_touched), "pages"},
      {"storage.decode_ns_per_posting", Ratio(decode_ns_, decoded_postings_),
       "ns"},
      {"trace.overhead_pct", 100.0 * (Ratio(traced, untraced) - 1.0), "%"},
      {"trace.layer_sum_ratio", Ratio(layers, untraced), "ratio"},
  };
  const double ratio = Ratio(layers, untraced);
  std::fprintf(stderr,
               "simbench: layer sum %.2f us vs untraced Select %.2f us per "
               "query (ratio %.3f, bound ±%.2f)\n",
               Ratio(layers, ops), Ratio(untraced, ops), ratio,
               kLayerSumBound);
  if (std::fabs(ratio - 1.0) > kLayerSumBound) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "layer calls sum to %.3f of the untraced Select latency, "
                  "outside 1 ± %.2f",
                  ratio, kLayerSumBound);
    return buf;
  }
  return "";
}

std::vector<Metric> AllLayerMetrics(const std::vector<Metric>& measured) {
  static const struct {
    const char* name;
    const char* unit;
  } kAll[] = {
      {"text.tokenize_us", "us"},
      {"sim.prepare_us", "us"},
      {"sketch.plan_us", "us"},
      {"sketch.engaged_share", "ratio"},
      {"sketch.tier_us", "us"},
      {"sketch.bytes_mb", "MiB"},
      {"index.lists_mb", "MiB"},
      {"text.collection_build_s", "s"},
      {"sim.measure_build_s", "s"},
      {"index.build_s", "s"},
      {"sketch.attach_s", "s"},
      {"storage.store_build_s", "s"},
      {"index.window_postings", "postings"},
      {"core.postings_read", "postings"},
      {"core.read_over_window", "ratio"},
      {"core.sf_us", "us"},
      {"core.inra_us", "us"},
      {"core.hybrid_us", "us"},
      {"core.candidates", "count"},
      {"core.candidates_pruned", "count"},
      {"core.candidate_scan_steps", "count"},
      {"core.results", "count"},
      {"core.unattributed_us", "us"},
      {"storage.seq_pages", "pages"},
      {"storage.rand_pages", "pages"},
      {"storage.pool_hit_rate", "ratio"},
      {"storage.pool_misses", "pages"},
      {"storage.pages_touched", "pages"},
      {"storage.decode_ns_per_posting", "ns"},
      {"serve.server_p50_us", "us"},
      {"serve.in_process_us", "us"},
      {"serve.insert_p50_us", "us"},
      {"serve.cache_hit_rate", "ratio"},
      {"serve.cache_invalidations", "count"},
      {"serve.rebuilds", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.layer_sum_ratio", "ratio"},
  };
  std::vector<Metric> all;
  for (const auto& m : kAll) {
    double value = 0.0;
    for (const Metric& have : measured) {
      if (have.name == m.name) value = have.value;
    }
    all.push_back({m.name, value, m.unit});
  }
  return all;
}

}  // namespace simbench
