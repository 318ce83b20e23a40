// Per-layer measurement of the traced run. Every layer is timed from
// outside, by calling its public function on the same inputs Select sees
// and wrapping the call in a span; nothing is traced inside the program.
#ifndef SIMBENCH_LAYERS_H_
#define SIMBENCH_LAYERS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/selector.h"
#include "storage/buffer_pool.h"
#include "storage/posting_store.h"

namespace simbench {

/// How far the sum of the separately timed layer calls may stray from the
/// untraced Select latency, as a share of the latter (README.md).
inline constexpr double kLayerSumBound = 0.15;

class LayerTimes {
 public:
  explicit LayerTimes(size_t num_ops = 0)
      : select_us_{std::vector<double>(num_ops), std::vector<double>(num_ops)},
        selects_{std::vector<uint64_t>(num_ops),
                 std::vector<uint64_t>(num_ops)},
        layer_sum_us_(num_ops),
        replays_(num_ops) {}

  /// Times the set-up layers one by one on a throw-away copy: collection,
  /// IDF measure, inverted index, sketch tier and posting store.
  void MeasureSetup(const std::vector<std::string>& words);

  /// Op `op` of the pool through Select, timed; wrapped in one span when
  /// `rec` is set. The traced pass rotates untraced Select, traced Select
  /// and TraceLayers over the whole pool, so that no pass warms the caches
  /// for the same query in another and the three compare like for like.
  void TimeSelect(const simsel::SimilaritySelector& sel,
                  const simsel::SelectOptions& options, size_t op,
                  std::string_view query, double tau,
                  simsel::AlgorithmKind kind, uint64_t query_id,
                  SpanRecorder* rec);
  /// Op `op` of the pool as the layer calls Select is made of, each in its
  /// own span, then the work-count probes (Theorem-1 window, and the block
  /// decode over it when `store` is set).
  void TraceLayers(const simsel::SimilaritySelector& sel,
                   const simsel::SelectOptions& options, size_t op,
                   std::string_view query, double tau,
                   simsel::AlgorithmKind kind,
                   const simsel::PostingStore* store, uint64_t query_id,
                   SpanRecorder* rec);

  /// Sets every in-process per-layer metric. `counters` are the
  /// AccessCounters summed over `executions` untraced Select calls and
  /// `pool` the BufferPool they shared (null in memory mode). Returns "" or
  /// the failed layer-sum check.
  std::string Finish(const simsel::SimilaritySelector& sel,
                     const simsel::AccessCounters& counters,
                     uint64_t executions, const simsel::BufferPool* pool,
                     uint64_t pages_touched, std::vector<Metric>* out) const;

 private:
  // Set-up layers, seconds.
  double collection_s_ = 0, measure_s_ = 0, index_s_ = 0, attach_s_ = 0,
         store_s_ = 0;
  // Per-query layer sums, microseconds, and how many calls they cover.
  double tokenize_us_ = 0, prepare_us_ = 0, plan_us_ = 0, tier_us_ = 0;
  uint64_t queries_ = 0, planned_ = 0, engaged_ = 0;
  double kernel_us_[3] = {0, 0, 0};  // SF, iNRA, Hybrid with the tier off
  uint64_t kernel_n_[3] = {0, 0, 0};
  double window_postings_ = 0;
  double decode_ns_ = 0, decoded_postings_ = 0;
  // Per op: untraced and traced Select, the sum of its layer calls, and
  // how many calls each covers.
  std::vector<double> select_us_[2];
  std::vector<uint64_t> selects_[2];
  std::vector<double> layer_sum_us_;
  std::vector<uint64_t> replays_;
};

/// Every per-layer metric in one fixed order, with its unit, taking the
/// value from `measured` where the workload measured it and 0 where the
/// layer is not on its path (README.md lists which workload sets which).
std::vector<Metric> AllLayerMetrics(const std::vector<Metric>& measured);

}  // namespace simbench

#endif  // SIMBENCH_LAYERS_H_
