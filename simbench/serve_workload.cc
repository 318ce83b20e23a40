// serve-mixed: the TCP line-protocol server over DynamicServing, driven in
// closed loop over two connections by this process, with Zipf query
// popularity and a share of near-duplicate inserts.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gen/load.h"
#include "gen/workload.h"
#include "gen/zipf.h"
#include "layers.h"
#include "obs/metrics_registry.h"
#include "reference.h"
#include "serve/dynamic_serving.h"
#include "serve/server.h"

namespace simbench {
namespace {

using simsel::AlgorithmKind;

constexpr size_t kConnections = 2;
constexpr double kTau = 0.7;
constexpr double kInsertShare = 0.05;
constexpr double kZipfSkew = 0.99;
constexpr size_t kQueryPool = 3000;
constexpr size_t kInsertPool = 20000;
constexpr size_t kCacheBytes = 4u << 20;
constexpr size_t kRebuildThreshold = 1024;
constexpr double kWarmupSeconds = 2.0;
/// "Just under 1": a record's own text scores 1 up to float rounding.
constexpr double kSelfTau = 0.9999;
constexpr size_t kReferenceSample = 100;
/// Bounds the in-process replay of the traced run.
constexpr size_t kReplayQueries = 20000;


/// One request of a connection's stream: a query-pool index or an insert.
struct Request {
  bool insert;
  size_t index;
};

/// A timed query: when it was sent (seconds into the timed phase) and its
/// latency.
struct QuerySample {
  double at_s;
  double us;
};

struct ConnLog {
  // Timed-phase latencies; with --trace 1 every other request is traced
  // and its query latency goes to traced_query_us instead.
  std::vector<QuerySample> queries;
  std::vector<double> insert_us, traced_query_us;
  std::vector<Request> timed;  // the timed requests, in order
  std::vector<std::pair<simsel::SetId, std::string>> acked;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  SpanRecorder spans;
};

/// The two streams the connections draw from: a query pool (popularity by
/// Zipf rank = pool position) and near-duplicate records to insert. The
/// pool is the same in every run: its few most popular queries set the
/// tail, so a pool drawn per seed made query_p99_us a lottery over which
/// queries ranked first. The seed draws the inserts and each connection's
/// request stream.
struct Inputs {
  std::vector<std::string> queries;
  std::vector<std::string> inserts;
};

std::vector<std::string> Interleave(std::vector<simsel::Workload> streams) {
  std::vector<std::string> out;
  for (size_t i = 0;; ++i) {
    for (simsel::Workload& w : streams) {
      if (i >= w.queries.size()) return out;
      out.push_back(std::move(w.queries[i]));
    }
  }
}

Inputs MakeInputs(const std::vector<std::string>& words, uint64_t seed) {
  const simsel::Tokenizer grams;
  auto stream = [&](size_t n, int edits, uint64_t stream_seed) {
    simsel::WorkloadOptions wo;
    wo.num_queries = n;
    wo.min_tokens = 6;
    wo.max_tokens = 20;
    wo.modifications = edits;
    wo.seed = stream_seed;
    return simsel::GenerateWordWorkload(words, grams, wo);
  };
  Inputs in;
  in.queries = Interleave({stream(kQueryPool / 3, 0, 101),
                           stream(kQueryPool / 3, 1, 102),
                           stream(kQueryPool / 3, 2, 103)});
  in.inserts = Interleave({stream(kInsertPool / 2, 1, seed * 1000003 + 201),
                           stream(kInsertPool / 2, 2, seed * 1000003 + 202)});
  return in;
}

/// Length of the windows the timed phase is cut into.
constexpr double kWindowSeconds = 0.25;

/// Latency samples of the timed phase cut into quarter-second windows. On a
/// shared host, load from other tenants slows most windows of a run; the
/// reported figures come from the least disturbed quarter of the windows:
/// the lower quartile over windows of each window's latency percentile,
/// and the upper quartile of the windows' rates.
class WindowedLatencies {
 public:
  void Add(double us) { samples_.push_back(us); }
  /// Ends the current window, which lasted `seconds` of wall time.
  void CloseWindow(double seconds);
  /// Lower quartile over windows of the window's p-th percentile.
  double Percentile(double p) const;
  /// Upper quartile over windows of the window's samples per second.
  double Rate() const;

 private:
  std::vector<double> samples_;
  std::vector<size_t> ends_;
  std::vector<double> seconds_;
};

void WindowedLatencies::CloseWindow(double seconds) {
  ends_.push_back(samples_.size());
  seconds_.push_back(seconds);
}

double WindowedLatencies::Percentile(double p) const {
  std::vector<double> per_window;
  for (size_t w = 0; w < ends_.size(); ++w) {
    const size_t begin = w == 0 ? 0 : ends_[w - 1];
    if (ends_[w] == begin) continue;  // no sample: counts in Rate only
    per_window.push_back(simbench::Percentile(
        std::vector<double>(samples_.begin() + begin,
                            samples_.begin() + ends_[w]),
        p));
  }
  return simbench::Percentile(std::move(per_window), 25);
}

double WindowedLatencies::Rate() const {
  std::vector<double> per_window;
  for (size_t w = 0; w < ends_.size(); ++w) {
    const size_t begin = w == 0 ? 0 : ends_[w - 1];
    per_window.push_back(static_cast<double>(ends_[w] - begin) / seconds_[w]);
  }
  return simbench::Percentile(std::move(per_window), 75);
}

class ServeRun {
 public:
  explicit ServeRun(const RunArgs& args) : args_(args) {}
  Outcome Run();

 private:
  void Drive(size_t conn, ConnLog* log);
  /// Replays the timed request stream through DynamicServing in this
  /// thread (no socket); returns the median query latency.
  double ReplayInProcess(const std::vector<ConnLog>& logs, SpanRecorder* rec);
  void CheckAfterFold();

  const RunArgs& args_;
  Outcome out_;
  Inputs inputs_;
  std::vector<std::string> words_;
  // Background rebuilds run here; declared before serving_ so it outlives it.
  simsel::ThreadPool rebuild_pool_{1};
  std::unique_ptr<simsel::serve::DynamicServing> serving_;
  uint16_t port_ = 0;
  Clock::time_point timed_start_, end_;
  std::vector<std::pair<simsel::SetId, std::string>> acked_;
};

void ServeRun::Drive(size_t conn, ConnLog* log) {
  simsel::load::Client client;
  simsel::Status st = client.Connect("127.0.0.1", port_);
  if (!st.ok()) {
    log->problems.push_back("connect: " + st.ToString());
    return;
  }
  simsel::Rng rng(args_.seed * 7919 + conn + 1);
  const simsel::ZipfSampler zipf(inputs_.queries.size(), kZipfSkew);
  size_t next_insert = conn;
  std::string line, response;
  simsel::load::Response parsed;
  std::vector<simsel::Match> matches;
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point a = Clock::now();
    if (a >= end_) break;
    const bool timed = a >= timed_start_;
    const bool traced = timed && args_.trace && k % 2 == 0;
    Request req;
    req.insert = rng.NextBernoulli(kInsertShare);
    const std::string rid = std::to_string(conn) + "-" + std::to_string(k);
    if (req.insert) {
      req.index = next_insert % inputs_.inserts.size();
      next_insert += kConnections;
      line = simsel::load::FormatInsert(rid, "-", inputs_.inserts[req.index]);
    } else {
      req.index = zipf.Sample(&rng);
      line = simsel::load::FormatQuery(rid, "-", kTau, AlgorithmKind::kSf,
                                       inputs_.queries[req.index]);
    }
    const Clock::time_point sent = Clock::now();
    st = client.SendLine(line);
    if (st.ok()) st = client.ReadLine(&response);
    const Clock::time_point done = Clock::now();
    if (!st.ok()) {
      log->problems.push_back("transport: " + st.ToString());
      if (timed) ++log->failed, ++log->attempted;
      return;
    }
    const double us = MicrosBetween(sent, done);
    if (traced) {
      log->spans.Add("client.request", k, sent, done,
                     static_cast<int>(conn) + 1);
    }
    const bool parsed_ok = simsel::load::ParseResponse(response, &parsed) &&
                           parsed.request_id == rid;
    const auto want = req.insert ? simsel::load::Response::Kind::kInsert
                                 : simsel::load::Response::Kind::kOk;
    if (timed) ++log->attempted;
    if (!parsed_ok || parsed.kind != want) {
      if (timed) ++log->failed;
      if (log->problems.size() < 5) {
        log->problems.push_back("unexpected response '" + response + "'");
      }
      continue;
    }
    if (req.insert) {
      log->acked.emplace_back(static_cast<simsel::SetId>(parsed.insert_id),
                              inputs_.inserts[req.index]);
    } else {
      matches.clear();
      for (const auto& m : parsed.matches) {
        matches.push_back({static_cast<simsel::SetId>(m.id), m.score});
      }
      const std::string bad = CheckAnswerProperties(matches, kTau);
      if (!bad.empty()) log->problems.push_back("response " + rid + ": " + bad);
    }
    if (!timed) continue;
    log->timed.push_back(req);
    if (req.insert) {
      log->insert_us.push_back(us);
    } else {
      if (traced) {
        log->traced_query_us.push_back(us);
      } else {
        log->queries.push_back({SecondsBetween(timed_start_, sent), us});
      }
    }
  }
}

double ServeRun::ReplayInProcess(const std::vector<ConnLog>& logs,
                                 SpanRecorder* rec) {
  std::vector<double> query_us;
  uint64_t query_id = 0;
  for (const ConnLog& log : logs) {
    for (const Request& req : log.timed) {
      if (query_us.size() >= kReplayQueries) break;
      if (req.insert) {
        const std::string& text = inputs_.inserts[req.index];
        acked_.emplace_back(serving_->AddRecord(text), text);
        continue;
      }
      simsel::QueryResult r;
      query_us.push_back(TimedSpan(rec, "serve.in_process", query_id++, [&] {
        r = serving_->Select(inputs_.queries[req.index], kTau,
                             AlgorithmKind::kSf);
      }));
      if (!r.complete()) out_.Problem("in-process replay query incomplete");
    }
  }
  return Median(query_us);
}

void ServeRun::CheckAfterFold() {
  serving_->selector().WaitForRebuild();
  serving_->Rebuild();
  const simsel::DynamicSelector& sel = serving_->selector();
  if (sel.size() != words_.size() + acked_.size()) {
    out_.Problem("collection holds " + std::to_string(sel.size()) +
                 " records, expected " +
                 std::to_string(words_.size() + acked_.size()));
  }
  // Every acknowledged insert is found by its own text.
  for (const auto& [id, text] : acked_) {
    simsel::QueryResult r = serving_->Select(text, kSelfTau);
    const bool found = std::any_of(
        r.matches.begin(), r.matches.end(),
        [id = id](const simsel::Match& m) { return m.id == id; });
    if (!r.complete() || !found) {
      out_.Problem("acknowledged insert " + std::to_string(id) + " ('" + text +
                   "') is not returned by its own text");
    }
  }
  // A sample of queries against the reference over initial + inserted.
  std::vector<std::string> texts;
  texts.reserve(sel.size());
  for (simsel::SetId s = 0; s < sel.size(); ++s) texts.push_back(sel.text(s));
  const ReferenceScorer ref(texts);
  simsel::Rng pick(args_.seed ^ 0x5eed5eedull);
  for (size_t k = 0; k < kReferenceSample; ++k) {
    const std::string& q =
        inputs_.queries[pick.NextBounded(inputs_.queries.size())];
    simsel::QueryResult r = serving_->Select(q, kTau);
    std::string bad = r.complete() ? CheckAnswerProperties(r.matches, kTau)
                                   : "incomplete answer";
    if (bad.empty()) bad = ref.Check(q, kTau, r.matches, kScoreTolerance);
    if (!bad.empty()) out_.Problem("after fold, '" + q + "': " + bad);
  }
}

Outcome ServeRun::Run() {
  words_ = MakeWords();
  inputs_ = MakeInputs(words_, args_.seed);
  if (inputs_.queries.empty() || inputs_.inserts.empty()) {
    out_.Problem("empty query or insert pool");
    return out_;
  }
  Progress("inputs ready");
  simsel::obs::Counter* rebuilds = simsel::obs::MetricsRegistry::Global()
      .GetCounter("simsel_dynamic_rebuilds_total");

  simsel::serve::DynamicServingOptions dso;
  dso.cache_bytes = kCacheBytes;
  dso.rebuild_threshold = kRebuildThreshold;
  // One build thread: a background rebuild takes one core from the
  // serving threads instead of all of them.
  dso.selector.build.index.build_threads = 1;
  dso.pool = &rebuild_pool_;
  simsel::serve::ServerOptions so;
  so.num_workers = 2;
  so.max_queue = 4 * kConnections;  // above the connection count: no shedding
  so.deadline_ms = 0;

  // Set-up: from the records in memory to the first answerable request.
  const Clock::time_point setup_start = Clock::now();
  serving_ = std::make_unique<simsel::serve::DynamicServing>(words_, dso);
  simsel::serve::Server server(serving_.get(), so);
  simsel::Status st = server.Start();
  const double setup_s = SecondsBetween(setup_start, Clock::now());
  if (!st.ok()) {
    out_.Problem("server start: " + st.ToString());
    return out_;
  }
  port_ = server.port();
  std::fprintf(stderr, "simbench: serve-mixed set-up %.3f s, port %u\n",
               setup_s, port_);

  const double image_mb = IndexImageMb(serving_->selector().snapshot().main(),
                                      args_.out_dir, &out_);

  auto after = [](Clock::time_point t, double seconds) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  };
  timed_start_ = after(Clock::now(), kWarmupSeconds);
  end_ = after(timed_start_, args_.seconds);

  simsel::serve::ResultCache* cache = serving_->result_cache();
  std::vector<ConnLog> logs(kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([this, c, &logs] { Drive(c, &logs[c]); });
  }
  std::this_thread::sleep_until(timed_start_);
  const uint64_t hits0 = cache->hits(), misses0 = cache->misses();
  const uint64_t inval0 = cache->invalidations();
  const uint64_t rebuilds0 = rebuilds->Value();
  // Resident set sampled every 50 ms; the metric is the median over the
  // 1-second windows of each window's highest sample. A rebuild whose
  // retired segment is not reclaimed yet holds a third segment for a
  // moment, in some runs and not others; ru_maxrss would report that
  // moment alone.
  std::vector<double> window_rss;
  for (Clock::time_point w = timed_start_; w < end_;) {
    const Clock::time_point w_end = std::min(end_, after(w, 1.0));
    double peak = 0.0;
    while (Clock::now() < w_end) {
      peak = std::max(peak, CurrentRssMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    window_rss.push_back(peak);
    w = w_end;
  }
  const uint64_t hits1 = cache->hits(), misses1 = cache->misses();
  const uint64_t inval1 = cache->invalidations();
  const uint64_t rebuilds1 = rebuilds->Value();
  for (std::thread& t : threads) t.join();
  const double peak_rss = Median(window_rss);
  const double server_p50 =
      static_cast<double>(server.latency_snapshot().Quantile(0.5));
  server.Shutdown();
  Progress("timed phase done");

  // One latency window per whole kWindowSeconds of the timed phase.
  std::vector<QuerySample> samples;
  std::vector<double> insert_us, traced_us;
  SpanRecorder spans;
  for (ConnLog& log : logs) {
    samples.insert(samples.end(), log.queries.begin(), log.queries.end());
    insert_us.insert(insert_us.end(), log.insert_us.begin(),
                     log.insert_us.end());
    traced_us.insert(traced_us.end(), log.traced_query_us.begin(),
                     log.traced_query_us.end());
    acked_.insert(acked_.end(), log.acked.begin(), log.acked.end());
    out_.attempted += log.attempted;
    out_.failed += log.failed;
    for (std::string& p : log.problems) out_.Problem(std::move(p));
    spans.Merge(log.spans);
  }
  if (server.shed_count() != 0 || server.partial_count() != 0) {
    out_.Problem("server shed or cut short requests: nothing may be");
  }

  std::sort(samples.begin(), samples.end(),
            [](const QuerySample& a, const QuerySample& b) {
              return a.at_s < b.at_s;
            });
  WindowedLatencies latencies;
  std::vector<double> query_us;
  double window_end = kWindowSeconds;
  for (const QuerySample& q : samples) {
    while (q.at_s >= window_end) {
      latencies.CloseWindow(kWindowSeconds);
      window_end += kWindowSeconds;
    }
    if (window_end > args_.seconds) break;  // the trailing partial window
    latencies.Add(q.us);
    query_us.push_back(q.us);
  }
  if (window_end <= args_.seconds) latencies.CloseWindow(kWindowSeconds);

  double in_process_us = 0.0;
  if (args_.trace) {
    in_process_us = ReplayInProcess(logs, &spans);
    const std::string path = args_.out_dir + "/trace_serve-mixed.json";
    if (!spans.WriteChromeTrace(path)) out_.Problem("cannot write " + path);
  }
  CheckAfterFold();
  Progress("checks done");

  out_.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"query_p50_us", latencies.Percentile(50), "us"},
      {"query_p99_us", latencies.Percentile(99), "us"},
      {"queries_per_s", latencies.Rate(), "queries/s"},
      {"peak_rss_mb", peak_rss, "MiB"},
      {"index_image_mb", image_mb, "MiB"},
  };
  if (args_.trace) {
    const uint64_t hits = hits1 - hits0, misses = misses1 - misses0;
    const double untraced_p50 = Percentile(query_us, 50);
    out_.per_layer = AllLayerMetrics({
        {"serve.server_p50_us", server_p50, "us"},
        {"serve.in_process_us", in_process_us, "us"},
        {"serve.insert_p50_us", Percentile(insert_us, 50), "us"},
        {"serve.cache_hit_rate",
         hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0,
         "ratio"},
        {"serve.cache_invalidations", static_cast<double>(inval1 - inval0),
         "count"},
        {"serve.rebuilds", static_cast<double>(rebuilds1 - rebuilds0),
         "count"},
        {"trace.overhead_pct",
         untraced_p50 > 0
             ? 100.0 * (Percentile(traced_us, 50) / untraced_p50 - 1.0)
             : 0.0,
         "%"},
    });
  }
  std::fprintf(stderr,
               "simbench: serve-mixed %zu queries, %zu inserts acked, "
               "rebuilds %llu in the timed phase\n",
               query_us.size(), acked_.size(),
               static_cast<unsigned long long>(rebuilds1 - rebuilds0));
  return out_;
}

}  // namespace

Outcome RunServeMixed(const RunArgs& args) { return ServeRun(args).Run(); }

}  // namespace simbench
