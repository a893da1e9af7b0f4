#ifndef CSR_OBS_METRICS_H_
#define CSR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace csr {

/// Lock-cheap observability primitives (DESIGN.md §12). The registry owns
/// named instruments; hot paths hold raw instrument pointers obtained once
/// at setup and update them with relaxed atomics — no lock, no lookup, no
/// allocation per event. Registration/snapshotting take a mutex, so they
/// belong on control paths (engine build, shell `.metrics`), never inside
/// a query.
///
/// Memory-order contract: identical to the one documented for
/// DegradationStats (PR 2). Every instrument is an independent monotonic
/// (counter/histogram) or last-write-wins (gauge) cell updated with relaxed
/// ordering; a snapshot taken during a burst may observe one instrument's
/// new value alongside another's old one. Quiescent snapshots are exact.

/// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value, or a level that concurrent
/// writers move by deltas (Add), whose sum no race loses.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency/size histogram. Bucket i counts observations
/// <= bounds[i]; one implicit overflow bucket counts the rest. The bounds
/// are fixed at construction, so Observe is a short linear scan over a
/// cache-resident array plus two relaxed atomic updates.
class Histogram {
 public:
  /// `upper_bounds` must be ascending and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Relaxed reads; size is bounds().size() + 1 (overflow last).
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1, overflow last
  uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of every registered instrument plus everything the
/// sample callbacks contribute, keyed by stable dotted names. Maps are
/// ordered so ToJson output is deterministic.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"bounds": [...], "counts": [...], "count": n, "sum": x}}}
  std::string ToJson() const;
};

/// Named-instrument registry. Get-or-create accessors return references
/// that stay valid for the registry's lifetime (instruments are
/// heap-allocated and never removed), so hot paths cache the pointer once.
///
/// Sample callbacks exist to *migrate* pre-existing counter structs into
/// the registry without replacing them: a callback reads its legacy source
/// (under whatever lock that source requires — e.g. ExecutorMetrics under
/// the executor mutex, StatsCache counters under the shard mutexes) and
/// writes the values into the snapshot under stable names. The legacy
/// struct stays authoritative; the registry is the union view.
///
/// Lock ordering: Snapshot() runs callbacks while holding the registry
/// mutex, so a callback may acquire its source's lock, but no code path
/// may acquire the registry mutex (registration, snapshot, callback
/// add/remove) while holding a metrics-source lock. Instrument updates
/// through cached pointers take no lock and are always safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// `bounds` applies on first creation only (empty picks the default
  /// latency buckets); later calls return the existing histogram.
  Histogram& GetHistogram(std::string_view name,
                          std::span<const double> bounds = {});

  using SampleFn = std::function<void(MetricsSnapshot&)>;
  /// Returns a handle for RemoveSampleCallback. After Remove returns, the
  /// callback is guaranteed not to be running (removal and snapshotting
  /// serialize on the registry mutex) — safe to destroy its captures.
  uint64_t AddSampleCallback(SampleFn fn);
  void RemoveSampleCallback(uint64_t handle);

  MetricsSnapshot Snapshot() const;

  /// 0.05 ms .. 1 s, roughly geometric — the serving-latency range.
  static std::span<const double> DefaultLatencyBucketsMs();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<std::pair<uint64_t, SampleFn>> callbacks_;
  uint64_t next_callback_handle_ = 1;
};

}  // namespace csr

#endif  // CSR_OBS_METRICS_H_
