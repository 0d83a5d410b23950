// Harness primitives of the repository benchmark: summary statistics,
// the in-memory span recorder of traced runs, and the seeded load
// generator of the serve probe. Everything here is independent of
// the library under test, so selftest.cpp can pin it in isolation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace bench {

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linearly interpolated p-quantile (p in [0,1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// The highest of the percentiles 50, 90, 99, 99.9 that leaves at least
/// ten samples beyond it for a sample of size n; 0 when even the median
/// does not (n < 20).
double tail_percentile(std::size_t n);

/// Call times in ms, per key (one key per attack cell and gradient
/// source).
using CallMs = std::map<std::string, std::vector<double>>;

/// The share of a gradient call's time spent waiting at N threads:
/// 1 − (the N-thread calls' time at each key's one-thread mean call
/// time) ÷ (their measured time). Each key is compared with itself, so
/// the mix of cells and sources in either pass does not enter. Empty
/// when the two passes do not time the same keys, or time nothing.
std::optional<double> wait_share(const CallMs& at_n, const CallMs& at_1);

// ---------------------------------------------------------------------------
// Spans of a traced run. A span is recorded around each call into a
// layer of the library; spans live in memory until the run ends.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  double start_us = 0.0;  // since the recorder's epoch
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root
  std::int64_t trace = 0;   // attack batch or request the span belongs to
  int thread = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }

  /// Trace id stamped on spans opened from now on (one per batch or
  /// request), and the span that parents spans opened on threads with
  /// no open span of their own (engine pool threads).
  void set_context(std::int64_t trace, std::int64_t root);

  /// Trace id for spans the calling thread opens; overrides the shared
  /// context while non-zero (concurrent requests on client threads).
  static void set_thread_trace(std::int64_t trace);

  std::int64_t open(const char* name);
  void close(std::int64_t id);

  std::vector<SpanRecord> take();
  double now_us() const;

 private:
  SpanRecorder();
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{1};
  std::atomic<std::int64_t> trace_{0};
  std::atomic<std::int64_t> root_{0};
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;
  std::map<std::int64_t, SpanRecord> open_;
  std::vector<SpanRecord> done_;
};

/// Opens a span for the enclosing scope when tracing is on; no-op
/// otherwise.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t id() const { return id_; }

 private:
  std::int64_t id_ = 0;
};

/// Self time per span name, in microseconds: each span's duration minus
/// the part of its interval covered by the union of its children.
std::map<std::string, double> self_time_us(
    const std::vector<SpanRecord>& spans);

/// Chrome trace-event JSON ("X" events, one lane per thread).
std::string spans_to_json(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Load generation for the serve probe.
// ---------------------------------------------------------------------------

/// Send times (seconds from phase start) of n Poisson arrivals at
/// `rate` per second, deterministic in seed. The exponential gaps are
/// rescaled so the last arrival falls at exactly n / rate: every seed
/// offers the same mean load, and seeds differ in burstiness only.
std::vector<double> poisson_arrivals(std::uint64_t seed, double rate,
                                     std::size_t n);

/// n request-kind indices in the exact proportions of `weights`
/// (largest remainder), in an order shuffled by seed.
std::vector<int> request_mix(std::uint64_t seed,
                             const std::vector<double>& weights,
                             std::size_t n);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace bench
