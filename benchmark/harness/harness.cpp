#include "harness.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <sstream>

#include "runtime/rng.h"

namespace bench {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond >= 10.0 - 1e-9) best = p;
  }
  return best;
}

std::optional<double> wait_share(const CallMs& at_n, const CallMs& at_1) {
  if (at_n.empty() || at_n.size() != at_1.size()) return std::nullopt;
  double uncontended = 0.0, measured = 0.0;
  for (const auto& [key, n_ms] : at_n) {
    const auto it = at_1.find(key);
    if (it == at_1.end() || it->second.empty() || n_ms.empty()) {
      return std::nullopt;
    }
    const std::vector<double>& one = it->second;
    const double one_mean =
        std::accumulate(one.begin(), one.end(), 0.0) / one.size();
    uncontended += one_mean * static_cast<double>(n_ms.size());
    measured += std::accumulate(n_ms.begin(), n_ms.end(), 0.0);
  }
  if (measured <= 0.0) return std::nullopt;
  return 1.0 - uncontended / measured;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

namespace {

thread_local std::vector<std::int64_t> t_open_spans;
thread_local std::int64_t t_trace = 0;

int thread_lane() {
  static std::atomic<int> next{1};
  thread_local const int lane = next.fetch_add(1);
  return lane;
}

}  // namespace

SpanRecorder& SpanRecorder::get() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

void SpanRecorder::set_context(std::int64_t trace, std::int64_t root) {
  trace_.store(trace);
  root_.store(root);
}

void SpanRecorder::set_thread_trace(std::int64_t trace) { t_trace = trace; }

std::int64_t SpanRecorder::open(const char* name) {
  SpanRecord r;
  r.name = name;
  r.id = next_id_.fetch_add(1);
  r.parent = t_open_spans.empty() ? root_.load() : t_open_spans.back();
  r.trace = t_trace != 0 ? t_trace : trace_.load();
  r.thread = thread_lane();
  r.start_us = now_us();
  t_open_spans.push_back(r.id);
  std::lock_guard<std::mutex> lock(mu_);
  open_.emplace(r.id, std::move(r));
  return t_open_spans.back();
}

void SpanRecorder::close(std::int64_t id) {
  const double end = now_us();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end_us = end;
  done_.push_back(std::move(it->second));
  open_.erase(it);
}

std::vector<SpanRecord> SpanRecorder::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.swap(done_);
  return out;
}

Span::Span(const char* name) {
  SpanRecorder& r = SpanRecorder::get();
  if (r.enabled()) id_ = r.open(name);
}

Span::~Span() {
  if (id_ != 0) SpanRecorder::get().close(id_);
}

std::map<std::string, double> self_time_us(
    const std::vector<SpanRecord>& spans) {
  std::map<std::int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) children[s.parent].push_back(&s);
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    // Union of the children's intervals, clipped to the parent: children
    // on several threads overlap, and each covered instant counts once.
    std::vector<std::pair<double, double>> iv;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const double lo = std::max(c->start_us, s.start_us);
        const double hi = std::min(c->end_us, s.end_us);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.name] += (s.end_us - s.start_us) - covered;
  }
  return out;
}

std::string spans_to_json(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    os << (first ? "" : ",") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"trace\":" << s.trace << "}}";
    first = false;
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Load generation.
// ---------------------------------------------------------------------------

std::vector<double> poisson_arrivals(std::uint64_t seed, double rate,
                                     std::size_t n) {
  diva::Rng rng(diva::hash_combine(seed, 0xA11E5ULL));
  std::vector<double> out;
  out.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.uniform());
    out.push_back(t);
  }
  const double scale = t > 0.0 ? static_cast<double>(n) / rate / t : 0.0;
  for (double& v : out) v *= scale;
  return out;
}

std::vector<int> request_mix(std::uint64_t seed,
                             const std::vector<double>& weights,
                             std::size_t n) {
  double total = 0.0;
  for (double w : weights) total += w;
  // Largest-remainder apportionment of n over the weights.
  std::vector<std::size_t> count(weights.size());
  std::vector<std::pair<double, std::size_t>> rest;
  std::size_t given = 0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    const double exact = static_cast<double>(n) * weights[k] / total;
    count[k] = static_cast<std::size_t>(exact);
    given += count[k];
    rest.emplace_back(exact - static_cast<double>(count[k]), k);
  }
  std::sort(rest.begin(), rest.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; given < n; ++i, ++given) {
    ++count[rest[i % rest.size()].second];
  }
  std::vector<int> out;
  out.reserve(n);
  for (std::size_t k = 0; k < count.size(); ++k) {
    out.insert(out.end(), count[k], static_cast<int>(k));
  }
  diva::Rng rng(diva::hash_combine(seed, 0x3A1CULL));
  rng.shuffle(std::span<int>(out));
  return out;
}

}  // namespace bench
