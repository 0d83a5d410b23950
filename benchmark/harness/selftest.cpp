// Self-tests of the harness primitives (diva_bench --self-test).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace bench {
namespace {

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failed;
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  expect(near(quantile(v, 0.5), 50.5), "median of 1..100 is 50.5");
  expect(near(quantile(v, 0.9), 90.1), "p90 of 1..100 interpolates to 90.1");
  expect(near(quantile(v, 0.0), 1.0) && near(quantile(v, 1.0), 100.0),
         "p0/p100 are the extremes");
  expect(near(quantile({}, 0.5), 0.0), "empty sample gives 0");
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "median of three");
  expect(tail_percentile(19) == 0.0, "n=19: no percentile has 10 beyond");
  expect(tail_percentile(20) == 50.0, "n=20: median only");
  expect(tail_percentile(99) == 50.0, "n=99: p90 has 9.9 beyond");
  expect(tail_percentile(100) == 90.0, "n=100: p90");
  expect(tail_percentile(1000) == 99.0, "n=1000: p99");
  expect(tail_percentile(10000) == 99.9, "n=10000: p99.9");
}

void test_wait_share() {
  // Key a costs 1 ms alone and 2 ms at N threads; key b 10 and 20. Half
  // of every call is waiting, whatever the mix of calls per pass.
  const CallMs at_n = {{"a", {2, 2, 2, 2}}, {"b", {20}}};
  const CallMs at_1 = {{"a", {1}}, {"b", {10, 10, 10}}};
  const auto w = wait_share(at_n, at_1);
  expect(w && near(*w, 0.5), "wait share compares each key with itself");
  // Pooled means would give 1 - 7.75/5.6: the mix, not the wait.
  expect(!wait_share(at_n, {{"a", {1}}}),
         "a key missing from the one-thread pass gives no figure");
  expect(!wait_share(at_n, {{"a", {1}}, {"c", {10}}}),
         "another key in the one-thread pass gives no figure");
  expect(!wait_share({}, {}), "no calls gives no figure");
}

SpanRecord span(const char* name, std::int64_t id, std::int64_t parent,
                double start, double end) {
  SpanRecord s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

void test_self_time() {
  // batch [0,100] with two overlapping children on different threads
  // ([10,50] and [30,70]) and one child [90,120] that outlives it; the
  // first child has a grandchild [20,25].
  const std::vector<SpanRecord> spans = {
      span("batch", 1, 0, 0, 100),     span("grad", 2, 1, 10, 50),
      span("grad", 3, 1, 30, 70),      span("late", 4, 1, 90, 120),
      span("quant", 5, 2, 20, 25),
  };
  const auto self = self_time_us(spans);
  expect(near(self.at("batch"), 100 - 60 - 10),
         "parent self = 100 - union(children)");
  expect(near(self.at("grad"), (40 - 5) + 40),
         "grad self sums both spans minus grandchild");
  expect(near(self.at("quant"), 5), "leaf self = duration");
  expect(near(self.at("late"), 30), "child self is its full duration");

  SpanRecorder& rec = SpanRecorder::get();
  rec.set_enabled(true);
  rec.set_context(7, 0);
  {
    Span outer("outer");
    Span inner("inner");
  }
  rec.set_enabled(false);
  const auto got = rec.take();
  bool linked = got.size() == 2;
  if (linked) {
    const SpanRecord& in = got[0].name == "inner" ? got[0] : got[1];
    const SpanRecord& out = got[0].name == "inner" ? got[1] : got[0];
    linked = in.parent == out.id && out.parent == 0 && in.trace == 7 &&
             out.trace == 7 && in.end_us <= out.end_us;
  }
  expect(linked, "recorder links nested spans and stamps the trace id");
  rec.set_context(0, 0);
}

void test_schedule() {
  const auto a = poisson_arrivals(42, 10.0, 2000);
  const auto b = poisson_arrivals(42, 10.0, 2000);
  const auto c = poisson_arrivals(43, 10.0, 2000);
  expect(a == b, "arrivals are deterministic in the seed");
  expect(a != c, "another seed gives another schedule");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  expect(increasing, "arrival times increase");
  expect(near(a.back(), 200.0, 1e-6), "last of n arrivals is at n / rate");
  double max_gap = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    max_gap = std::max(max_gap, a[i] - a[i - 1]);
  }
  expect(max_gap > 0.3, "gaps stay exponential (some exceed 3x the mean)");

  const std::vector<double> w = {0.4, 0.4, 0.2};
  const auto m = request_mix(42, w, 5000);
  expect(m == request_mix(42, w, 5000),
         "request mix is deterministic in the seed");
  expect(m != request_mix(43, w, 5000), "another seed gives another mix");
  int counts[3] = {0, 0, 0};
  for (int k : m) ++counts[k];
  expect(counts[0] == 2000 && counts[1] == 2000 && counts[2] == 1000,
         "mix has the exact proportions of its weights");
  const auto odd = request_mix(7, w, 7);
  int odd_counts[3] = {0, 0, 0};
  for (int k : odd) ++odd_counts[k];
  expect(odd_counts[0] == 3 && odd_counts[1] == 3 && odd_counts[2] == 1,
         "largest remainder rounds 2.8/2.8/1.4 to 3/3/1");
}

}  // namespace

int run_selftest() {
  test_percentiles();
  test_wait_share();
  test_self_time();
  test_schedule();
  std::printf("%d failed\n", g_failed);
  return g_failed;
}

}  // namespace bench
