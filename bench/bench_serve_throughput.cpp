// bench_serve_throughput — attack-as-a-service scaling sweep.
//
// Sweeps {worker processes} x {concurrent clients} x {coalescing
// window} over a loopback AttackServer and records aggregate img/s plus
// client-observed p50/p99 request latency. Every run also records a
// same-day paired baseline: the identical workload pushed through a
// single-process AttackEngine at matching thread width, in the same
// JSON file — so one file answers "what did sharding across processes
// buy over threads in one process, measured the same day on the same
// machine".
//
// The pool is an *untrained* digit-track pair (init + calibrate +
// compile, no training): serve throughput depends on arithmetic, not
// accuracy, and this keeps the bench self-contained and fast.
//
// Env knobs (see src/runtime/env.h; flags are not needed in CI):
//   DIVA_SERVE_SMOKE=1   tiny sweep for CI smoke; every served and
//                        engine point keeps sending requests until it
//                        has timed at least 0.5 s
//   DIVA_SERVE_JSON      output path (default serve_throughput.json)
//   DIVA_SERVE_STEPS     attack steps per request (default 6)
//   DIVA_SERVE_BATCH     samples per request (default 16)
//   DIVA_SERVE_REQUESTS  requests per client (default 4)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/synth_digits.h"
#include "kernels/cpu_features.h"
#include "kernels/kernel_dispatch.h"
#include "nn/init.h"
#include "quant/qat.h"
#include "runtime/env.h"
#include "serve/client.h"
#include "serve/server.h"
#include "telemetry/telemetry.h"

namespace {

using namespace diva;
using scenario::AdaptedKind;
using scenario::OriginalKind;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

struct SweepPoint {
  unsigned workers;
  unsigned clients;
  std::int64_t window_us;
};

struct Measured {
  double seconds = 0.0;
  double images_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double hist_quantile(const diva::telemetry::Snapshot& snap,
                     const std::string& name, double p) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.quantile(p);
}

double hist_mean(const diva::telemetry::Snapshot& snap,
                 const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.mean();
}

}  // namespace

int main() {
  const bool smoke = env_flag("DIVA_SERVE_SMOKE", false);
  const std::string json_path =
      env_string("DIVA_SERVE_JSON", "serve_throughput.json");
  const int steps =
      static_cast<int>(env_int_positive("DIVA_SERVE_STEPS", smoke ? 3 : 6));
  const std::int64_t batch = env_int_positive("DIVA_SERVE_BATCH", smoke ? 8 : 16);
  const int requests = static_cast<int>(
      env_int_positive("DIVA_SERVE_REQUESTS", smoke ? 2 : 4));
  // A smoke point of `requests` requests alone times about 0.05 s, and
  // the CI gate's served/engine ratio then spread from 0.5 to 1.2 across
  // runs of one build. Each point keeps going until it has timed this
  // long; the full sweep's points are long enough as they are.
  const double min_seconds = smoke ? 0.5 : 0.0;

  std::ofstream json(json_path);
  DIVA_CHECK(json.good(), "cannot open JSON output path " << json_path);

  banner(std::string("attack-serve throughput sweep") +
         (smoke ? " (smoke)" : ""));

  // Untrained digit-track pool: weights random, calibration real.
  auto original = make_digit_net(NetMode::kFloat);
  init_parameters(*original, 2024);
  auto qat = make_digit_net(NetMode::kQat);
  init_parameters(*qat, 2025);
  const SynthDigits digits;
  const Dataset calib = digits.generate(2);
  calibrate(*qat, {calib.images});
  const QuantizedModel quantized =
      QuantizedModel::compile(*qat, Shape{SynthDigits::kChannels,
                                          SynthDigits::kHeight,
                                          SynthDigits::kWidth});
  scenario::ModelPool pool;
  pool.original = original.get();
  pool.adapted_qat = qat.get();
  pool.quantized = &quantized;

  // One fixed request payload, reused by every client: the sweep varies
  // transport and scheduling, never the arithmetic per request.
  const Dataset data =
      digits.generate(static_cast<int>((batch + 9) / 10), 100);
  std::vector<int> take;
  for (int i = 0; i < batch; ++i) take.push_back(i);
  const Dataset req_set = data.subset(take);

  serve::AttackRequest proto;
  proto.attack = "pgd";
  proto.original = OriginalKind::kNone;
  proto.adapted = AdaptedKind::kInt8Ste;
  proto.spec.cfg.epsilon = 0.05f;
  proto.spec.cfg.alpha = 0.01f;
  proto.spec.cfg.steps = steps;
  proto.spec.cfg.seed = 7;
  proto.images = req_set.images;
  proto.labels = req_set.labels;

  std::vector<SweepPoint> sweep;
  const std::vector<unsigned> worker_axis = smoke ? std::vector<unsigned>{1, 2}
                                                  : std::vector<unsigned>{1, 2, 4};
  const std::vector<unsigned> client_axis =
      smoke ? std::vector<unsigned>{2} : std::vector<unsigned>{1, 4};
  const std::vector<std::int64_t> window_axis =
      smoke ? std::vector<std::int64_t>{0} : std::vector<std::int64_t>{0, 2000};
  for (unsigned w : worker_axis)
    for (unsigned c : client_axis)
      for (std::int64_t win : window_axis) sweep.push_back({w, c, win});

  const std::string date = bench::today();
  // Sharding across processes can only pay when there are cores to
  // shard onto; every JSON row records the machine width so a flat
  // curve on a small container reads as what it is (an overhead
  // measurement), not as a failed optimization.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned worker_threads = cores >= 4 ? 2 : 1;
  const std::int64_t shard_size = 4;
  // The kernel ISA tier shifts every img/s number, so rows record it
  // next to `cores` (rows from different tiers must never be compared
  // as if same-machine-same-day).
  const std::string isa = isa_tier_name(active_isa_tier());
  const std::string cpu_flags = cpu_features_summary();
  std::printf("machine: %u core(s); worker_threads=%u; isa_tier=%s (%s)\n\n",
              cores, worker_threads, isa.c_str(),
              cpu_flags.empty() ? "baseline x86-64" : cpu_flags.c_str());

  TablePrinter table({"workers", "clients", "window", "img/s", "p50 ms",
                      "p99 ms", "engine img/s @ same threads"});

  // Paired single-process baselines, one per distinct thread width:
  // the same total workload (clients x requests x batch samples, same
  // attack/steps) through AttackEngine at threads = workers x
  // worker_threads.
  std::map<unsigned, double> engine_img_s;
  auto engine_baseline = [&](unsigned workers, unsigned clients) -> double {
    const unsigned threads = workers * worker_threads;
    const auto cached = engine_img_s.find(threads);
    const std::int64_t total =
        static_cast<std::int64_t>(clients) * requests * batch;
    if (cached != engine_img_s.end()) return cached->second;
    const AttackTargets targets{
        scenario::make_original_source(pool, proto.original),
        scenario::make_adapted_source(pool, proto.adapted, {})};
    const auto attack = make_attack(proto.attack, targets, proto.spec);
    AttackEngine engine({threads, shard_size});
    const auto t0 = std::chrono::steady_clock::now();
    std::int64_t done = 0;
    double secs = 0.0;
    while (done < total || secs < min_seconds) {
      (void)engine.run(*attack, proto.images, proto.labels);
      done += batch;
      secs = seconds_since(t0);
    }
    const double img_s = static_cast<double>(done) / secs;
    engine_img_s[threads] = img_s;
    json << "{\"bench\":\"serve_throughput\",\"mode\":\"engine_baseline\""
         << ",\"date\":\"" << date << "\",\"cores\":" << cores
         << ",\"isa_tier\":\"" << isa << "\",\"cpu_flags\":\"" << cpu_flags
         << "\",\"attack\":\"" << proto.attack
         << "\",\"adapted\":\"int8-ste\",\"threads\":" << threads
         << ",\"batch\":" << batch << ",\"steps\":" << steps
         << ",\"shard_size\":" << shard_size << ",\"images\":" << done
         << ",\"seconds\":" << fmt(secs, 4)
         << ",\"images_per_sec\":" << fmt(img_s, 2) << "}\n";
    return img_s;
  };

  for (const SweepPoint& pt : sweep) {
    serve::ServeConfig cfg;
    cfg.socket_path = "/tmp/diva_bench_serve_" + std::to_string(getpid()) +
                      ".sock";
    cfg.workers = pt.workers;
    cfg.worker_threads = worker_threads;
    cfg.shard_size = shard_size;
    cfg.coalesce_window = std::chrono::microseconds(pt.window_us);
    serve::AttackServer server(pool, cfg);
    server.start();

    // Per-point server-side telemetry delta: snapshot over the wire
    // before and after the client storm, then diff — exactly what a
    // client would see, so the numbers also exercise the stats channel.
    telemetry::Snapshot stats_before;
    {
      serve::AttackClient probe(cfg.socket_path);
      stats_before = probe.stats();
    }

    std::vector<std::thread> clients;
    std::vector<std::vector<double>> latencies(pt.clients);
    std::atomic<bool> failed{false};
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < pt.clients; ++c) {
      clients.emplace_back([&, c] {
        try {
          serve::AttackClient client(cfg.socket_path);
          for (int r = 0; r < requests || seconds_since(t0) < min_seconds;
               ++r) {
            const auto r0 = std::chrono::steady_clock::now();
            serve::AttackRequest req = proto;
            req.id = 0;  // client assigns
            (void)client.run(std::move(req));
            latencies[c].push_back(seconds_since(r0) * 1e3);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client %u failed: %s\n", c, e.what());
          failed.store(true);
        }
      });
    }
    for (auto& t : clients) t.join();
    const double secs = seconds_since(t0);
    telemetry::Snapshot stats_delta;
    {
      serve::AttackClient probe(cfg.socket_path);
      stats_delta = telemetry::diff(probe.stats(), stats_before);
    }
    server.stop();
    DIVA_CHECK(!failed.load(), "a bench client failed; see stderr");

    std::vector<double> all;
    for (const auto& per : latencies) {
      all.insert(all.end(), per.begin(), per.end());
    }
    const auto sent = static_cast<std::int64_t>(all.size());
    Measured m;
    m.seconds = secs;
    m.images_per_sec = static_cast<double>(sent * batch) / secs;
    m.p50_ms = percentile(all, 0.50);
    m.p99_ms = percentile(all, 0.99);

    // Server-side view of the same point: request latency measured from
    // decode to last shard (no socket/client overhead) and how full the
    // coalescing batches actually got.
    const double server_p50_ms =
        hist_quantile(stats_delta, "serve.request_us", 0.50) / 1000.0;
    const double server_p99_ms =
        hist_quantile(stats_delta, "serve.request_us", 0.99) / 1000.0;
    const double mean_batch_jobs = hist_mean(stats_delta, "serve.batch.jobs");

    const double baseline = engine_baseline(pt.workers, pt.clients);
    json << "{\"bench\":\"serve_throughput\",\"mode\":\"telemetry\""
         << ",\"date\":\"" << date << "\",\"workers\":" << pt.workers
         << ",\"clients\":" << pt.clients
         << ",\"window_us\":" << pt.window_us
         << ",\"snapshot\":" << telemetry::to_json(stats_delta) << "}\n";
    json << "{\"bench\":\"serve_throughput\",\"mode\":\"served\""
         << ",\"date\":\"" << date << "\",\"cores\":" << cores
         << ",\"isa_tier\":\"" << isa << "\",\"cpu_flags\":\"" << cpu_flags
         << "\",\"attack\":\"" << proto.attack
         << "\",\"adapted\":\"int8-ste\",\"workers\":" << pt.workers
         << ",\"worker_threads\":" << worker_threads
         << ",\"clients\":" << pt.clients
         << ",\"window_us\":" << pt.window_us << ",\"batch\":" << batch
         << ",\"steps\":" << steps << ",\"shard_size\":" << shard_size
         << ",\"requests\":" << sent << ",\"images\":" << sent * batch
         << ",\"seconds\":" << fmt(m.seconds, 4)
         << ",\"images_per_sec\":" << fmt(m.images_per_sec, 2)
         << ",\"p50_ms\":" << fmt(m.p50_ms, 2)
         << ",\"p99_ms\":" << fmt(m.p99_ms, 2)
         << ",\"server_p50_ms\":" << fmt(server_p50_ms, 2)
         << ",\"server_p99_ms\":" << fmt(server_p99_ms, 2)
         << ",\"mean_batch_jobs\":" << fmt(mean_batch_jobs, 2)
         << ",\"engine_baseline_images_per_sec\":" << fmt(baseline, 2)
         << "}\n";
    table.add_row({std::to_string(pt.workers), std::to_string(pt.clients),
                   std::to_string(pt.window_us) + "us",
                   fmt(m.images_per_sec, 1), fmt(m.p50_ms, 1),
                   fmt(m.p99_ms, 1), fmt(baseline, 1)});
  }

  table.print();
  std::printf("\nJSON written to %s\n", json_path.c_str());
  return 0;
}
