// bench_isa_dispatch — paired ISA-tier sweep for the kernel runtime.
//
// Measures the same three workloads at every ISA tier this process can
// execute (available_isa_tiers), switching tiers in-process with
// force_isa_tier so one invocation produces a same-day, same-machine
// paired comparison (ROADMAP's drift caveat: never compare img/s rows
// from different runs). Tiers are INTERLEAVED round by round — round r
// runs scalar, avx2, ... back to back — so slow box-level drift lands
// on every tier equally instead of biasing the last one.
//
// Workloads:
//   int8_batched_forward  batched QuantizedModel::forward (pure igemm)
//   pgd/int8-fd           SPSA probing of the int8 artifact (igemm +
//                         attack loop) — the headline DIVA-on-edge path
//   diva/sgemm            DIVA joint attack on float original + QAT
//                         twin (pure sgemm fwd/bwd)
//
// The pool is untrained (init + calibrate + compile): img/s depends on
// arithmetic, not accuracy. One JSON line per (mode, tier, round) goes
// to DIVA_ISA_BENCH_JSON (default isa_dispatch.json).
//
// Env knobs (src/runtime/env.h):
//   DIVA_ISA_BENCH_SMOKE=1   one round, smaller workloads (CI smoke)
//   DIVA_ISA_BENCH_JSON      output path
//   DIVA_ISA_BENCH_ROUNDS    interleaved rounds (default 3)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "attack/engine.h"
#include "attack/registry.h"
#include "bench_common.h"
#include "data/synth_digits.h"
#include "kernels/cpu_features.h"
#include "kernels/kernel_dispatch.h"
#include "nn/init.h"
#include "quant/qat.h"
#include "runtime/env.h"

namespace {

using namespace diva;

struct Workload {
  const char* mode;
  std::int64_t images;                 // per timed call
  std::function<void()> run;           // one timed call
};

}  // namespace

int main() {
  const bool smoke = env_flag("DIVA_ISA_BENCH_SMOKE", false);
  const std::string json_path =
      env_string("DIVA_ISA_BENCH_JSON", "isa_dispatch.json");
  const int rounds =
      static_cast<int>(env_int_positive("DIVA_ISA_BENCH_ROUNDS", smoke ? 1 : 3));

  std::ofstream json(json_path);
  DIVA_CHECK(json.good(), "cannot open JSON output path " << json_path);

  banner(std::string("kernel ISA dispatch sweep") + (smoke ? " (smoke)" : ""));
  const std::string date = bench::today();
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::string cpu_flags = cpu_features_summary();
  const std::vector<IsaTier> tiers = available_isa_tiers();
  const IsaTier startup_tier = active_isa_tier();
  std::printf("machine: %u core(s); cpu: %s\nstartup isa_tier: %s; "
              "sweeping %zu tier(s), %d round(s)\n\n",
              cores, cpu_flags.empty() ? "baseline x86-64" : cpu_flags.c_str(),
              isa_tier_name(startup_tier), tiers.size(), rounds);

  // Untrained digit-track pool (weights random, calibration real).
  auto original = make_digit_net(NetMode::kFloat);
  init_parameters(*original, 41);
  auto qat = make_digit_net(NetMode::kQat);
  init_parameters(*qat, 42);
  const SynthDigits digits;
  const Dataset calib = digits.generate(2);
  calibrate(*qat, {calib.images});
  const QuantizedModel quantized =
      QuantizedModel::compile(*qat, Shape{SynthDigits::kChannels,
                                          SynthDigits::kHeight,
                                          SynthDigits::kWidth});

  const std::int64_t fwd_batch = smoke ? 32 : 64;
  const std::int64_t atk_batch = smoke ? 8 : 16;
  const int atk_steps = smoke ? 2 : 4;
  const int fd_samples = smoke ? 8 : 16;
  const int fwd_reps = smoke ? 4 : 16;

  const Dataset fwd_set =
      digits.generate(static_cast<int>((fwd_batch + 9) / 10), 500);
  std::vector<int> fwd_take;
  for (std::int64_t i = 0; i < fwd_batch; ++i)
    fwd_take.push_back(static_cast<int>(i));
  const Tensor fwd_x = fwd_set.subset(fwd_take).images;

  const Dataset atk_set =
      digits.generate(static_cast<int>((atk_batch + 9) / 10), 900);
  std::vector<int> atk_take;
  for (std::int64_t i = 0; i < atk_batch; ++i)
    atk_take.push_back(static_cast<int>(i));
  const Dataset atk = atk_set.subset(atk_take);

  AttackConfig acfg;
  acfg.epsilon = 0.05f;
  acfg.alpha = 0.01f;
  acfg.steps = atk_steps;
  acfg.seed = 7;

  auto fd_pgd = make_attack(
      "pgd", {nullptr, fd_source(quantized, {.samples = fd_samples})},
      {.cfg = acfg});
  auto diva_atk = make_attack(
      "diva", {source(*original), source(*qat)}, {.cfg = acfg, .c = 1.0f});
  const AttackEngine engine({.threads = 1, .shard_size = 4});

  const std::vector<Workload> workloads = {
      {"int8_batched_forward", fwd_batch * fwd_reps,
       [&] {
         for (int i = 0; i < fwd_reps; ++i) (void)quantized.forward(fwd_x);
       }},
      {"pgd/int8-fd", atk_batch,
       [&] { (void)engine.run(*fd_pgd, atk.images, atk.labels); }},
      {"diva/sgemm", atk_batch,
       [&] { (void)engine.run(*diva_atk, atk.images, atk.labels); }},
  };

  TablePrinter table({"round", "isa_tier", "mode", "seconds", "img/s"});
  for (int round = 0; round < rounds; ++round) {
    for (const IsaTier tier : tiers) {
      force_isa_tier(tier);
      for (const Workload& w : workloads) {
        w.run();  // warm-up: packs buffers, faults pages, primes caches
        const auto t0 = std::chrono::steady_clock::now();
        w.run();
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        const double img_s = static_cast<double>(w.images) / secs;
        table.add_row({std::to_string(round), isa_tier_name(tier), w.mode,
                       fmt(secs, 4), fmt(img_s, 1)});
        json << "{\"bench\":\"isa_dispatch\",\"date\":\"" << date
             << "\",\"cores\":" << cores << ",\"isa_tier\":\""
             << isa_tier_name(tier) << "\",\"cpu_flags\":\"" << cpu_flags
             << "\",\"mode\":\"" << w.mode << "\",\"round\":" << round
             << ",\"images\":" << w.images << ",\"seconds\":" << fmt(secs, 4)
             << ",\"images_per_sec\":" << fmt(img_s, 1) << "}\n";
        json.flush();
      }
    }
  }
  force_isa_tier(startup_tier);

  std::printf("\n");
  table.print();
  std::printf("\nwrote JSON rows to %s\n", json_path.c_str());
  return 0;
}
