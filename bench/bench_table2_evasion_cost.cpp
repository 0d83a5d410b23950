// Table 2: the cost of evasion — success rate counting ONLY whether the
// adapted model was fooled (ignoring the original model), PGD vs DIVA.
//
// Paper (quantization): PGD 98.4-98.7%, DIVA 95.1-97.0% — DIVA gives up
// at most 3.6 points of raw attack power to gain evasiveness.
// §5.3 also reports that raising c to 10 recovers most of the gap.
//
// Second section: the probe-compression query-efficiency sweep — the
// derivative-free (black-box) attack on the deployed int8 artifact,
// dense SPSA vs the compressed estimators (subspace / sparse / batched
// probing), across probe budgets. Each grid point emits one JSON row
// with its telemetry query accounting, so the queries-per-evasion
// trend is diffable across PRs (tools/check_probe_efficiency gates it).
//
//   DIVA_TABLE2_SMOKE=1   downsampled sweep for CI
//   DIVA_TABLE2_JSON      sweep output path (default
//                         table2_probe_compression.json)
#include <fstream>
#include <thread>

#include "attack/probe_compression.h"
#include "bench_common.h"
#include "kernels/cpu_features.h"
#include "kernels/kernel_dispatch.h"
#include "telemetry/telemetry.h"

using namespace diva;
using namespace diva::bench;

namespace {

std::uint64_t counter_of(const telemetry::Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// One sweep point: a labeled probing configuration at one budget.
struct SweepPoint {
  const char* variant;
  FdConfig fd;
};

void run_probe_compression_sweep(ModelZoo& zoo) {
  banner("probe compression — query-efficiency sweep (black-box int8-fd)");
  const bool smoke = env_flag("DIVA_TABLE2_SMOKE", false);
  const std::string json_path =
      env_string("DIVA_TABLE2_JSON", "table2_probe_compression.json");
  std::ofstream json(json_path);
  DIVA_CHECK(json.good(), "cannot open JSON output path " << json_path);

  const std::string date = today();
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::string cpu_flags = cpu_features_summary();
  const char* tier = isa_tier_name(active_isa_tier());

  // One architecture keeps the grid paired and the wall-clock sane; the
  // estimators don't interact with the conv topology.
  const Arch arch = Arch::kResNet;
  const QuantizedModel& q8 = zoo.quantized(arch);
  const auto q8_fn = ModelZoo::fn(q8);
  const Dataset eval =
      make_eval_set(zoo.val_set(), {q8_fn}, smoke ? 1 : 2);
  const auto n = static_cast<std::int64_t>(eval.size());

  AttackConfig cfg = ExperimentDefaults::attack();
  cfg.steps = smoke ? 2 : 6;
  const std::vector<int> budgets = smoke ? std::vector<int>{4, 8}
                                         : std::vector<int>{16, 64};

  // PCA basis fit from the eval images themselves — the paper-track
  // image manifold, not synthetic directions.
  const auto pca = make_pca_subspace(eval.images, 16);
  FdConfig sub_rand, sub_pca, sparse, batch, stack;
  sub_rand.subspace_dim = 16;
  sub_pca.subspace = pca;
  sparse.sparsity = 0.25f;
  batch.batch_probes = true;
  batch.max_probe_rows = 512;
  stack.subspace = pca;
  stack.sparsity = 0.5f;
  stack.batch_probes = true;
  stack.max_probe_rows = 512;
  const SweepPoint points[] = {
      {"dense", {}},        {"sub16-rand", sub_rand}, {"sub16-pca", sub_pca},
      {"sp25", sparse},     {"batch", batch},         {"stack", stack},
  };

  std::printf("arch %s, %zd images, %d steps; budgets:",
              arch_name(arch).c_str(), static_cast<std::ptrdiff_t>(n),
              cfg.steps);
  for (const int b : budgets) std::printf(" %d", b);
  std::printf("; writing %s\n\n", json_path.c_str());

  TablePrinter table({"Variant", "Samples", "Attack-only", "Queries",
                      "Probe fwds", "Seconds"});
  for (const SweepPoint& p : points) {
    for (const int samples : budgets) {
      FdConfig fd = p.fd;
      fd.samples = samples;
      auto attack = make_attack("pgd", {nullptr, fd_source(q8, fd)},
                                {.cfg = cfg});
      const telemetry::Snapshot before = telemetry::snapshot();
      const auto t0 = std::chrono::steady_clock::now();
      const Tensor adv = attack->perturb(eval.images, eval.labels);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const telemetry::Snapshot telem =
          telemetry::diff(telemetry::snapshot(), before);
      const EvasionResult ev =
          evaluate_evasion(q8_fn, q8_fn, eval.images, adv, eval.labels);

      const std::uint64_t queries = counter_of(telem, "quant.forward.rows");
      const std::uint64_t probe_rows =
          counter_of(telem, "attack.fd.spsa_probes");
      const std::uint64_t forwards =
          counter_of(telem, "attack.fd.probe_forwards");
      const std::uint64_t dof = counter_of(telem, "attack.fd.probe_dof");

      char row[512];
      std::snprintf(
          row, sizeof(row),
          "{\"bench\":\"table2_probe_compression\",\"date\":\"%s\","
          "\"cores\":%u,\"isa_tier\":\"%s\",\"cpu_flags\":\"%s\","
          "\"variant\":\"%s\",\"label\":\"%s\",\"samples\":%d,"
          "\"steps\":%d,\"images\":%zd,\"adapted_fooled\":%d,"
          "\"attack_only_pct\":%.2f,\"deployed_queries\":%llu,"
          "\"probe_rows\":%llu,\"probe_forwards\":%llu,\"probe_dof\":%llu,"
          "\"seconds\":%.4f,\"images_per_sec\":%.2f}",
          date.c_str(), cores, tier, cpu_flags.c_str(), p.variant,
          fd_label(fd).c_str(), samples, cfg.steps,
          static_cast<std::ptrdiff_t>(n), ev.adapted_fooled,
          ev.attack_only_rate(),
          static_cast<unsigned long long>(queries),
          static_cast<unsigned long long>(probe_rows),
          static_cast<unsigned long long>(forwards),
          static_cast<unsigned long long>(dof), secs,
          secs > 0 ? static_cast<double>(n) / secs : 0.0);
      json << row << "\n";
      json.flush();

      table.add_row({std::string(p.variant), std::to_string(samples),
                     fmt(ev.attack_only_rate()) + "%",
                     std::to_string(queries), std::to_string(forwards),
                     fmt(static_cast<float>(secs))});
    }
  }
  table.print();
  std::printf(
      "\nqueries = int8 rows through the deployed artifact (telemetry\n"
      "quant.forward.rows). The compression claim: a compressed variant\n"
      "at a quarter of the probe budget matches the dense estimator's\n"
      "attack-only rate at full budget — same evasion, a fraction of the\n"
      "deployed-model queries (gated by tools/check_probe_efficiency).\n");
}

}  // namespace

int main() {
  ModelZoo zoo;
  if (env_flag("DIVA_TABLE2_SMOKE", false)) {
    // CI smoke: only the gated probe-compression sweep; the paper
    // table trains and attacks all three architectures.
    std::printf("[smoke] skipping the paper Table 2 section\n");
    run_probe_compression_sweep(zoo);
    return 0;
  }

  banner("Table 2 — evasion cost: success against the adapted model only");
  const AttackConfig cfg = ExperimentDefaults::attack();

  TablePrinter table({"Arch", "PGD attack-only", "DIVA attack-only (c=1)",
                      "DIVA attack-only (c=10)"});
  for (const Arch arch : kArches) {
    std::printf("  -- %s --\n", arch_name(arch).c_str());
    Sequential& orig = zoo.original(arch);
    Sequential& qat = zoo.adapted_qat(arch);
    const auto orig_fn = ModelZoo::fn(orig);
    const auto q8_fn = ModelZoo::fn(zoo.quantized(arch));
    const Dataset eval = make_eval_set(zoo.val_set(), {orig_fn, q8_fn});
    const AttackTargets targets{source(orig), source(qat)};

    auto pgd = make_attack("pgd", targets, {.cfg = cfg});
    const EvasionResult rp = run_attack(*pgd, eval, orig_fn, q8_fn);
    auto diva1 = make_attack("diva", targets, {.cfg = cfg, .c = 1.0f});
    const EvasionResult r1 = run_attack(*diva1, eval, orig_fn, q8_fn);
    auto diva10 = make_attack("diva", targets, {.cfg = cfg, .c = 10.0f});
    const EvasionResult r10 = run_attack(*diva10, eval, orig_fn, q8_fn);

    table.add_row({arch_name(arch), fmt(rp.attack_only_rate()) + "%",
                   fmt(r1.attack_only_rate()) + "%",
                   fmt(r10.attack_only_rate()) + "%"});
  }
  table.print();
  std::printf(
      "\npaper: PGD 98.4-98.7%%, DIVA(c=1) 95.1-97.0%% (1.7-3.6pp cheaper\n"
      "than PGD); raising c toward 10 recovers the attack-only gap at the\n"
      "price of evasiveness (§5.3). The reproduced shape: DIVA(c=10)\n"
      "approaches PGD while DIVA(c=1) trades raw attack power for evasion.\n");

  run_probe_compression_sweep(zoo);
  return 0;
}
