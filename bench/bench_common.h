// Shared plumbing for the experiment-reproduction benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>

#include "attack/engine.h"
#include "attack/registry.h"
#include "core/evaluation.h"
#include "core/experiment_defaults.h"
#include "core/report.h"
#include "core/zoo.h"
#include "runtime/env.h"

namespace diva::bench {

/// Builds the paper-style eval set: up to `per_class` validation images
/// per class that every listed model classifies correctly.
inline Dataset make_eval_set(const Dataset& pool,
                             const std::vector<ModelFn>& models,
                             int per_class = ExperimentDefaults::kEvalPerClass) {
  const auto idx = select_correct(models, pool, per_class);
  DIVA_CHECK(!idx.empty(), "no commonly-correct samples for eval set");
  return pool.subset(idx);
}

/// Runs one attack and scores it against (orig, adapted).
inline EvasionResult run_attack(Attack& attack, const Dataset& eval,
                                const ModelFn& orig, const ModelFn& adapted) {
  const auto t0 = std::chrono::steady_clock::now();
  const Tensor adv = attack.perturb(eval.images, eval.labels);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EvasionResult r = evaluate_evasion(orig, adapted, eval.images, adv,
                                     eval.labels);
  std::printf("    [%s: %zd images, %.1fs]\n", attack.name().c_str(),
              static_cast<std::ptrdiff_t>(eval.size()), secs);
  return r;
}

/// Local date as YYYY-MM-DD, the `date` field of bench JSON records.
inline std::string today() {
  const std::time_t t = std::time(nullptr);
  char buf[16];
  std::tm tm{};
  localtime_r(&t, &tm);
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm);
  return buf;
}

inline const char* kArchList[] = {"ResNet", "MobileNet", "DenseNet"};
inline constexpr Arch kArches[] = {Arch::kResNet, Arch::kMobileNet,
                                   Arch::kDenseNet};

}  // namespace diva::bench
