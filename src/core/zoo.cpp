#include "core/zoo.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "data/synth_digits.h"
#include "data/synth_faces.h"
#include "data/synth_imagenet.h"
#include "distill/distill.h"
#include "nn/fold_bn.h"
#include "nn/init.h"
#include "nn/model_io.h"
#include "prune/prune.h"
#include "quant/qat.h"
#include "robust/robust.h"

namespace diva {

namespace {

std::string arch_key(Arch arch) {
  switch (arch) {
    case Arch::kResNet: return "resnet";
    case Arch::kMobileNet: return "mobilenet";
    case Arch::kDenseNet: return "densenet";
  }
  return "?";
}

/// A few deterministic calibration batches from a dataset.
std::vector<Tensor> calibration_batches(const Dataset& data, int batches,
                                        std::int64_t batch_size) {
  std::vector<Tensor> out;
  Rng rng(0xCA11B);
  for (int b = 0; b < batches; ++b) {
    std::vector<int> idx;
    for (std::int64_t i = 0; i < batch_size; ++i) {
      idx.push_back(static_cast<int>(rng.randint(
          static_cast<std::uint64_t>(data.size()))));
    }
    out.push_back(gather_batch(data.images, idx));
  }
  return out;
}

}  // namespace

ModelZoo::ModelZoo(ZooConfig cfg) : cfg_(std::move(cfg)) {
  std::filesystem::create_directories(cfg_.cache_dir);
}

ModelZoo::~ModelZoo() = default;

void ModelZoo::log(const std::string& msg) const {
  if (cfg_.verbose) std::printf("[zoo] %s\n", msg.c_str());
}

std::string ModelZoo::cache_path(const std::string& key) const {
  // Version + scale parameters in the filename invalidate stale caches.
  return cfg_.cache_dir + "/" + key + "_v1_c" +
         std::to_string(cfg_.num_classes) + "_t" +
         std::to_string(cfg_.train_per_class) + "_e" +
         std::to_string(cfg_.float_epochs) + ".bin";
}

bool ModelZoo::try_load(const std::string& key, Sequential& model) const {
  const std::string path = cache_path(key);
  if (!std::filesystem::exists(path)) return false;
  try {
    load_model_file(model, path);
  } catch (const Error& e) {
    // A bad file leaves the model untouched; rebuilding overwrites it.
    log("cache file " + path + " is unreadable, rebuilding: " + e.what());
    return false;
  }
  model.set_training(false);
  return true;
}

void ModelZoo::store(const std::string& key, Sequential& model) const {
  // Write a temp file beside the final path and rename it over: readers
  // (other processes sharing the cache) see the old file or the whole
  // new one, never a torn write.
  const std::string path = cache_path(key);
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  try {
    save_model_file(model, tmp);
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

// ---------------------------------------------------------------------------
// Datasets.
// ---------------------------------------------------------------------------

const Dataset& ModelZoo::train_set() {
  if (!train_) {
    SynthImageNet gen(cfg_.num_classes, cfg_.data_seed);
    train_ = gen.generate(cfg_.train_per_class, /*index_offset=*/0);
  }
  return *train_;
}

const Dataset& ModelZoo::val_set() {
  if (!val_) {
    SynthImageNet gen(cfg_.num_classes, cfg_.data_seed);
    val_ = gen.generate(cfg_.val_per_class, /*index_offset=*/100000);
  }
  return *val_;
}

const Dataset& ModelZoo::surrogate_set() {
  if (!surrogate_) {
    SynthImageNet gen(cfg_.num_classes, cfg_.data_seed);
    surrogate_ = gen.generate(cfg_.surrogate_per_class,
                              /*index_offset=*/200000);
  }
  return *surrogate_;
}

const Dataset& ModelZoo::digit_train() {
  if (!digit_train_) digit_train_ = SynthDigits(77).generate(60, 0);
  return *digit_train_;
}

const Dataset& ModelZoo::digit_val() {
  if (!digit_val_) digit_val_ = SynthDigits(77).generate(100, 100000);
  return *digit_val_;
}

const Dataset& ModelZoo::face_train() {
  if (!face_train_) {
    face_train_ = SynthFaces(cfg_.face_identities)
                      .generate(cfg_.face_train_per_class, 0);
  }
  return *face_train_;
}

const Dataset& ModelZoo::face_val() {
  if (!face_val_) {
    face_val_ = SynthFaces(cfg_.face_identities)
                    .generate(cfg_.face_val_per_class, 100000);
  }
  return *face_val_;
}

// ---------------------------------------------------------------------------
// Generic machinery.
// ---------------------------------------------------------------------------

Sequential& ModelZoo::cached(const std::string& key, NetMode mode,
                             const Factory& factory,
                             const std::function<void(Sequential&)>& build) {
  auto it = models_.find(key);
  if (it != models_.end()) return *it->second;

  auto model = factory(mode);
  if (!try_load(key, *model)) {
    log("building '" + key + "' (not cached)");
    build(*model);
    model->set_training(false);
    store(key, *model);
  } else {
    log("loaded '" + key + "' from cache");
  }
  Sequential& ref = *model;
  models_[key] = std::move(model);
  return ref;
}

Sequential& ModelZoo::adapted_qat_for(const std::string& prefix,
                                      const Factory& factory,
                                      Sequential& source, const Dataset& data,
                                      bool preserve_zeros, float lr_override) {
  return cached(prefix + "_qat", NetMode::kQat, factory, [&](Sequential& m) {
    fold_batchnorm_into(source, m);
    calibrate(m, calibration_batches(data, 4, 32));
    TrainConfig qcfg;
    qcfg.epochs = cfg_.qat_epochs;
    qcfg.lr = lr_override > 0.0f ? lr_override : cfg_.qat_lr;
    qcfg.weight_decay = 0.0f;
    qcfg.seed = 21;
    std::optional<MagnitudePruner> pruner;
    if (preserve_zeros) {
      pruner.emplace(MagnitudePruner::from_existing_zeros(m));
      qcfg.post_step = [&pruner] { pruner->apply_masks(); };
    }
    train_classifier(m, data, qcfg);
  });
}

const QuantizedModel& ModelZoo::compiled(const std::string& key,
                                         Sequential& qat,
                                         const Shape& image_shape) {
  auto it = quantized_.find(key);
  if (it != quantized_.end()) return it->second;
  auto [pos, inserted] =
      quantized_.emplace(key, QuantizedModel::compile(qat, image_shape));
  (void)inserted;
  return pos->second;
}

// ---------------------------------------------------------------------------
// ImageNet track.
// ---------------------------------------------------------------------------

Sequential& ModelZoo::original(Arch arch) {
  const std::string key = arch_key(arch) + "_orig";
  return cached(key, NetMode::kFloat,
                [&](NetMode m) { return make_model(arch, cfg_.num_classes, m); },
                [&](Sequential& m) {
                  init_parameters(m, 42 + static_cast<std::uint64_t>(arch));
                  TrainConfig cfg;
                  cfg.epochs = cfg_.float_epochs;
                  cfg.lr = 0.05f;
                  cfg.lr_decay_epochs = cfg_.float_epochs / 2;
                  cfg.seed = 7;
                  cfg.verbose = cfg_.verbose;
                  train_classifier(m, train_set(), cfg);
                });
}

Sequential& ModelZoo::adapted_qat(Arch arch) {
  Sequential& orig = original(arch);
  return adapted_qat_for(
      arch_key(arch), [&](NetMode m) { return make_model(arch, cfg_.num_classes, m); },
      orig, train_set(), /*preserve_zeros=*/false);
}

const QuantizedModel& ModelZoo::quantized(Arch arch) {
  return compiled(arch_key(arch) + "_int8", adapted_qat(arch),
                  Shape{SynthImageNet::kChannels, SynthImageNet::kHeight,
                        SynthImageNet::kWidth});
}

Sequential& ModelZoo::surrogate_original(Arch arch) {
  const std::string key = arch_key(arch) + "_surro_fp";
  return cached(
      key, NetMode::kFolded,
      [&](NetMode m) { return make_model(arch, cfg_.num_classes, m); },
      [&](Sequential& m) {
        // §4.3: reconstruct a full-precision surrogate of the original.
        // The paper initializes "using the pretrained ImageNet parameters
        // when possible or the parameters of the adapted model" — the
        // attacker CAN extract the adapted model's weights, so the
        // surrogate starts from them (dequantized via fold-transfer) and
        // is then finetuned by knowledge distillation against the
        // adapted model on the attacker's disjoint image pool.
        Sequential& teacher = adapted_qat(arch);
        fold_batchnorm_into(teacher, m);
        DistillConfig dcfg;
        dcfg.epochs = std::max(2, cfg_.distill_epochs / 2);
        dcfg.lr = 0.01f;  // gentle: refine, do not forget the init
        dcfg.verbose = cfg_.verbose;
        distill(m, fn(teacher), surrogate_set().images, dcfg);
      });
}

Sequential& ModelZoo::surrogate_adapted_qat(Arch arch) {
  const std::string key = arch_key(arch) + "_surro";
  Sequential& surro_fp = surrogate_original(arch);
  return cached(
      key + "_qat", NetMode::kQat,
      [&](NetMode m) { return make_model(arch, cfg_.num_classes, m); },
      [&](Sequential& m) {
        // §4.4: blackbox — adapt the surrogate FP model and finetune it
        // against the true adapted model's *predictions* (query access).
        fold_batchnorm_into(surro_fp, m);
        calibrate(m, calibration_batches(surrogate_set(), 4, 32));
        Dataset relabeled = surrogate_set();
        relabeled.labels = predict(fn(adapted_qat(arch)), relabeled);
        TrainConfig qcfg;
        qcfg.epochs = cfg_.qat_epochs;
        qcfg.lr = 0.001f;
        qcfg.weight_decay = 0.0f;
        qcfg.seed = 23;
        train_classifier(m, relabeled, qcfg);
      });
}

Sequential& ModelZoo::pruned(Arch arch) {
  const std::string key = arch_key(arch) + "_pruned";
  return cached(
      key, NetMode::kFloat,
      [&](NetMode m) { return make_model(arch, cfg_.num_classes, m); },
      [&](Sequential& m) {
        // Start from the trained original, ramp sparsity while
        // finetuning (Keras weight-pruning flow).
        copy_parameters(original(arch), m);
        PruneConfig pcfg;
        pcfg.target_sparsity = cfg_.prune_sparsity;
        const std::int64_t steps_per_epoch =
            (train_set().size() + 31) / 32;
        pcfg.ramp_steps = steps_per_epoch * 2;
        pcfg.update_every = 10;
        MagnitudePruner pruner(m, pcfg);
        TrainConfig tcfg;
        tcfg.epochs = 3;
        tcfg.lr = 0.01f;
        tcfg.seed = 31;
        tcfg.post_step = [&pruner] { pruner.step(); };
        train_classifier(m, train_set(), tcfg);
        pruner.prune_to(cfg_.prune_sparsity);
      });
}

Sequential& ModelZoo::pruned_qat(Arch arch) {
  Sequential& src = pruned(arch);
  return adapted_qat_for(
      arch_key(arch) + "_pruned",
      [&](NetMode m) { return make_model(arch, cfg_.num_classes, m); }, src,
      train_set(), /*preserve_zeros=*/true);
}

const QuantizedModel& ModelZoo::pruned_quantized(Arch arch) {
  return compiled(arch_key(arch) + "_pruned_int8", pruned_qat(arch),
                  Shape{SynthImageNet::kChannels, SynthImageNet::kHeight,
                        SynthImageNet::kWidth});
}

// ---------------------------------------------------------------------------
// Digit track.
// ---------------------------------------------------------------------------

Sequential& ModelZoo::digit_original() {
  return cached("digit_orig", NetMode::kFloat,
                [&](NetMode m) { return make_digit_net(m); },
                [&](Sequential& m) {
                  init_parameters(m, 4242);
                  TrainConfig cfg;
                  cfg.epochs = 10;
                  cfg.lr = 0.05f;
                  cfg.seed = 7;
                  train_classifier(m, digit_train(), cfg);
                });
}

Sequential& ModelZoo::digit_qat() {
  // The digit task converges so cleanly that the default QAT rate
  // leaves the twin nearly identical to the original; the Figure 4
  // representation study needs measurable divergence, so the digit
  // track QAT-finetunes with a higher rate.
  return adapted_qat_for("digit",
                         [&](NetMode m) { return make_digit_net(m); },
                         digit_original(), digit_train(),
                         /*preserve_zeros=*/false, /*lr_override=*/0.01f);
}

const QuantizedModel& ModelZoo::digit_quantized() {
  return compiled("digit_int8", digit_qat(),
                  Shape{SynthDigits::kChannels, SynthDigits::kHeight,
                        SynthDigits::kWidth});
}

// ---------------------------------------------------------------------------
// Face track.
// ---------------------------------------------------------------------------

Sequential& ModelZoo::face_original() {
  return cached("face_orig", NetMode::kFloat,
                [&](NetMode m) { return make_face_net(cfg_.face_identities, m); },
                [&](Sequential& m) {
                  init_parameters(m, 555);
                  TrainConfig cfg;
                  cfg.epochs = cfg_.float_epochs;
                  cfg.lr = 0.05f;
                  cfg.lr_decay_epochs = cfg_.float_epochs / 2;
                  cfg.seed = 9;
                  cfg.verbose = cfg_.verbose;
                  train_classifier(m, face_train(), cfg);
                });
}

Sequential& ModelZoo::face_qat() {
  return adapted_qat_for(
      "face", [&](NetMode m) { return make_face_net(cfg_.face_identities, m); },
      face_original(), face_train(), /*preserve_zeros=*/false);
}

const QuantizedModel& ModelZoo::face_quantized() {
  return compiled("face_int8", face_qat(),
                  Shape{SynthFaces::kChannels, SynthFaces::kHeight,
                        SynthFaces::kWidth});
}

// ---------------------------------------------------------------------------
// Robust track.
// ---------------------------------------------------------------------------

Sequential& ModelZoo::robust_original() {
  return cached("robust_orig", NetMode::kFloat,
                [&](NetMode m) { return make_model(Arch::kResNet, cfg_.num_classes, m); },
                [&](Sequential& m) {
                  init_parameters(m, 777);
                  RobustTrainConfig rcfg;
                  rcfg.train.epochs = cfg_.robust_epochs;
                  rcfg.train.lr = 0.05f;
                  rcfg.train.seed = 13;
                  rcfg.train.verbose = cfg_.verbose;
                  adversarial_train(m, train_set(), rcfg);
                });
}

Sequential& ModelZoo::robust_qat() {
  // The robust model is deliberately under-converged (adversarial
  // training is expensive); a standard-rate QAT finetune on clean data
  // would "heal" it and create an artificially divergent twin. Use a
  // near-zero rate: quantize, barely touch the weights — matching the
  // paper's §5.5 flow of quantizing the robust model as-is.
  return adapted_qat_for(
      "robust",
      [&](NetMode m) { return make_model(Arch::kResNet, cfg_.num_classes, m); },
      robust_original(), train_set(), /*preserve_zeros=*/false,
      /*lr_override=*/0.0002f);
}

const QuantizedModel& ModelZoo::robust_quantized() {
  return compiled("robust_int8", robust_qat(),
                  Shape{SynthImageNet::kChannels, SynthImageNet::kHeight,
                        SynthImageNet::kWidth});
}

// ---------------------------------------------------------------------------

ModelFn ModelZoo::fn(Sequential& m) {
  m.set_training(false);
  return [&m](const Tensor& x) { return m.forward(x); };
}

ModelFn ModelZoo::fn(const QuantizedModel& m) {
  return [&m](const Tensor& x) { return m.forward(x); };
}

}  // namespace diva
