// Model factory, composite architecture, and zoo-machinery tests.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/evaluation.h"
#include "core/zoo.h"
#include "nn/fold_bn.h"
#include "nn/init.h"
#include "nn/model_io.h"
#include "quant/qat.h"
#include "test_helpers.h"

namespace diva {
namespace {

using testing::random_tensor;

class FactoryShapes : public ::testing::TestWithParam<Arch> {};

TEST_P(FactoryShapes, AllModesProduceLogitsOfRightShape) {
  const Arch arch = GetParam();
  const Tensor x = random_tensor(Shape{2, 3, 32, 32}, 1, 0.0f, 1.0f);
  for (const NetMode mode :
       {NetMode::kFloat, NetMode::kFolded, NetMode::kQat}) {
    auto m = make_model(arch, 16, mode);
    init_parameters(*m, 7);
    m->set_training(false);
    const Tensor logits = m->forward(x);
    EXPECT_EQ(logits.shape(), (Shape{2, 16}))
        << arch_name(arch) << " mode " << static_cast<int>(mode);
  }
}

TEST_P(FactoryShapes, BackwardProducesInputGradient) {
  const Arch arch = GetParam();
  auto m = make_model(arch, 8, NetMode::kFloat);
  init_parameters(*m, 9);
  m->set_training(true);
  const Tensor x = random_tensor(Shape{2, 3, 32, 32}, 2, 0.0f, 1.0f);
  const Tensor out = m->forward(x);
  m->zero_grad();
  const Tensor dx = m->backward(Tensor(out.shape(), 1.0f));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_GT(max_abs(dx), 0.0f);
}

TEST_P(FactoryShapes, FoldTransferPreservesEvalPredictions) {
  const Arch arch = GetParam();
  auto fl = make_model(arch, 8, NetMode::kFloat);
  init_parameters(*fl, 11);
  // Populate BN running stats.
  fl->set_training(true);
  (void)fl->forward(random_tensor(Shape{16, 3, 32, 32}, 3, 0.0f, 1.0f));
  fl->set_training(false);

  auto folded = make_model(arch, 8, NetMode::kFolded);
  fold_batchnorm_into(*fl, *folded);
  folded->set_training(false);

  const Tensor x = random_tensor(Shape{4, 3, 32, 32}, 4, 0.0f, 1.0f);
  EXPECT_LT(max_abs(sub(fl->forward(x), folded->forward(x))), 2e-3f)
      << arch_name(arch);
}

TEST_P(FactoryShapes, QatCompilesToInt8AfterCalibration) {
  const Arch arch = GetParam();
  auto qat = make_model(arch, 8, NetMode::kQat);
  init_parameters(*qat, 13);
  calibrate(*qat, {random_tensor(Shape{8, 3, 32, 32}, 5, 0.0f, 1.0f)});
  ASSERT_TRUE(fully_calibrated(*qat));
  const QuantizedModel q8 = QuantizedModel::compile(*qat, Shape{3, 32, 32});
  EXPECT_GT(q8.num_ops(), 3u);
  const Tensor x = random_tensor(Shape{2, 3, 32, 32}, 6, 0.0f, 1.0f);
  const Tensor logits = q8.forward(x);
  EXPECT_EQ(logits.shape(), (Shape{2, 8}));
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, FactoryShapes,
                         ::testing::Values(Arch::kResNet, Arch::kMobileNet,
                                           Arch::kDenseNet),
                         [](const auto& info) { return arch_name(info.param); });

TEST(Factory, DigitAndFaceNets) {
  auto digit = make_digit_net(NetMode::kFloat);
  init_parameters(*digit, 1);
  digit->set_training(false);
  EXPECT_EQ(digit->forward(random_tensor(Shape{2, 1, 28, 28}, 1)).shape(),
            (Shape{2, 10}));

  auto face = make_face_net(30, NetMode::kFloat);
  init_parameters(*face, 2);
  face->set_training(false);
  EXPECT_EQ(face->forward(random_tensor(Shape{2, 3, 32, 32}, 2)).shape(),
            (Shape{2, 30}));
}

TEST(Factory, PenultimateFeaturesShape) {
  auto m = make_digit_net(NetMode::kFloat);
  init_parameters(*m, 3);
  m->set_training(false);
  const Tensor f =
      penultimate_features(*m, random_tensor(Shape{3, 1, 28, 28}, 3));
  EXPECT_EQ(f.shape(), (Shape{3, 32}));  // GAP output width
}

TEST(Factory, ParameterNamesAreUnique) {
  for (const Arch arch : {Arch::kResNet, Arch::kMobileNet, Arch::kDenseNet}) {
    auto m = make_model(arch, 16, NetMode::kQat);
    auto params = m->named_parameters();
    std::set<std::string> names;
    for (auto& np : params) {
      EXPECT_TRUE(names.insert(np.name).second)
          << "duplicate parameter name " << np.name;
    }
  }
}

TEST(Zoo, CacheRoundTripSkipsRetraining) {
  const std::string dir = ::testing::TempDir() + "/diva_zoo_test";
  std::filesystem::remove_all(dir);

  ZooConfig cfg;
  cfg.cache_dir = dir;
  cfg.verbose = false;
  // Tiny budget: this test checks the cache plumbing, not quality.
  cfg.num_classes = 4;
  cfg.train_per_class = 8;
  cfg.val_per_class = 4;
  cfg.float_epochs = 1;
  cfg.qat_epochs = 1;

  Tensor probe;
  {
    ModelZoo zoo(cfg);
    Sequential& m = zoo.original(Arch::kResNet);
    probe = m.forward(zoo.val_set().images);
  }
  EXPECT_TRUE(std::filesystem::exists(dir));
  {
    ModelZoo zoo(cfg);  // new instance must load from disk
    Sequential& m = zoo.original(Arch::kResNet);
    const Tensor again = m.forward(zoo.val_set().images);
    EXPECT_LT(max_abs(sub(probe, again)), 1e-6f);
  }
  std::filesystem::remove_all(dir);
}

TEST(Zoo, CorruptCacheFileIsRebuilt) {
  const std::string dir = ::testing::TempDir() + "/diva_zoo_corrupt_test";
  std::filesystem::remove_all(dir);

  ZooConfig cfg;
  cfg.cache_dir = dir;
  cfg.verbose = false;
  cfg.num_classes = 4;
  cfg.train_per_class = 8;
  cfg.val_per_class = 4;
  cfg.float_epochs = 1;

  Tensor fresh;
  {
    ModelZoo zoo(cfg);
    fresh = zoo.original(Arch::kResNet).forward(zoo.val_set().images);
  }
  // Exactly one cache file, and no temp file left beside it.
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    files.push_back(e.path());
  }
  ASSERT_EQ(files.size(), 1u);
  const auto full_size = std::filesystem::file_size(files[0]);
  std::filesystem::resize_file(files[0], full_size / 2);

  {
    ModelZoo zoo(cfg);  // must rebuild instead of throwing
    const Tensor rebuilt =
        zoo.original(Arch::kResNet).forward(zoo.val_set().images);
    ASSERT_EQ(rebuilt.shape(), fresh.shape());
    EXPECT_EQ(max_abs(sub(rebuilt, fresh)), 0.0f);
  }
  // The rebuild rewrote the whole file, so a third zoo loads it.
  EXPECT_EQ(std::filesystem::file_size(files[0]), full_size);
  {
    ModelZoo zoo(cfg);
    const Tensor loaded =
        zoo.original(Arch::kResNet).forward(zoo.val_set().images);
    EXPECT_EQ(max_abs(sub(loaded, fresh)), 0.0f);
  }
  std::filesystem::remove_all(dir);
}

TEST(Zoo, DatasetsAreDeterministicAndDisjointSplits) {
  ZooConfig cfg;
  cfg.verbose = false;
  cfg.num_classes = 4;
  cfg.train_per_class = 4;
  cfg.val_per_class = 4;
  cfg.surrogate_per_class = 4;
  ModelZoo zoo1(cfg), zoo2(cfg);
  EXPECT_LT(max_abs(sub(zoo1.train_set().images, zoo2.train_set().images)),
            1e-9f);
  // Train and surrogate splits share no identical image.
  const std::int64_t per = 3 * 32 * 32;
  for (std::int64_t i = 0; i < zoo1.train_set().size(); ++i) {
    for (std::int64_t j = 0; j < zoo1.surrogate_set().size(); ++j) {
      bool same = true;
      for (std::int64_t k = 0; k < per && same; ++k) {
        same = zoo1.train_set().images[i * per + k] ==
               zoo1.surrogate_set().images[j * per + k];
      }
      EXPECT_FALSE(same);
    }
  }
}

}  // namespace
}  // namespace diva
