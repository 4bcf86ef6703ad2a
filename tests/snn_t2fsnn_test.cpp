#include <gtest/gtest.h>

#include "snn/t2fsnn.h"
#include "util/rng.h"

namespace ttfs::snn {
namespace {

std::vector<SnnLayer> small_stack(Rng& rng) {
  std::vector<SnnLayer> layers;
  layers.push_back(SnnConv{Tensor::uniform({4, 1, 3, 3}, rng, -0.2F, 0.3F),
                           Tensor::uniform({4}, rng, -0.05F, 0.1F), 1, 1});
  layers.push_back(SnnPool{2, 2});
  layers.push_back(SnnFc{Tensor::uniform({5, 4 * 4 * 4}, rng, -0.1F, 0.12F),
                         Tensor::uniform({5}, rng, -0.05F, 0.05F)});
  layers.push_back(SnnFc{Tensor::uniform({3, 5}, rng, -0.4F, 0.4F),
                         Tensor::uniform({3}, rng, -0.1F, 0.1F)});
  return layers;
}

TEST(T2fsnn, ConstructionAndLatency) {
  Rng rng{40};
  T2fsnnConfig cfg;
  cfg.window = 80;
  cfg.tau = 20.0;
  T2fsnnNetwork net{cfg, small_stack(rng)};
  EXPECT_EQ(net.weighted_layer_count(), 3U);
  // Early firing halves (1 + 3) * 80.
  EXPECT_EQ(net.latency_timesteps(), 160);
  T2fsnnConfig no_ef = cfg;
  no_ef.early_firing = false;
  T2fsnnNetwork net2{no_ef, small_stack(rng)};
  EXPECT_EQ(net2.latency_timesteps(), 320);
}

TEST(T2fsnn, KernelCountMatchesHiddenLayers) {
  Rng rng{41};
  T2fsnnNetwork net{T2fsnnConfig{}, small_stack(rng)};
  // Input encoder + 2 hidden fire kernels (output layer never fires).
  EXPECT_EQ(net.kernels().size(), 3U);
}

TEST(T2fsnn, ForwardShape) {
  Rng rng{42};
  T2fsnnNetwork net{T2fsnnConfig{}, small_stack(rng)};
  Tensor x = Tensor::uniform({2, 1, 8, 8}, rng, 0.0F, 1.0F);
  const Tensor logits = net.forward(x);
  EXPECT_EQ(logits.shape(), (std::vector<std::int64_t>{2, 3}));
}

TEST(T2fsnn, CodingErrorComputation) {
  const BaseEKernel k{24, 4.0, 0.0, 1.0};
  // Values exactly on the grid have zero error.
  Tensor grid{{3}, {1.0F, static_cast<float>(k.level(4)), static_cast<float>(k.level(10))}};
  EXPECT_NEAR(coding_error(k, grid), 0.0, 1e-12);
  // Off-grid values have positive error.
  Tensor off{{2}, {0.93F, 0.41F}};
  EXPECT_GT(coding_error(k, off), 0.0);
  // Non-positive values are ignored.
  Tensor neg{{2}, {-1.0F, 0.0F}};
  EXPECT_DOUBLE_EQ(coding_error(k, neg), 0.0);
}

TEST(T2fsnn, TuningReducesCodingError) {
  Rng rng{43};
  T2fsnnConfig cfg;
  cfg.window = 40;
  cfg.tau = 40.0;  // deliberately bad starting tau
  cfg.td = 0.0;
  T2fsnnNetwork net{cfg, small_stack(rng)};
  Tensor calib = Tensor::uniform({8, 1, 8, 8}, rng, 0.0F, 1.0F);

  const double before = coding_error(net.kernels()[0], calib);
  net.tune_kernels(calib, 1);
  const double after = coding_error(net.kernels()[0], calib);
  EXPECT_LE(after, before);
  EXPECT_GT(before, 0.0);
}

TEST(T2fsnn, TunedKernelsDifferPerLayer) {
  // Post-conversion optimization lands on different (td, tau) when layers see
  // different membrane distributions — the per-layer-codec hardware cost CAT
  // eliminates (Fig. 6's motivation). Force distinct distributions by scaling
  // the second weighted layer's weights far down.
  Rng rng{44};
  auto layers = small_stack(rng);
  auto* fc = std::get_if<SnnFc>(&layers[2]);
  ASSERT_NE(fc, nullptr);
  for (std::int64_t i = 0; i < fc->weight.numel(); ++i) fc->weight[i] *= 0.02F;
  for (std::int64_t i = 0; i < fc->bias.numel(); ++i) fc->bias[i] *= 0.02F;

  T2fsnnNetwork net{T2fsnnConfig{}, std::move(layers)};
  Tensor calib = Tensor::uniform({8, 1, 8, 8}, rng, 0.0F, 1.0F);
  net.tune_kernels(calib, 2);
  const auto& ks = net.kernels();
  bool any_differ = false;
  for (std::size_t i = 1; i < ks.size(); ++i) {
    if (ks[i].tau() != ks[0].tau() || ks[i].td() != ks[0].td()) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(T2fsnn, RejectsEmptyStack) {
  EXPECT_THROW(T2fsnnNetwork(T2fsnnConfig{}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace ttfs::snn
