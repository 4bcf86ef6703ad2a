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

// conv -> pool -> fc -> fc without biases, or with explicit all-zero ones.
std::vector<SnnLayer> bias_free_stack(bool zero_biases) {
  Rng rng{45};
  const auto bias = [&](std::int64_t n) { return zero_biases ? Tensor{{n}} : Tensor{}; };
  std::vector<SnnLayer> layers;
  layers.push_back(SnnConv{Tensor::uniform({4, 1, 3, 3}, rng, -0.2F, 0.3F), bias(4), 1, 1});
  layers.push_back(SnnPool{2, 2});
  layers.push_back(SnnFc{Tensor::uniform({5, 4 * 4 * 4}, rng, -0.1F, 0.12F), bias(5)});
  layers.push_back(SnnFc{Tensor::uniform({3, 5}, rng, -0.4F, 0.4F), bias(3)});
  return layers;
}

void expect_same_values(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(T2fsnn, BiasFreeStackMatchesZeroBiases) {
  // "May be empty" biases mean "no bias": every dense pass must treat an
  // empty bias exactly like a zero one (and never read from it).
  Rng rng{46};
  const Tensor x = Tensor::uniform({3, 1, 8, 8}, rng, 0.0F, 1.0F);

  const SnnNetwork oracle_free{Base2Kernel{24, 4.0, 1.0}, bias_free_stack(false)};
  const SnnNetwork oracle_zero{Base2Kernel{24, 4.0, 1.0}, bias_free_stack(true)};
  expect_same_values(oracle_free.forward(x), oracle_zero.forward(x));

  T2fsnnNetwork t2_free{T2fsnnConfig{}, bias_free_stack(false)};
  T2fsnnNetwork t2_zero{T2fsnnConfig{}, bias_free_stack(true)};
  expect_same_values(t2_free.forward(x), t2_zero.forward(x));
  t2_free.tune_kernels(x, 1);
  t2_zero.tune_kernels(x, 1);
  for (std::size_t k = 0; k < t2_free.kernels().size(); ++k) {
    EXPECT_EQ(t2_free.kernels()[k].td(), t2_zero.kernels()[k].td()) << k;
    EXPECT_EQ(t2_free.kernels()[k].tau(), t2_zero.kernels()[k].tau()) << k;
  }
  expect_same_values(t2_free.forward(x), t2_zero.forward(x));
}

TEST(T2fsnn, RejectsEmptyStack) {
  EXPECT_THROW(T2fsnnNetwork(T2fsnnConfig{}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace ttfs::snn
