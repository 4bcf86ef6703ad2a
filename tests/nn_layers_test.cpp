#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/flatten.h"
#include "nn/functional.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/pool.h"
#include "nn/serialize.h"
#include "nn/sgd.h"
#include "nn/vgg.h"
#include "util/rng.h"

namespace ttfs::nn {
namespace {

// Checks d(sum(r * layer(x)))/dx against central finite differences, and the
// same for every parameter of the layer.
void check_gradients(Layer& layer, const Tensor& x, double tol = 2e-2) {
  Rng rng{555};
  Tensor out = layer.forward(x, /*train=*/true);
  Tensor r = Tensor::uniform(out.shape(), rng, -1.0F, 1.0F);

  for (Param* p : layer.params()) p->zero_grad();
  const Tensor gx = layer.backward(r);

  const auto loss_at = [&](const Tensor& input) {
    // train=true so BatchNorm differentiates through batch statistics — the
    // same function backward() differentiates.
    Tensor y = layer.forward(input, /*train=*/true);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) acc += static_cast<double>(r[i]) * y[i];
    return acc;
  };

  // Input gradient at a sample of positions.
  const float eps = 1e-2F;
  Tensor xp = x;
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 17);
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    const float orig = xp[i];
    xp[i] = orig + eps;
    const double up = loss_at(xp);
    xp[i] = orig - eps;
    const double down = loss_at(xp);
    xp[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(gx[i], numeric, tol) << "input grad at " << i;
  }

  // Parameter gradients (forward must be re-primed with x in train mode
  // because loss_at ran eval forwards).
  for (Param* p : layer.params()) {
    for (std::int64_t i = 0; i < p->value.numel();
         i += std::max<std::int64_t>(1, p->value.numel() / 13)) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double up = loss_at(x);
      p->value[i] = orig - eps;
      const double down = loss_at(x);
      p->value[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol) << p->name << " grad at " << i;
    }
  }
}

TEST(Conv2d, ForwardKnownValues) {
  Rng rng{1};
  Conv2d conv{1, 1, 3, 1, 1, /*bias=*/true, rng};
  conv.weight().value.fill(1.0F);
  conv.bias().value.fill(0.5F);
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0F);
  Tensor y = conv.forward(x, false);
  // Center sees 9 ones, corner sees 4.
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.5F);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.5F);
}

TEST(Conv2d, GradCheck) {
  Rng rng{2};
  Conv2d conv{2, 3, 3, 1, 1, /*bias=*/true, rng};
  check_gradients(conv, Tensor::uniform({2, 2, 5, 5}, rng, -1.0F, 1.0F));
}

TEST(Conv2d, GradCheckStride2) {
  Rng rng{3};
  Conv2d conv{2, 4, 3, 2, 1, /*bias=*/false, rng};
  check_gradients(conv, Tensor::uniform({1, 2, 7, 7}, rng, -1.0F, 1.0F));
}

TEST(Conv2d, RejectsWrongChannels) {
  Rng rng{4};
  Conv2d conv{3, 4, 3, 1, 1, true, rng};
  EXPECT_THROW(conv.forward(Tensor{{1, 2, 5, 5}}, false), std::invalid_argument);
}

TEST(Conv2d, MatchesFunctionalForward) {
  Rng rng{5};
  Conv2d conv{3, 5, 3, 1, 1, true, rng};
  Tensor x = Tensor::uniform({2, 3, 6, 6}, rng, -1.0F, 1.0F);
  Tensor a = conv.forward(x, false);
  Tensor b = conv2d_forward(x, conv.weight().value, &conv.bias().value, 1, 1);
  EXPECT_TRUE(a.allclose(b, 1e-5F));
}

TEST(Linear, ForwardKnownValues) {
  Rng rng{6};
  Linear lin{2, 2, true, rng};
  lin.weight().value = Tensor{{2, 2}, {1, 2, 3, 4}};
  lin.bias().value = Tensor{{2}, {10, 20}};
  Tensor x{{1, 2}, {1, 1}};
  Tensor y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 13.0F);
  EXPECT_FLOAT_EQ(y.at(0, 1), 27.0F);
}

TEST(Linear, GradCheck) {
  Rng rng{7};
  Linear lin{6, 4, true, rng};
  check_gradients(lin, Tensor::uniform({3, 6}, rng, -1.0F, 1.0F));
}

TEST(BatchNorm, NormalizesBatchStats) {
  BatchNorm2d bn{2};
  Rng rng{8};
  Tensor x = Tensor::uniform({4, 2, 3, 3}, rng, -3.0F, 5.0F);
  Tensor y = bn.forward(x, /*train=*/true);
  // Per channel mean ~0, var ~1.
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::int64_t n = 0;
    for (std::int64_t b = 0; b < 4; ++b) {
      for (std::int64_t i = 0; i < 9; ++i) {
        const float v = y.data()[(b * 2 + c) * 9 + i];
        sum += v;
        sq += static_cast<double>(v) * v;
        ++n;
      }
    }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn{1};
  Rng rng{9};
  // Prime running stats with several training batches.
  for (int i = 0; i < 30; ++i) {
    Tensor x = Tensor::uniform({8, 1, 2, 2}, rng, 1.0F, 3.0F);
    bn.forward(x, true);
  }
  Tensor probe = Tensor::full({1, 1, 2, 2}, 2.0F);  // near the running mean
  Tensor y = bn.forward(probe, false);
  // Normalized value should be near zero (mean ~2, var ~1/3).
  EXPECT_NEAR(y[0], 0.0F, 0.5F);
}

TEST(BatchNorm, GradCheck) {
  Rng rng{10};
  BatchNorm2d bn{3};
  check_gradients(bn, Tensor::uniform({4, 3, 2, 2}, rng, -1.0F, 1.0F));
}

TEST(MaxPool, ForwardAndIndices) {
  MaxPool2d pool{2, 2};
  Tensor x{{1, 1, 2, 2}, {1, 5, 3, 2}};
  Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 5.0F);
  Tensor g{{1, 1, 1, 1}, {7.0F}};
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 7.0F);
  EXPECT_FLOAT_EQ(gx[0], 0.0F);
}

TEST(MaxPool, GradCheck) {
  Rng rng{11};
  MaxPool2d pool{2, 2};
  // Use well-separated values so FD perturbation cannot flip the argmax.
  Tensor x{{1, 1, 4, 4}};
  std::vector<float> vals{0.1F, 0.9F, 0.3F, 0.7F, 0.5F, 0.2F, 0.8F, 0.4F,
                          0.6F, 0.0F, 0.95F, 0.35F, 0.15F, 0.75F, 0.45F, 0.25F};
  for (std::int64_t i = 0; i < 16; ++i) x[i] = vals[static_cast<std::size_t>(i)];
  check_gradients(pool, x, 1e-3);
}

TEST(Activation, ReluForwardBackward) {
  ActivationLayer act{std::make_shared<ReluFn>(), ActSite::kHidden};
  Tensor x{{4}, {-1, 0, 2, -3}};
  Tensor y = act.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_FLOAT_EQ(y[2], 2.0F);
  Tensor g = Tensor::full({4}, 1.0F);
  Tensor gx = act.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0F);
  EXPECT_FLOAT_EQ(gx[2], 1.0F);
}

TEST(Activation, SwappableFn) {
  ActivationLayer act{std::make_shared<IdentityFn>(), ActSite::kInput};
  Tensor x{{2}, {-5, 5}};
  EXPECT_FLOAT_EQ(act.forward(x, false)[0], -5.0F);
  act.set_fn(std::make_shared<ReluFn>());
  EXPECT_FLOAT_EQ(act.forward(x, false)[0], 0.0F);
  EXPECT_EQ(act.site(), ActSite::kInput);
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x{{2, 3, 2, 2}};
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 12}));
  Tensor gx = flat.backward(Tensor{{2, 12}});
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Loss, SoftmaxCrossEntropyKnown) {
  // Uniform logits: loss = log(C).
  Tensor logits{{1, 4}};
  const LossResult r = softmax_cross_entropy(logits, {2});
  EXPECT_NEAR(r.loss, std::log(4.0F), 1e-5F);
  // Gradient sums to zero and is negative at the label.
  float sum = 0.0F;
  for (std::int64_t j = 0; j < 4; ++j) sum += r.grad_logits.at(0, j);
  EXPECT_NEAR(sum, 0.0F, 1e-6F);
  EXPECT_LT(r.grad_logits.at(0, 2), 0.0F);
}

TEST(Loss, GradCheck) {
  Rng rng{12};
  Tensor logits = Tensor::uniform({3, 5}, rng, -2.0F, 2.0F);
  const std::vector<std::int32_t> labels{1, 4, 0};
  const LossResult r = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3F;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits;
    lp[i] += eps;
    const float up = softmax_cross_entropy(lp, labels).loss;
    lp[i] -= 2 * eps;
    const float down = softmax_cross_entropy(lp, labels).loss;
    EXPECT_NEAR(r.grad_logits[i], (up - down) / (2 * eps), 1e-3F);
  }
}

TEST(Loss, CountsCorrect) {
  Tensor logits{{2, 3}, {5, 1, 1, 0, 0, 9}};
  EXPECT_EQ(softmax_cross_entropy(logits, {0, 2}).correct, 2);
  EXPECT_EQ(softmax_cross_entropy(logits, {1, 2}).correct, 1);
}

TEST(Loss, RejectsBadLabel) {
  Tensor logits{{1, 3}};
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::invalid_argument);
}

TEST(Sgd, StepWithoutMomentum) {
  Param p{"w", Tensor{{1}, std::vector<float>{1.0F}}};
  p.grad[0] = 0.5F;
  Sgd sgd{{0.1F, 0.0F, 0.0F}};
  sgd.step({&p});
  EXPECT_NEAR(p.value[0], 1.0F - 0.1F * 0.5F, 1e-6F);
}

TEST(Sgd, MomentumAccumulates) {
  Param p{"w", Tensor{{1}, std::vector<float>{0.0F}}};
  Sgd sgd{{1.0F, 0.5F, 0.0F}};
  p.grad[0] = 1.0F;
  sgd.step({&p});  // v=1, w=-1
  EXPECT_FLOAT_EQ(p.value[0], -1.0F);
  p.grad[0] = 1.0F;
  sgd.step({&p});  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(p.value[0], -2.5F);
}

TEST(Sgd, WeightDecayPullsToZero) {
  Param p{"w", Tensor{{1}, std::vector<float>{10.0F}}};
  Sgd sgd{{0.1F, 0.0F, 0.1F}};
  p.grad[0] = 0.0F;
  sgd.step({&p});
  EXPECT_LT(p.value[0], 10.0F);
}

TEST(MultiStepLr, Schedule) {
  MultiStepLr sched{0.1F, {10, 20}};
  EXPECT_FLOAT_EQ(sched.lr_at(0), 0.1F);
  EXPECT_FLOAT_EQ(sched.lr_at(10), 0.01F);
  EXPECT_FLOAT_EQ(sched.lr_at(25), 0.001F);
}

TEST(Model, ForwardBackwardThroughStack) {
  Rng rng{13};
  Model m;
  m.add<Linear>(4, 8, true, rng);
  m.add<ActivationLayer>(std::make_shared<ReluFn>(), ActSite::kHidden);
  m.add<Linear>(8, 3, true, rng);
  Tensor x = Tensor::uniform({2, 4}, rng, -1.0F, 1.0F);
  Tensor y = m.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 3}));
  m.zero_grad();
  m.backward(Tensor::full({2, 3}, 1.0F));
  for (Param* p : m.params()) {
    float asum = 0.0F;
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) asum += std::fabs(p->grad[i]);
    EXPECT_GT(asum, 0.0F) << p->name;
  }
}

TEST(Model, ActivationSites) {
  Rng rng{14};
  Model m = build_vgg(vgg_micro_spec(4), 1, 8, rng);
  const auto sites = m.activation_sites();
  ASSERT_FALSE(sites.empty());
  EXPECT_EQ(sites.front()->site(), ActSite::kInput);
  for (std::size_t i = 1; i < sites.size(); ++i) EXPECT_EQ(sites[i]->site(), ActSite::kHidden);
}

TEST(Vgg, SpecShapes) {
  const VggSpec v16 = vgg16_spec(10);
  int convs = 0, pools = 0;
  for (int e : v16.conv_plan) (e == kPool ? pools : convs)++;
  EXPECT_EQ(convs, 13);
  EXPECT_EQ(pools, 5);
  EXPECT_EQ(v16.fc_hidden.size(), 2U);
}

TEST(Vgg, BuildAndForward) {
  Rng rng{15};
  Model m = build_vgg(vgg_micro_spec(5), 3, 8, rng);
  Tensor x = Tensor::uniform({2, 3, 8, 8}, rng, 0.0F, 1.0F);
  Tensor y = m.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 5}));
}

TEST(Vgg, RejectsOverPooling) {
  Rng rng{16};
  EXPECT_THROW(build_vgg(vgg16_spec(10), 3, 16, rng), std::invalid_argument);
}

TEST(Serialize, RoundTrip) {
  Rng rng{17};
  Model a = build_vgg(vgg_micro_spec(3), 1, 8, rng);
  const std::string path = ::testing::TempDir() + "/ttfs_model_test.bin";
  save_model(a, path);
  EXPECT_TRUE(is_checkpoint(path));

  Rng rng2{999};
  Model b = build_vgg(vgg_micro_spec(3), 1, 8, rng2);
  load_model(b, path);
  Tensor x = Tensor::uniform({1, 1, 8, 8}, rng, 0.0F, 1.0F);
  EXPECT_TRUE(a.forward(x, false).allclose(b.forward(x, false), 1e-6F));
}

TEST(Serialize, RejectsWrongArchitecture) {
  Rng rng{18};
  Model a = build_vgg(vgg_micro_spec(3), 1, 8, rng);
  const std::string path = ::testing::TempDir() + "/ttfs_model_mismatch.bin";
  save_model(a, path);
  Model b = build_vgg(vgg_micro_spec(4), 1, 8, rng);  // different classifier
  EXPECT_THROW(load_model(b, path), std::invalid_argument);
}

TEST(Serialize, MissingFileThrows) {
  Rng rng{19};
  Model m = build_vgg(vgg_micro_spec(3), 1, 8, rng);
  EXPECT_THROW(load_model(m, "/nonexistent/path.bin"), std::invalid_argument);
  EXPECT_FALSE(is_checkpoint("/nonexistent/path.bin"));
}

TEST(Functional, MaxpoolMatchesLayer) {
  Rng rng{20};
  Tensor x = Tensor::uniform({2, 3, 6, 6}, rng, -1.0F, 1.0F);
  MaxPool2d layer{2, 2};
  EXPECT_TRUE(layer.forward(x, false).allclose(maxpool_forward(x, 2, 2)));
}

}  // namespace
}  // namespace ttfs::nn
