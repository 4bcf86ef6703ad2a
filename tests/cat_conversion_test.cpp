#include <gtest/gtest.h>

#include "cat/conversion.h"
#include "cat/schedule.h"
#include "data/synthetic.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/functional.h"
#include "nn/vgg.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace ttfs::cat {
namespace {

data::LabeledData tiny_data(int classes, int image, std::int64_t count) {
  data::SyntheticSpec spec = data::syn_cifar10_spec();
  spec.classes = classes;
  spec.image = image;
  return data::generate_synthetic(spec, count, 0);
}

TEST(BnFusion, FusedConvMatchesConvPlusBn) {
  Rng rng{70};
  nn::Model m;
  m.add<nn::Conv2d>(2, 3, 3, 1, 1, /*bias=*/false, rng);
  auto& bn = m.add<nn::BatchNorm2d>(3);

  // Put BN into a non-trivial state.
  Tensor x{{4, 2, 5, 5}};
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(-1.0F, 1.0F);
  for (int i = 0; i < 10; ++i) (void)m.forward(x, /*train=*/true);
  for (std::int64_t c = 0; c < 3; ++c) {
    bn.gamma().value[c] = rng.uniform_f(0.5F, 1.5F);
    bn.beta().value[c] = rng.uniform_f(-0.3F, 0.3F);
  }

  const Tensor reference = m.forward(x, /*train=*/false);
  const auto layers = extract_fused_layers(m);
  ASSERT_EQ(layers.size(), 1U);
  const auto* conv = std::get_if<snn::SnnConv>(&layers[0]);
  ASSERT_NE(conv, nullptr);
  const Tensor fused = nn::conv2d_forward(x, conv->weight, &conv->bias, 1, 1);
  EXPECT_TRUE(fused.allclose(reference, 1e-4F));
}

TEST(Extraction, StructureOfVgg) {
  Rng rng{71};
  nn::Model m = nn::build_vgg(nn::vgg_micro_spec(4), 3, 8, rng);
  const auto layers = extract_fused_layers(m);
  // vgg_micro: conv, pool, conv, pool, fc, fc-classifier.
  ASSERT_EQ(layers.size(), 6U);
  EXPECT_TRUE(std::holds_alternative<snn::SnnConv>(layers[0]));
  EXPECT_TRUE(std::holds_alternative<snn::SnnPool>(layers[1]));
  EXPECT_TRUE(std::holds_alternative<snn::SnnConv>(layers[2]));
  EXPECT_TRUE(std::holds_alternative<snn::SnnPool>(layers[3]));
  EXPECT_TRUE(std::holds_alternative<snn::SnnFc>(layers[4]));
  EXPECT_TRUE(std::holds_alternative<snn::SnnFc>(layers[5]));
}

TEST(OutputNorm, ScalesLastWeightedLayerOnly) {
  Rng rng{72};
  nn::Model m = nn::build_vgg(nn::vgg_micro_spec(4), 3, 8, rng);
  auto layers = extract_fused_layers(m);
  const auto* last_before = std::get_if<snn::SnnFc>(&layers.back());
  const float w0 = last_before->weight[0];
  const auto* first_before = std::get_if<snn::SnnConv>(&layers.front());
  const float c0 = first_before->weight[0];

  normalize_output_layer(layers, 4.0);
  EXPECT_FLOAT_EQ(std::get_if<snn::SnnFc>(&layers.back())->weight[0], w0 / 4.0F);
  EXPECT_FLOAT_EQ(std::get_if<snn::SnnConv>(&layers.front())->weight[0], c0);
}

TEST(OutputNorm, RejectsBadScale) {
  Rng rng{73};
  nn::Model m = nn::build_vgg(nn::vgg_micro_spec(4), 3, 8, rng);
  auto layers = extract_fused_layers(m);
  EXPECT_THROW(normalize_output_layer(layers, 0.0), std::invalid_argument);
}

TEST(OutputNorm, PreservesArgmax) {
  Rng rng{74};
  nn::Model m = nn::build_vgg(nn::vgg_micro_spec(4), 3, 8, rng);
  const auto data = tiny_data(4, 8, 16);
  const snn::Base2Kernel kernel{24, 4.0, 1.0};

  auto layers_a = extract_fused_layers(m);
  snn::SnnNetwork net_a{kernel, std::move(layers_a)};
  const Tensor la = net_a.forward(data.images);

  snn::SnnNetwork net_b = convert_to_snn(m, kernel, data);  // includes normalization
  const Tensor lb = net_b.forward(data.images);
  for (std::int64_t i = 0; i < la.dim(0); ++i) {
    EXPECT_EQ(argmax_row(la, i), argmax_row(lb, i)) << "sample " << i;
  }
}

TEST(WeightNormRelu, BoundsHiddenActivations) {
  Rng rng{75};
  // A ReLU net with deliberately large weights overflows [0, 1] before
  // normalization and fits after.
  std::vector<snn::SnnLayer> layers;
  Tensor w1{{3, 1, 3, 3}};
  for (std::int64_t i = 0; i < w1.numel(); ++i) w1[i] = rng.uniform_f(-1.0F, 3.0F);
  layers.push_back(snn::SnnConv{std::move(w1), Tensor{{3}}, 1, 1});
  Tensor w2{{2, 3 * 8 * 8}};
  for (std::int64_t i = 0; i < w2.numel(); ++i) w2[i] = rng.uniform_f(-0.5F, 0.8F);
  layers.push_back(snn::SnnFc{std::move(w2), Tensor{{2}}});

  Tensor calib{{4, 1, 8, 8}};
  for (std::int64_t i = 0; i < calib.numel(); ++i) calib[i] = rng.uniform_f(0.0F, 1.0F);

  weight_normalize_relu(layers, calib, 1.0);

  // Re-run: first-layer activations must now fit within [., 1].
  const auto* conv = std::get_if<snn::SnnConv>(&layers[0]);
  const Tensor h = nn::conv2d_forward(calib, conv->weight, &conv->bias, 1, 1);
  float mx = 0.0F;
  for (std::int64_t i = 0; i < h.numel(); ++i) mx = std::max(mx, h[i]);
  EXPECT_LE(mx, 1.0F + 1e-3F);
  EXPECT_GT(mx, 0.5F);  // normalization targets the max, so it lands near 1
}

TEST(WeightNormRelu, PreservesReluNetworkArgmax) {
  Rng rng{76};
  nn::Model m = nn::build_vgg(nn::vgg_micro_spec(3), 3, 8, rng);
  const auto data = tiny_data(3, 8, 12);

  auto layers = extract_fused_layers(m);
  // ReLU reference forward before normalization.
  const auto relu_forward = [](const std::vector<snn::SnnLayer>& ls, const Tensor& images) {
    Tensor x = images;
    std::size_t weighted = 0, total = 0;
    for (const auto& l : ls) {
      if (!std::holds_alternative<snn::SnnPool>(l)) ++total;
    }
    for (const auto& l : ls) {
      if (const auto* conv = std::get_if<snn::SnnConv>(&l)) {
        x = nn::conv2d_forward(x, conv->weight, &conv->bias, conv->stride, conv->pad);
        ++weighted;
      } else if (const auto* fc = std::get_if<snn::SnnFc>(&l)) {
        if (x.rank() != 2) x = x.reshaped({x.dim(0), x.numel() / x.dim(0)});
        x = nn::linear_forward(x, fc->weight, &fc->bias);
        ++weighted;
      } else {
        const auto& p = std::get<snn::SnnPool>(l);
        x = nn::maxpool_forward(x, p.kernel, p.stride);
        continue;
      }
      if (weighted < total) {
        for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(0.0F, x[i]);
      }
    }
    return x;
  };

  const Tensor before = relu_forward(layers, data.images);
  weight_normalize_relu(layers, data.images, 1.0);
  const Tensor after = relu_forward(layers, data.images);
  for (std::int64_t i = 0; i < before.dim(0); ++i) {
    EXPECT_EQ(argmax_row(before, i), argmax_row(after, i)) << "sample " << i;
  }
}

TEST(WeightNormRelu, BiasFreeStackMatchesZeroBiases) {
  // An empty bias is "no bias" (snn::SnnConv/SnnFc): the calibration pass must
  // scale a bias-free stack exactly as the same stack with zero biases.
  const auto stack = [](bool zero_biases) {
    Rng rng{78};
    const auto bias = [&](std::int64_t n) { return zero_biases ? Tensor{{n}} : Tensor{}; };
    std::vector<snn::SnnLayer> layers;
    layers.push_back(snn::SnnConv{Tensor::uniform({3, 1, 3, 3}, rng, -1.0F, 3.0F), bias(3), 1, 1});
    layers.push_back(snn::SnnPool{2, 2});
    layers.push_back(snn::SnnFc{Tensor::uniform({4, 3 * 4 * 4}, rng, -0.5F, 0.8F), bias(4)});
    layers.push_back(snn::SnnFc{Tensor::uniform({2, 4}, rng, -0.5F, 0.8F), bias(2)});
    return layers;
  };
  Rng rng{79};
  const Tensor calib = Tensor::uniform({4, 1, 8, 8}, rng, 0.0F, 1.0F);
  for (const double percentile : {1.0, 0.99}) {
    auto bias_free = stack(false);
    auto zero_bias = stack(true);
    weight_normalize_relu(bias_free, calib, 1.0, percentile);
    weight_normalize_relu(zero_bias, calib, 1.0, percentile);
    for (std::size_t l = 0; l < bias_free.size(); ++l) {
      const Tensor* w_free = nullptr;
      const Tensor* w_zero = nullptr;
      if (const auto* conv = std::get_if<snn::SnnConv>(&bias_free[l])) {
        EXPECT_TRUE(conv->bias.empty());
        w_free = &conv->weight;
        w_zero = &std::get<snn::SnnConv>(zero_bias[l]).weight;
      } else if (const auto* fc = std::get_if<snn::SnnFc>(&bias_free[l])) {
        EXPECT_TRUE(fc->bias.empty());
        w_free = &fc->weight;
        w_zero = &std::get<snn::SnnFc>(zero_bias[l]).weight;
      } else {
        continue;
      }
      ASSERT_EQ(w_free->shape(), w_zero->shape());
      for (std::int64_t i = 0; i < w_free->numel(); ++i) {
        EXPECT_EQ((*w_free)[i], (*w_zero)[i]) << "layer " << l << " weight " << i;
      }
    }
  }
}

TEST(Conversion, MaxAbsLogitPositive) {
  Rng rng{77};
  nn::Model m = nn::build_vgg(nn::vgg_micro_spec(4), 3, 8, rng);
  const auto data = tiny_data(4, 8, 8);
  EXPECT_GT(max_abs_logit(m, data), 0.0);
}

}  // namespace
}  // namespace ttfs::cat
