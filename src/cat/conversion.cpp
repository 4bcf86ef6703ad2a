#include "cat/conversion.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pool.h"
#include "util/check.h"
#include "util/logging.h"

namespace ttfs::cat {
namespace {

// W'_o = W_o * g_o / sqrt(var_o + eps); b'_o = (b_o - mean_o) * g_o / sqrt(..) + beta_o.
void fuse_bn_into(Tensor& weight, Tensor& bias, nn::BatchNorm2d& bn) {
  const std::int64_t out_ch = weight.dim(0);
  TTFS_CHECK(bn.channels() == out_ch);
  const std::int64_t per_ch = weight.numel() / out_ch;
  for (std::int64_t o = 0; o < out_ch; ++o) {
    const float inv_std = 1.0F / std::sqrt(bn.running_var()[o] + bn.eps());
    const float scale = bn.gamma().value[o] * inv_std;
    for (std::int64_t i = 0; i < per_ch; ++i) weight[o * per_ch + i] *= scale;
    bias[o] = (bias[o] - bn.running_mean()[o]) * scale + bn.beta().value[o];
  }
}

Tensor copy_tensor(const Tensor& t) { return Tensor{t.shape(), t.vec()}; }

// The percentile of x's positive entries (1.0 = max), floored at 1e-6: one
// layer's lambda_l for data-based weight normalization.
double activation_scale(const Tensor& x, double percentile) {
  double scale = 0.0;
  if (percentile >= 1.0) {
    for (std::int64_t i = 0; i < x.numel(); ++i) scale = std::max(scale, static_cast<double>(x[i]));
  } else {
    std::vector<float> positive;
    positive.reserve(static_cast<std::size_t>(x.numel()));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      if (x[i] > 0.0F) positive.push_back(x[i]);
    }
    if (!positive.empty()) {
      const auto idx = static_cast<std::size_t>(
          percentile * static_cast<double>(positive.size() - 1));
      std::nth_element(positive.begin(), positive.begin() + static_cast<std::ptrdiff_t>(idx),
                       positive.end());
      scale = positive[idx];
    }
  }
  return std::max(scale, 1e-6);
}

}  // namespace

std::vector<snn::SnnLayer> extract_fused_layers(nn::Model& model) {
  std::vector<snn::SnnLayer> out;
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (auto* conv = model.layer_as<nn::Conv2d>(i)) {
      Tensor w = copy_tensor(conv->weight().value);
      Tensor b = conv->has_bias() ? copy_tensor(conv->bias().value)
                                  : Tensor{{conv->out_ch()}};
      if (i + 1 < model.size()) {
        if (auto* bn = model.layer_as<nn::BatchNorm2d>(i + 1)) fuse_bn_into(w, b, *bn);
      }
      out.push_back(snn::SnnConv{std::move(w), std::move(b), conv->stride(), conv->pad()});
    } else if (auto* linear = model.layer_as<nn::Linear>(i)) {
      Tensor w = copy_tensor(linear->weight().value);
      Tensor b = linear->has_bias() ? copy_tensor(linear->bias().value)
                                    : Tensor{{linear->out_features()}};
      out.push_back(snn::SnnFc{std::move(w), std::move(b)});
    } else if (auto* pool = model.layer_as<nn::MaxPool2d>(i)) {
      out.push_back(snn::SnnPool{pool->kernel(), pool->stride()});
    }
    // ActivationLayer, BatchNorm2d (fused above) and Flatten are dropped.
  }
  TTFS_CHECK_MSG(!out.empty(), "model has no weighted layers");
  return out;
}

void normalize_output_layer(std::vector<snn::SnnLayer>& layers, double scale) {
  TTFS_CHECK_MSG(scale > 0.0, "bad normalization scale " << scale);
  const float inv = static_cast<float>(1.0 / scale);
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    if (auto* fc = std::get_if<snn::SnnFc>(&*it)) {
      for (std::int64_t i = 0; i < fc->weight.numel(); ++i) fc->weight[i] *= inv;
      for (std::int64_t i = 0; i < fc->bias.numel(); ++i) fc->bias[i] *= inv;
      return;
    }
    if (auto* conv = std::get_if<snn::SnnConv>(&*it)) {
      for (std::int64_t i = 0; i < conv->weight.numel(); ++i) conv->weight[i] *= inv;
      for (std::int64_t i = 0; i < conv->bias.numel(); ++i) conv->bias[i] *= inv;
      return;
    }
  }
  TTFS_CHECK_MSG(false, "no weighted output layer found");
}

double max_abs_logit(nn::Model& model, const data::LabeledData& calibration) {
  const auto batches = data::make_batches(calibration, 64, nullptr);
  double best = 0.0;
  for (const auto& batch : batches) {
    const Tensor logits = model.forward(batch.images, /*train=*/false);
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      best = std::max(best, std::fabs(static_cast<double>(logits[i])));
    }
  }
  return best;
}

void weight_normalize_relu(std::vector<snn::SnnLayer>& layers, const Tensor& calibration_images,
                           double theta0, double percentile) {
  TTFS_CHECK(calibration_images.rank() == 4 && theta0 > 0.0);
  TTFS_CHECK_MSG(percentile > 0.0 && percentile <= 1.0, "percentile " << percentile);
  const std::size_t weighted = snn::weighted_layer_count(layers);
  TTFS_CHECK_MSG(weighted >= 1, "no weighted layer to normalize");

  // The dense walk with ReLU between weighted layers, recording each layer's
  // activation percentile (1.0 = max) from its membrane.
  std::vector<double> lambda;  // per weighted layer
  const Tensor logits = snn::dense_walk(
      layers, calibration_images, weighted, [&](std::size_t k, const Tensor& membrane) {
        if (k == 0) return membrane;  // the input enters as is
        lambda.push_back(activation_scale(membrane, percentile));
        Tensor x = membrane;
        for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(0.0F, x[i]);  // ReLU
        return x;
      });
  lambda.push_back(activation_scale(logits, percentile));

  // Rescale: W_l <- W_l * lambda_{l-1}/lambda_l, b_l <- b_l/lambda_l (Rueckauer
  // Eq. for data-based normalization), with lambda_0 = theta0 because the data
  // pipeline already bounds inputs to [0, theta0]. Lambdas are in the
  // *unnormalized* network's units, hence the running `prev`.
  std::size_t idx = 0;
  double prev = theta0;
  for (auto& layer : layers) {
    Tensor* w = nullptr;
    Tensor* b = nullptr;
    if (auto* conv = std::get_if<snn::SnnConv>(&layer)) {
      w = &conv->weight;
      b = &conv->bias;
    } else if (auto* fc = std::get_if<snn::SnnFc>(&layer)) {
      w = &fc->weight;
      b = &fc->bias;
    } else {
      continue;
    }
    const double cur = lambda[idx];
    const float w_scale = static_cast<float>(prev / cur);
    const float b_scale = static_cast<float>(theta0 / cur);
    for (std::int64_t i = 0; i < w->numel(); ++i) (*w)[i] *= w_scale;
    for (std::int64_t i = 0; i < b->numel(); ++i) (*b)[i] *= b_scale;
    prev = cur;
    ++idx;
  }
  TTFS_LOG_DEBUG("weight_normalize_relu scaled " << idx << " layers");
}

snn::SnnNetwork convert_to_snn(nn::Model& model, const snn::Base2Kernel& kernel,
                               const data::LabeledData& calibration) {
  std::vector<snn::SnnLayer> layers = extract_fused_layers(model);
  const double scale = max_abs_logit(model, calibration);
  if (scale > 0.0) normalize_output_layer(layers, scale);
  return snn::SnnNetwork{kernel, std::move(layers)};
}

}  // namespace ttfs::cat
