#include "snn/network.h"

#include <algorithm>
#include <utility>

#include "nn/functional.h"
#include "util/check.h"

namespace ttfs::snn {

double SnnRunStats::avg_firing_rate() const {
  std::int64_t spikes = 0, neurons = 0;
  for (const auto s : spikes_per_layer) spikes += s;
  for (const auto n : neurons_per_layer) neurons += n;
  return neurons == 0 ? 0.0 : static_cast<double>(spikes) / static_cast<double>(neurons);
}

std::size_t weighted_layer_count(const std::vector<SnnLayer>& layers) {
  return static_cast<std::size_t>(std::count_if(layers.begin(), layers.end(), [](const auto& l) {
    return !std::holds_alternative<SnnPool>(l);
  }));
}

Tensor dense_walk(const std::vector<SnnLayer>& layers, const Tensor& input, std::size_t stop_at,
                  const DenseActivation& activate, const PoolObserver& on_pool) {
  if (stop_at == 0) return input;
  const auto bias_of = [](const Tensor& b) { return b.empty() ? nullptr : &b; };
  Tensor x = activate(0, input);
  std::size_t k = 0;
  for (const auto& layer : layers) {
    Tensor membrane;
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      membrane = nn::conv2d_forward(x, conv->weight, bias_of(conv->bias), conv->stride, conv->pad);
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      if (x.rank() != 2) x = x.reshaped({x.dim(0), x.numel() / x.dim(0)});
      membrane = nn::linear_forward(x, fc->weight, bias_of(fc->bias));
    } else {
      // Under phi_TTFS this is earliest-spike-wins pooling: exact on decoded
      // values because the kernel is strictly decreasing in the fire step.
      const auto& pool = std::get<SnnPool>(layer);
      x = nn::maxpool_forward(x, pool.kernel, pool.stride);
      if (on_pool) on_pool(x);
      continue;
    }
    if (++k == stop_at) return membrane;
    x = activate(k, membrane);
  }
  TTFS_CHECK_MSG(false, "stop_at " << stop_at << " beyond the " << k << " weighted layers");
  return {};
}

void SnnNetwork::add_conv(Tensor weight, Tensor bias, std::int64_t stride, std::int64_t pad) {
  TTFS_CHECK(weight.rank() == 4);
  if (!bias.empty()) TTFS_CHECK(bias.numel() == weight.dim(0));
  layers_.push_back(SnnConv{std::move(weight), std::move(bias), stride, pad});
  invalidate_packs();
}

void SnnNetwork::add_fc(Tensor weight, Tensor bias) {
  TTFS_CHECK(weight.rank() == 2);
  if (!bias.empty()) TTFS_CHECK(bias.numel() == weight.dim(0));
  layers_.push_back(SnnFc{std::move(weight), std::move(bias)});
  invalidate_packs();
}

void SnnNetwork::add_pool(std::int64_t kernel, std::int64_t stride) {
  TTFS_CHECK(kernel > 0 && stride > 0);
  layers_.push_back(SnnPool{kernel, stride});
  invalidate_packs();
}

void SnnNetwork::ensure_packed() const {
  packed_.ensure([this] {
    FloatWeightPack pack;
    pack.layers.reserve(layers_.size());
    const auto identity = [](float w) { return w; };
    for (const auto& layer : layers_) {
      if (const auto* conv = std::get_if<SnnConv>(&layer)) {
        PackedConv p;
        pack_conv_weights(conv->weight, 0.0F, identity, p);
        pack.layers.emplace_back(std::move(p));
      } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
        PackedFc p;
        pack_fc_weights(fc->weight, 0.0F, identity, p);
        pack.layers.emplace_back(std::move(p));
      } else {
        pack.layers.emplace_back(std::monostate{});
      }
    }
    return pack;
  });
}

const std::vector<PackedLayer>& SnnNetwork::packed_layers() const {
  ensure_packed();
  return packed_.get().layers;
}

int SnnNetwork::latency_timesteps() const {
  return (1 + static_cast<int>(weighted_layer_count())) * kernel_.window();
}

SpikeMap SnnNetwork::encode(const Tensor& values) const {
  SpikeMap map;
  map.shape = values.shape();
  map.steps.resize(static_cast<std::size_t>(values.numel()));
  for (std::int64_t i = 0; i < values.numel(); ++i) {
    map.steps[static_cast<std::size_t>(i)] = kernel_.fire_step(values[i]);
  }
  return map;
}

namespace {

// Elementwise phi_TTFS over a membrane tensor: the fire-then-decode round trip
// of one layer's fire phase.
Tensor quantize_tensor(const Base2Kernel& kernel, const Tensor& membrane) {
  Tensor out{membrane.shape()};
  for (std::int64_t i = 0; i < membrane.numel(); ++i) {
    out[i] = static_cast<float>(kernel.quantize(membrane[i]));
  }
  return out;
}

std::int64_t count_nonzero(const Tensor& t) {
  std::int64_t n = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (t[i] != 0.0F) ++n;
  }
  return n;
}

}  // namespace

Tensor SnnNetwork::forward(const Tensor& images, SnnRunStats* stats) const {
  const std::size_t weighted = weighted_layer_count();
  TTFS_CHECK_MSG(weighted >= 1, "SNN has no output layer");
  TTFS_CHECK(images.rank() == 4 || images.rank() == 2);

  if (stats != nullptr && stats->spikes_per_layer.empty()) {
    // index 0 = input encoding; one entry per weighted hidden layer (the
    // output layer never fires). Pools reshuffle spikes but emit none anew.
    stats->spikes_per_layer.assign(weighted, 0);
    stats->neurons_per_layer.assign(weighted, 0);
  }
  if (stats != nullptr) stats->images += images.dim(0);

  // The input encoding window and every hidden fire phase: phi_TTFS. The
  // output layer does not fire; its membrane voltages are the logits.
  return dense_walk(layers_, images, weighted, [&](std::size_t k, const Tensor& membrane) {
    Tensor x = quantize_tensor(kernel_, membrane);
    if (stats != nullptr) {
      stats->spikes_per_layer[k] += count_nonzero(x);
      stats->neurons_per_layer[k] += x.numel();
    }
    return x;
  });
}

std::vector<SpikeMap> SnnNetwork::trace(const Tensor& image) const {
  const std::size_t weighted = weighted_layer_count();
  TTFS_CHECK_MSG(weighted >= 1, "SNN has no output layer");
  TTFS_CHECK(image.rank() == 3);
  std::vector<SpikeMap> maps;
  // Maps are per image: drop the batch-of-one axis from the shape.
  const auto push_map = [&](const Tensor& values) {
    maps.push_back(encode(values));
    maps.back().shape.erase(maps.back().shape.begin());
  };

  dense_walk(
      layers_, image.reshaped({1, image.dim(0), image.dim(1), image.dim(2)}), weighted,
      [&](std::size_t, const Tensor& membrane) {
        push_map(membrane);
        return quantize_tensor(kernel_, membrane);
      },
      push_map);
  return maps;
}

}  // namespace ttfs::snn
