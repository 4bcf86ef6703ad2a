#include "snn/network.h"

#include <utility>

#include "nn/functional.h"
#include "util/check.h"

namespace ttfs::snn {

std::int64_t SpikeMap::spike_count() const {
  std::int64_t n = 0;
  for (const int s : steps) {
    if (s != kNoSpike) ++n;
  }
  return n;
}

double SnnRunStats::avg_firing_rate() const {
  std::int64_t spikes = 0, neurons = 0;
  for (const auto s : spikes_per_layer) spikes += s;
  for (const auto n : neurons_per_layer) neurons += n;
  return neurons == 0 ? 0.0 : static_cast<double>(spikes) / static_cast<double>(neurons);
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

std::size_t SnnNetwork::weighted_layer_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    if (!std::holds_alternative<SnnPool>(l)) ++n;
  }
  return n;
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
  TTFS_CHECK_MSG(!layers_.empty(), "empty SNN");
  TTFS_CHECK(images.rank() == 4 || images.rank() == 2);

  const std::size_t weighted = weighted_layer_count();
  if (stats != nullptr && stats->spikes_per_layer.empty()) {
    // index 0 = input encoding; one entry per weighted hidden layer (the
    // output layer never fires). Pools reshuffle spikes but emit none anew.
    stats->spikes_per_layer.assign(weighted, 0);
    stats->neurons_per_layer.assign(weighted, 0);
  }
  if (stats != nullptr) stats->images += images.dim(0);

  // Input encoding window: present the image as spikes.
  Tensor x = quantize_tensor(kernel_, images);
  std::size_t stat_idx = 0;
  if (stats != nullptr) {
    stats->spikes_per_layer[stat_idx] += count_nonzero(x);
    stats->neurons_per_layer[stat_idx] += x.numel();
  }

  std::size_t weighted_seen = 0;
  for (const auto& layer : layers_) {
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const Tensor* bias = conv->bias.empty() ? nullptr : &conv->bias;
      Tensor membrane = nn::conv2d_forward(x, conv->weight, bias, conv->stride, conv->pad);
      ++weighted_seen;
      if (weighted_seen == weighted) return membrane;  // output layer: logits
      x = quantize_tensor(kernel_, membrane);
      ++stat_idx;
      if (stats != nullptr) {
        stats->spikes_per_layer[stat_idx] += count_nonzero(x);
        stats->neurons_per_layer[stat_idx] += x.numel();
      }
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      Tensor flat = x.rank() == 2 ? x : x.reshaped({x.dim(0), x.numel() / x.dim(0)});
      const Tensor* bias = fc->bias.empty() ? nullptr : &fc->bias;
      Tensor membrane = nn::linear_forward(flat, fc->weight, bias);
      ++weighted_seen;
      if (weighted_seen == weighted) return membrane;
      x = quantize_tensor(kernel_, membrane);
      ++stat_idx;
      if (stats != nullptr) {
        stats->spikes_per_layer[stat_idx] += count_nonzero(x);
        stats->neurons_per_layer[stat_idx] += x.numel();
      }
    } else {
      const auto& pool = std::get<SnnPool>(layer);
      // Earliest-spike-wins max pooling: exact on decoded values because the
      // kernel is strictly decreasing in the fire step.
      x = nn::maxpool_forward(x, pool.kernel, pool.stride);
    }
  }
  TTFS_CHECK_MSG(false, "SNN has no output layer");
  return {};
}

std::vector<SpikeMap> SnnNetwork::trace(const Tensor& image) const {
  TTFS_CHECK(image.rank() == 3);
  std::vector<SpikeMap> maps;

  Tensor x{{1, image.dim(0), image.dim(1), image.dim(2)},
           std::vector<float>(image.vec())};
  SpikeMap input_map = encode(x.reshaped({image.dim(0), image.dim(1), image.dim(2)}));
  x = quantize_tensor(kernel_, x);
  maps.push_back(std::move(input_map));

  const std::size_t weighted = weighted_layer_count();
  std::size_t weighted_seen = 0;
  for (const auto& layer : layers_) {
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const Tensor* bias = conv->bias.empty() ? nullptr : &conv->bias;
      Tensor membrane = nn::conv2d_forward(x, conv->weight, bias, conv->stride, conv->pad);
      ++weighted_seen;
      if (weighted_seen == weighted) break;
      SpikeMap m = encode(membrane.reshaped(
          {membrane.dim(1), membrane.dim(2), membrane.dim(3)}));
      x = quantize_tensor(kernel_, membrane);
      maps.push_back(std::move(m));
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      Tensor flat = x.rank() == 2 ? x : x.reshaped({x.dim(0), x.numel() / x.dim(0)});
      const Tensor* bias = fc->bias.empty() ? nullptr : &fc->bias;
      Tensor membrane = nn::linear_forward(flat, fc->weight, bias);
      ++weighted_seen;
      if (weighted_seen == weighted) break;
      SpikeMap m = encode(membrane.reshaped({membrane.dim(1)}));
      x = quantize_tensor(kernel_, membrane);
      maps.push_back(std::move(m));
    } else {
      const auto& pool = std::get<SnnPool>(layer);
      x = nn::maxpool_forward(x, pool.kernel, pool.stride);
      SpikeMap m = encode(x.reshaped({x.dim(1), x.dim(2), x.dim(3)}));
      maps.push_back(std::move(m));
    }
  }
  return maps;
}

}  // namespace ttfs::snn
