#include "snn/network.h"

#include <algorithm>
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
  packed_dirty_ = true;
  quantized_dirty_ = true;
}

void SnnNetwork::add_fc(Tensor weight, Tensor bias) {
  TTFS_CHECK(weight.rank() == 2);
  if (!bias.empty()) TTFS_CHECK(bias.numel() == weight.dim(0));
  layers_.push_back(SnnFc{std::move(weight), std::move(bias)});
  packed_dirty_ = true;
  quantized_dirty_ = true;
}

void SnnNetwork::add_pool(std::int64_t kernel, std::int64_t stride) {
  TTFS_CHECK(kernel > 0 && stride > 0);
  layers_.push_back(SnnPool{kernel, stride});
  packed_dirty_ = true;
  quantized_dirty_ = true;
}

void SnnNetwork::ensure_packed() const {
  // Double-checked: the dirty flag is the lock-free steady-state path, the
  // mutex serializes the (rare) rebuild so concurrent const callers — e.g.
  // several servers or batch runs sharing one network — never race on packed_.
  if (!packed_dirty_.load(std::memory_order_acquire)) return;
  const util::MutexLock lock{pack_mu_};
  if (!packed_dirty_.load(std::memory_order_relaxed)) return;
  packed_.clear();
  packed_.reserve(layers_.size());
  for (const auto& layer : layers_) {
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      PackedConv p;
      p.cout = conv->weight.dim(0);
      p.cin = conv->weight.dim(1);
      p.kh = conv->weight.dim(2);
      p.kw = conv->weight.dim(3);
      p.cstride = kernels::padded(p.cout);
      const std::int64_t slots = p.cin * p.kh * p.kw;
      float* dst = p.w.ensure(slots * p.cstride);
      // Zero-fill first: the [cout, cstride) padding lanes must stay 0 so the
      // tail-free SIMD kernels only ever accumulate 0 * value into them.
      std::fill(dst, dst + slots * p.cstride, 0.0F);
      // (co, ci, ky, kx) -> slot-major: slot = kernels::conv_slot (kx
      // mirrored), then co.
      const float* src = conv->weight.data();
      for (std::int64_t co = 0; co < p.cout; ++co) {
        for (std::int64_t ci = 0; ci < p.cin; ++ci) {
          for (std::int64_t ky = 0; ky < p.kh; ++ky) {
            for (std::int64_t kx = 0; kx < p.kw; ++kx) {
              dst[kernels::conv_slot(ci, ky, kx, p.kh, p.kw) * p.cstride + co] = *src++;
            }
          }
        }
      }
      packed_.emplace_back(std::move(p));
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      PackedFc p;
      p.out = fc->weight.dim(0);
      p.in = fc->weight.dim(1);
      p.ostride = kernels::padded(p.out);
      float* dst = p.w.ensure(p.in * p.ostride);
      std::fill(dst, dst + p.in * p.ostride, 0.0F);
      // (j, i) row-major -> column-major: column i, then j.
      const float* src = fc->weight.data();
      for (std::int64_t j = 0; j < p.out; ++j) {
        for (std::int64_t i = 0; i < p.in; ++i) {
          dst[i * p.ostride + j] = *src++;
        }
      }
      packed_.emplace_back(std::move(p));
    } else {
      packed_.emplace_back(std::monostate{});
    }
  }
  packed_dirty_.store(false, std::memory_order_release);
}

// Lock-free read by protocol, not by lock: after ensure_packed() returns, the
// pack is immutable until someone dirties it, and the registry's run-pin
// (ModelRegistry::pin_for_run) guarantees no release/rebuild overlaps a
// reader. The TSan lane exercises this protocol; the annotation suppression
// is deliberate and scoped to exactly this accessor.
const std::vector<PackedLayer>& SnnNetwork::packed_layers() const
    TTFS_NO_THREAD_SAFETY_ANALYSIS {
  ensure_packed();
  return packed_;
}

std::size_t SnnNetwork::packed_bytes() const {
  const util::MutexLock lock{pack_mu_};
  if (packed_dirty_.load(std::memory_order_relaxed)) return 0;
  std::size_t bytes = 0;
  for (const PackedLayer& layer : packed_) {
    if (const auto* conv = std::get_if<PackedConv>(&layer)) {
      bytes += static_cast<std::size_t>(conv->w.size()) * sizeof(float);
    } else if (const auto* fc = std::get_if<PackedFc>(&layer)) {
      bytes += static_cast<std::size_t>(fc->w.size()) * sizeof(float);
    }
  }
  return bytes;
}

void SnnNetwork::release_packed() const {
  const util::MutexLock lock{pack_mu_};
  packed_.clear();
  packed_.shrink_to_fit();
  packed_dirty_.store(true, std::memory_order_release);
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
