// Network workload descriptors for the hardware model.
//
// The performance/energy simulator consumes a shape-level description of the
// network (layer dimensions + per-layer spiking activity), so it can model
// paper-scale VGG-16 on CIFAR/Tiny-ImageNet exactly even though accuracy
// experiments train a scaled network. Builders exist for canonical VGG-16 at
// any input size and for any live SnnNetwork.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snn/network.h"

namespace ttfs::hw {

enum class LayerKind { kConv, kFc, kPool };

struct LayerWorkload {
  LayerKind kind = LayerKind::kConv;
  std::string name;
  // Input/output feature-map geometry (fc: h = w = 1).
  std::int64_t cin = 0, hin = 0, win = 0;
  std::int64_t cout = 0, hout = 0, wout = 0;
  std::int64_t kernel = 0, stride = 1, pad = 0;

  std::int64_t weight_count() const;
  std::int64_t in_neurons() const { return cin * hin * win; }
  std::int64_t out_neurons() const { return cout * hout * wout; }
  // Dense synaptic operations (= ANN MACs) of this layer.
  std::int64_t dense_macs() const;
};

struct NetworkWorkload {
  std::string name;
  std::vector<LayerWorkload> layers;
  // Fraction of neurons that spike, per fire phase: activity[0] is the input
  // encoding, activity[i] follows weighted layer i (pools excluded — they
  // preserve their input activity in a smaller map).
  std::vector<double> activity;

  std::int64_t total_weights() const;
  std::int64_t total_macs() const;
  std::size_t weighted_layer_count() const;
};

// Canonical VGG-16 (13 conv + 2 FC + classifier) at `image` x `image` x 3.
NetworkWorkload vgg16_workload(const std::string& name, std::int64_t image, int classes);

// Extracts the workload of a live SnnNetwork on an in_ch x image x image input,
// with the default activity profile.
NetworkWorkload workload_from_snn(const snn::SnnNetwork& net, std::int64_t in_ch,
                                  std::int64_t image, const std::string& name);

// The layer walk behind workload_from_snn, on an in_ch x in_h x in_w input,
// with no activity profile. Layers are named by kind only ("conv", "pool",
// "fc"): trace pricing walks the geometry once per image, and numbering the
// names there would cost more than pricing the layers.
NetworkWorkload snn_geometry(const snn::SnnNetwork& net, std::int64_t in_ch, std::int64_t in_h,
                             std::int64_t in_w);

// Default activity profile: input pixels fire at `input_rate`; hidden
// activity decays linearly from `early` to `late` across depth (matches the
// falling firing rates measured on our trained models — TTFS fire-once coding
// plus negative membranes keeps deep layers sparse).
std::vector<double> default_activity(std::size_t weighted_layers, double input_rate = 0.9,
                                     double early = 0.40, double late = 0.15);

}  // namespace ttfs::hw
