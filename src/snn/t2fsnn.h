// T2FSNN baseline (Park et al., DAC 2020 — the paper's reference [4]).
//
// Kernel-based TTFS coding with a *per-layer* base-e kernel
// eps_l(t) = exp(-(t - td_l)/tau_l) (paper Eq. 5). After converting a
// ReLU-trained, weight-normalized ANN, the per-layer (td_l, tau_l) are tuned
// by post-conversion optimization: minimize each layer's coding error
// sum (decode(fire(u)) - u)^2 over calibration membranes. The original work
// uses gradient descent on a relaxed objective; we use derivative-free
// coordinate descent on a (td, tau) grid, which reaches the same optimum
// basin for these few-parameter problems (substitution noted in DESIGN.md).
//
// The network is the CAT oracle's network with another activation: forward
// and the tuning pass run SnnNetwork's dense walk (network.h: dense_walk),
// quantizing through layer l's kernel where the oracle uses phi_TTFS.
//
// This is exactly the design point the paper's CAT removes: the tuned
// kernels differ per layer, so hardware needs a reconfigurable decoder
// (SRAM) instead of one shared LUT — the "Base" column of Fig. 6.
//
// Early Firing (T2FSNN Sec. IV-C) lets a layer start firing halfway through
// its integration window, halving pipeline latency without changing results;
// we model it in the latency accounting (Table 2's 680 vs 1360).
#pragma once

#include <vector>

#include "snn/kernel.h"
#include "snn/network.h"
#include "tensor/tensor.h"

namespace ttfs::snn {

struct T2fsnnConfig {
  int window = 80;      // T
  double tau = 20.0;    // initial tau_l for every layer
  double td = 0.0;      // initial delay td_l
  double theta0 = 1.0;
  bool early_firing = true;  // latency model only (lossless per [4])
};

class T2fsnnNetwork {
 public:
  // `layers` must already be BN-fused and weight-normalized (see
  // cat/conversion.h). One kernel is created for the input encoder plus one
  // per hidden weighted layer; the output layer reports raw membranes.
  T2fsnnNetwork(T2fsnnConfig config, std::vector<SnnLayer> layers);

  // Post-conversion optimization of every kernel's (td, tau), front to back,
  // using the given calibration images. `rounds` controls refinement passes.
  void tune_kernels(const Tensor& calibration_images, int rounds = 2);

  // Classifies a batch (N, C, H, W) -> logits.
  Tensor forward(const Tensor& images) const;

  // Pipeline latency in timesteps: (1 + #weighted layers) * T, halved by
  // early firing.
  int latency_timesteps() const;

  const T2fsnnConfig& config() const { return config_; }
  const std::vector<BaseEKernel>& kernels() const { return kernels_; }
  std::size_t weighted_layer_count() const { return snn::weighted_layer_count(layers_); }

 private:
  // The dense walk (network.h) with kernel k as the activation after weighted
  // layer k, up to the membrane of weighted layer `stop_at`: the operands
  // kernel `stop_at` must encode (stop_at == 0: the raw input images), or
  // the logits at stop_at == weighted_layer_count().
  Tensor membranes_for_kernel(const Tensor& images, std::size_t stop_at) const;

  T2fsnnConfig config_;
  std::vector<SnnLayer> layers_;
  std::vector<BaseEKernel> kernels_;  // [0] input, [i] hidden layer i
};

// Mean squared coding error of `kernel` over the positive entries of `values`
// (the objective post-conversion optimization minimizes).
double coding_error(const BaseEKernel& kernel, const Tensor& values);

}  // namespace ttfs::snn
