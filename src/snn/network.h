// TTFS spiking network (inference).
//
// Executes the converted SNN with the paper's two-phase discipline: every
// weighted layer integrates the previous layer's spikes over a T-step window,
// then encodes its membrane voltages into (at most) one spike per neuron
// during its own fire phase. Layers advance window by window (Fig. 1), so
// end-to-end latency is (1 input-encoding window + one window per weighted
// layer) * T timesteps — e.g. 17*T = 408 for VGG-16 at T = 24, matching the
// paper's Table 2.
//
// Two execution paths exist:
//  * forward()/trace() here — the conversion-math oracle: spikes are decoded
//    to their kernel levels and the integration is done with the same GEMM
//    kernels as the ANN (phi_TTFS = decode . fire). Both run dense_walk(),
//    the one conv/fc/pool pass this file also lends to the T2FSNN baseline
//    (t2fsnn.h) and the ReLU calibration (cat/conversion.h). Tests compare
//    the simulators against it; no production caller runs it.
//  * event_sim.h — the timestep- and spike-order-accurate simulator: the
//    production inference path, and the trace source for the hardware model.
// Inference runs through snn::Engine / InferenceSession (engine.h), the
// pool-parallel batch entry point over the event simulators.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "snn/kernel.h"
#include "snn/pack.h"
#include "snn/quant.h"
#include "tensor/tensor.h"

namespace ttfs::snn {

// Fire steps for every neuron of one layer, flattened in NCHW order.
// step == kNoSpike means the neuron stayed silent for the whole window.
struct SpikeMap {
  std::vector<std::int64_t> shape;  // (C, H, W) or (features)
  std::vector<int> steps;

  std::int64_t neuron_count() const { return static_cast<std::int64_t>(steps.size()); }
};

struct SnnConv {
  Tensor weight;  // (Cout, Cin, k, k)
  Tensor bias;    // (Cout), may be empty
  std::int64_t stride = 1;
  std::int64_t pad = 1;
};

struct SnnFc {
  Tensor weight;  // (out, in)
  Tensor bias;    // (out), may be empty
};

struct SnnPool {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;
};

using SnnLayer = std::variant<SnnConv, SnnFc, SnnPool>;

// Conv and fc layers in `layers` (pools carry no weights).
std::size_t weighted_layer_count(const std::vector<SnnLayer>& layers);

// The dense layer walk: the ANN's conv/fc/pool pass over `layers` on the
// GEMM kernels of nn/functional.h, with the activation between layers left
// to the caller — phi_TTFS for the oracle below, a per-layer base-e kernel
// for the T2FSNN baseline, ReLU for the calibration pass. `activate(k, x)`
// returns the operand the next layer integrates: k = 0 maps the input, k >= 1
// the membrane of hidden weighted layer k. `on_pool`, if set, sees every
// pool's output. The walk returns the membrane of weighted layer `stop_at`
// before any activation (stop_at = 0 returns the input as given); pass
// weighted_layer_count(layers) to run through the output layer.
using DenseActivation = std::function<Tensor(std::size_t k, const Tensor& x)>;
using PoolObserver = std::function<void(const Tensor& pooled)>;
Tensor dense_walk(const std::vector<SnnLayer>& layers, const Tensor& input, std::size_t stop_at,
                  const DenseActivation& activate, const PoolObserver& on_pool = {});

// The float event pack (pack.h): weights as stored, padding lanes 0.
using PackedConv = ConvPack<float>;
using PackedFc = FcPack<float>;
using FloatWeightPack = LayerPack<PackedConv, PackedFc>;
using PackedLayer = FloatWeightPack::Layer;

// Aggregate activity statistics of a forward pass (summed over the batch).
struct SnnRunStats {
  std::vector<std::int64_t> spikes_per_layer;   // index 0 = input encoding
  std::vector<std::int64_t> neurons_per_layer;  // same indexing
  std::int64_t images = 0;

  double avg_firing_rate() const;  // spikes / neurons across all layers
};

class SnnNetwork {
 public:
  explicit SnnNetwork(Base2Kernel kernel) : kernel_{kernel}, lut_{kernel_} {}
  SnnNetwork(Base2Kernel kernel, std::vector<SnnLayer> layers)
      : kernel_{kernel}, lut_{kernel_}, layers_{std::move(layers)} {}

  // Copies and moves transfer the kernel and layers; the destination's packs
  // start dirty and are rebuilt lazily (pack.h: LazyPack).

  void add_conv(Tensor weight, Tensor bias, std::int64_t stride, std::int64_t pad);
  void add_fc(Tensor weight, Tensor bias);
  void add_pool(std::int64_t kernel, std::int64_t stride);

  // Classifies a batch (N, C, H, W) -> logits (N, classes). The final weighted
  // layer does not fire; its membrane voltages are the logits (paper Sec. 3.1:
  // no activation on the output layer). Pass `stats` to collect spike counts.
  Tensor forward(const Tensor& images, SnnRunStats* stats = nullptr) const;

  // Runs one image (C, H, W) and returns the SpikeMap of every fire phase:
  // index 0 is the encoded input, then one entry per spiking layer (pools act
  // in the spike domain and produce their own map; the output layer emits
  // none). The spike-map oracle the simulators are tested against.
  std::vector<SpikeMap> trace(const Tensor& image) const;

  // Pipeline latency in timesteps: (1 + number of weighted layers) * T.
  int latency_timesteps() const;

  const Base2Kernel& kernel() const { return kernel_; }
  const std::vector<SnnLayer>& layers() const { return layers_; }
  // Mutating layers invalidates both packs; each is rebuilt lazily by its
  // next ensure (callers running their own threads over a freshly mutated
  // net must ensure once before fanning out).
  std::vector<SnnLayer>& mutable_layers() {
    invalidate_packs();
    return layers_;
  }
  std::size_t weighted_layer_count() const { return snn::weighted_layer_count(layers_); }

  // Event-path acceleration structures, built once per network (lazily, on
  // first simulator use) and kept in step with layers_:
  //  * packed_layers()[i] is the float repack of layers()[i] (monostate for
  //    pools);
  //  * quantized_pack() is the quantized path's pack (quant.h), which needs
  //    log-quantized weights (see build_quantized_pack);
  //  * threshold_lut() is the kernel's materialized level sequence.
  // Both packs follow one lifecycle (pack.h: LazyPack). ensure_packed() /
  // ensure_quantized() rebuild a pack that add_*/mutable_layers() dirtied;
  // a session calls them before fan-out so workers only ever read. They are
  // safe to call from any number of threads concurrently, so the const entry
  // points — forward, the event simulators, the serving layer — can share one
  // network across threads as long as nobody mutates layers meanwhile.
  // *_bytes() are the resident bytes (0 while unbuilt/released; the
  // quantized pack counts codes + bias registers + LUT). release_*() frees a
  // pack and marks it dirty — the model registry's cold-eviction primitive:
  // the CALLER must guarantee no thread is reading the pack concurrently
  // (the registry's run-pin protocol does).
  void ensure_packed() const;
  // Ensures the float pack, then returns it.
  const std::vector<PackedLayer>& packed_layers() const;
  std::size_t packed_bytes() const { return packed_.bytes(); }
  void release_packed() const { packed_.release(); }

  void ensure_quantized() const;
  // The resident pack; ensure_quantized must have built it (checked).
  const QuantizedWeightPack& quantized_pack() const { return quantized_.get(); }
  std::size_t quantized_bytes() const { return quantized_.bytes(); }
  void release_quantized() const { quantized_.release(); }

  const ThresholdLut& threshold_lut() const { return lut_; }

  // Encodes raw values into a SpikeMap (the input generator's job).
  SpikeMap encode(const Tensor& values) const;

 private:
  Base2Kernel kernel_;
  ThresholdLut lut_;
  std::vector<SnnLayer> layers_;
  LazyPack<FloatWeightPack> packed_;
  LazyPack<QuantizedWeightPack> quantized_;

  void invalidate_packs() {
    packed_.invalidate();
    quantized_.invalidate();
  }
};

}  // namespace ttfs::snn
