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
//  * forward()/trace() here — the fast layer-sequential path: spikes are
//    decoded to their kernel levels and the integration is done with the same
//    GEMM kernels as the ANN. Bit-identical to the event path by construction.
//  * event_sim.h — a timestep- and spike-order-accurate simulator used to
//    validate this path and to drive the hardware model.
// Both (plus the frozen reference simulator) are reachable uniformly through
// snn::Engine / InferenceSession (engine.h), the pool-parallel batch entry
// point.
#pragma once

#include <atomic>
#include <cstdint>
#include <variant>
#include <vector>

#include "snn/kernel.h"
#include "snn/quant.h"
#include "snn/simd.h"
#include "tensor/tensor.h"
#include "util/thread_annotations.h"

namespace ttfs::snn {

// Fire steps for every neuron of one layer, flattened in NCHW order.
// step == kNoSpike means the neuron stayed silent for the whole window.
struct SpikeMap {
  std::vector<std::int64_t> shape;  // (C, H, W) or (features)
  std::vector<int> steps;

  std::int64_t neuron_count() const { return static_cast<std::int64_t>(steps.size()); }
  std::int64_t spike_count() const;
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

// Event-path weight repacks (see event_sim.h). The canonical (Cout, Cin, k, k)
// and (out, in) tensors walk output channels at the largest stride, so the
// event simulator's inner loop — "stream this input's weight vector over all
// outputs" — was a strided gather. The packs store the same values
// output-contiguous so each incoming spike performs contiguous vector adds:
//  * conv: slot-major — w[((ci*kh + ky)*kw + kx) * cstride + co]
//  * fc:   column-major — w[i * ostride + j]
// Output spans are padded to the kernel layer's lane width (simd.h: cstride =
// padded(cout), ostride = padded(out); padding weights are zero and never
// read back) and the storage is 64-byte aligned, so the SIMD kernels run with
// no tail loop and no cache-line splits. The padded layout is identical in
// SIMD and scalar builds. Packs are move-only (AlignedBuffer storage).
struct PackedConv {
  std::int64_t cout = 0, cin = 0, kh = 0, kw = 0;
  std::int64_t cstride = 0;  // padded(cout): stride between weight slots
  kernels::AlignedBuffer<float> w;  // cin*kh*kw slots of cstride floats
};

struct PackedFc {
  std::int64_t out = 0, in = 0;
  std::int64_t ostride = 0;  // padded(out): stride between columns
  kernels::AlignedBuffer<float> w;  // in columns of ostride floats
};

// monostate = layer with no weights (pool).
using PackedLayer = std::variant<std::monostate, PackedConv, PackedFc>;

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

  // Copies/moves transfer the kernel and layers only; the destination's
  // event-path pack starts dirty and is rebuilt lazily. (Spelled out because
  // the pack mutex is neither copyable nor movable.)
  SnnNetwork(const SnnNetwork& other)
      : kernel_{other.kernel_}, lut_{other.lut_}, layers_{other.layers_} {}
  SnnNetwork(SnnNetwork&& other) noexcept
      : kernel_{other.kernel_}, lut_{std::move(other.lut_)}, layers_{std::move(other.layers_)} {}
  // Assignment takes the destination's own pack lock before dropping the
  // resident packs: unlike construction/destruction, operator= can race a
  // concurrent ensure_packed() on `this` (the analysis exempts only
  // ctors/dtors, and rightly so here).
  SnnNetwork& operator=(const SnnNetwork& other) {
    if (this != &other) {
      kernel_ = other.kernel_;
      lut_ = other.lut_;
      layers_ = other.layers_;
      const util::MutexLock lock{pack_mu_};
      packed_.clear();
      packed_dirty_.store(true, std::memory_order_release);
      quantized_ = QuantizedWeightPack{};
      quantized_dirty_.store(true, std::memory_order_release);
    }
    return *this;
  }
  SnnNetwork& operator=(SnnNetwork&& other) noexcept {
    if (this != &other) {
      kernel_ = other.kernel_;
      lut_ = std::move(other.lut_);
      layers_ = std::move(other.layers_);
      const util::MutexLock lock{pack_mu_};
      packed_.clear();
      packed_dirty_.store(true, std::memory_order_release);
      quantized_ = QuantizedWeightPack{};
      quantized_dirty_.store(true, std::memory_order_release);
    }
    return *this;
  }

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
  // none). Used by the event simulator and the hardware model.
  std::vector<SpikeMap> trace(const Tensor& image) const;

  // Pipeline latency in timesteps: (1 + number of weighted layers) * T.
  int latency_timesteps() const;

  const Base2Kernel& kernel() const { return kernel_; }
  const std::vector<SnnLayer>& layers() const { return layers_; }
  // Mutating layers invalidates the event-path pack; it is rebuilt lazily by
  // the next ensure_packed() (callers running their own threads over a freshly
  // mutated net must call ensure_packed() once before fanning out).
  std::vector<SnnLayer>& mutable_layers() {
    packed_dirty_.store(true, std::memory_order_release);
    quantized_dirty_.store(true, std::memory_order_release);
    return layers_;
  }
  std::size_t weighted_layer_count() const;

  // Event-path acceleration structures, built once per network (lazily, on
  // first simulator use) and kept in step with layers_:
  //  * packed_layers()[i] is the repack of layers()[i] (monostate for pools);
  //  * threshold_lut() is the kernel's materialized level sequence.
  // ensure_packed() rebuilds the pack if add_*/mutable_layers() dirtied it;
  // a session calls it before fan-out so workers only ever read.
  // ensure_packed() is safe to call from any number of threads concurrently
  // (double-checked under pack_mu_), so the const entry points — forward,
  // the event simulators, the serving layer — can share one network across
  // threads as long as nobody mutates layers meanwhile.
  void ensure_packed() const;
  const std::vector<PackedLayer>& packed_layers() const;
  // Resident bytes of the event-path pack (0 while unbuilt/released). Taken
  // under pack_mu_, so it is safe against a concurrent rebuild.
  std::size_t packed_bytes() const;
  // Releases the pack's storage and marks it dirty; the next ensure_packed()
  // rebuilds it bit-identically from layers_. This is the model registry's
  // cold-eviction primitive: the CALLER must guarantee no thread is reading
  // packed_layers() concurrently (the registry's run-pin protocol does).
  void release_packed() const;
  const ThresholdLut& threshold_lut() const { return lut_; }

  // Quantized-path pack (quant.h), managed exactly like the float pack: lazy
  // double-checked build under the same pack_mu_, its own dirty flag, and the
  // same release/rebuild contract for the model registry. Rebuilds when the
  // layers were mutated OR the requested config differs from the resident
  // pack's. Requires log-quantized weights (see build_quantized_pack).
  void ensure_quantized(const QuantPackConfig& config) const;
  // The resident pack; ensure_quantized must have built it (checked).
  const QuantizedWeightPack& quantized_pack() const;
  // Resident bytes of the quantized pack (codes + bias registers + LUT; 0
  // while unbuilt/released). Taken under pack_mu_ like packed_bytes().
  std::size_t quantized_bytes() const;
  // Registry cold-eviction primitive for the quantized pack; same caller
  // contract as release_packed().
  void release_quantized() const;

  // Encodes raw values into a SpikeMap (the input generator's job).
  SpikeMap encode(const Tensor& values) const;
  // Decodes a SpikeMap back to kernel-level values with the given shape
  // prefixed by a batch dim of 1.
  Tensor decode(const SpikeMap& map) const;

 private:
  Base2Kernel kernel_;
  ThresholdLut lut_;
  std::vector<SnnLayer> layers_;
  // Lazy event-path weight pack (see ensure_packed); mutable so the const
  // simulator entry points can materialize it on first use. pack_mu_ guards
  // the rebuild; packed_dirty_ is the lock-free fast path for the (steady
  // state) already-packed case. packed_layers()/quantized_pack() read the
  // built pack without the lock under the registry's run-pin protocol — the
  // two deliberate TTFS_NO_THREAD_SAFETY_ANALYSIS sites in this class.
  mutable util::Mutex pack_mu_;
  mutable std::vector<PackedLayer> packed_ TTFS_GUARDED_BY(pack_mu_);
  mutable std::atomic<bool> packed_dirty_{true};
  // Quantized-path pack (quant.h), same lifecycle under the same mutex.
  mutable QuantizedWeightPack quantized_ TTFS_GUARDED_BY(pack_mu_);
  mutable std::atomic<bool> quantized_dirty_{true};
};

}  // namespace ttfs::snn
