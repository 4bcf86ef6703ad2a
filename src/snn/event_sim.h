// Timestep- and spike-order-accurate SNN simulator.
//
// Unlike SnnNetwork::forward (which exploits the algebraic equivalence
// phi_TTFS = decode . fire to run on GEMMs), this simulator processes every
// spike as a discrete event the way the processor does:
//   * integration phase — input spikes arrive sorted by timestep (the input
//     generator's minfind unit) and are scatter-accumulated into membrane
//     voltages one synaptic operation at a time;
//   * fire phase — for each timestep the dynamic threshold is compared
//     against all membranes and ready neurons are serialized through a
//     priority encoder, one spike per cycle (Sec. 4's spike encoder).
// Its spike maps must match SnnNetwork::trace() exactly (tested); its cycle
// and op counts feed the hardware model.
//
// Hot-path layout (the overhaul; the original scalar implementation is
// preserved in event_sim_reference.h and the two are asserted bit-identical):
//   * integration reads the network's packed weights (network.h) — conv
//     slot-major/cout-contiguous, fc column-major — and accumulates into an
//     HWC-ordered membrane so every synaptic batch is a contiguous
//     vector-add; spikes are consumed timestep-group by timestep-group so the
//     kernel level is looked up once per step, mirroring the minfind unit;
//   * the fire phase bins spikes into per-timestep buckets (a counting sort
//     over the kernel window) instead of sorting after the fact — neurons are
//     scanned in priority order, so bucket concatenation *is* the hardware's
//     (step, neuron) emission order;
//   * all scratch (membrane accumulator, step grids, bucket histogram) lives
//     in a caller-provided SimArena, so steady-state batch inference
//     allocates nothing beyond the returned traces.
#pragma once

#include <cstdint>
#include <vector>

#include "snn/network.h"
#include "snn/simd.h"
#include "tensor/tensor.h"

namespace ttfs {
class ThreadPool;
}

namespace ttfs::snn {

// One emitted spike. Emission order within a fire phase is (step ascending,
// neuron index ascending) — the priority-encoder order.
struct Spike {
  std::int32_t neuron = 0;
  std::int32_t step = 0;
};

struct LayerEventTrace {
  std::vector<Spike> spikes;          // emission order
  std::int64_t neuron_count = 0;
  std::int64_t integration_ops = 0;   // synaptic accumulations performed
  std::int64_t encoder_cycles = 0;    // threshold steps + serialized spikes
};

struct EventTrace {
  std::vector<LayerEventTrace> layers;  // index 0 = input encoding
  Tensor logits;                        // (1, classes)

  std::int64_t total_spikes() const;
  std::int64_t total_integration_ops() const;
};

// Reusable per-worker scratch for run_event_sim. Buffers grow to the largest
// layer they ever see and are then reused sample after sample, so a worker
// that keeps its arena across a batch does zero steady-state allocation.
// An arena is plain scratch: it carries no results between samples and may be
// handed networks of different shapes. Not thread-safe — one arena per
// concurrent caller (an InferenceSession keeps one per pool chunk).
//
// All buffers live in 64-byte-aligned AlignedBuffer storage (simd.h): the
// accumulator never splits a cache line and per-chunk arenas of a batch
// fan-out never false-share, since every allocation starts and ends on its
// own line. The accumulator is requested at *padded* sizes by the simulator
// (conv: pixels * cstride, fc: ostride) so the SIMD kernels run tail-free.
class SimArena {
 public:
  SimArena() = default;

  // Pre-sizes every buffer for running `net` on (c, h, w) inputs by walking
  // the layer shapes, so not even the first sample allocates.
  void reserve_for(const SnnNetwork& net, std::int64_t c, std::int64_t h, std::int64_t w);

  // Grow-only scratch accessors (contents unspecified; growth discards — the
  // simulator fully initializes each buffer before reading it). Internal to
  // the simulator; exposed so the free-function hot loops can use them.
  float* acc(std::int64_t n);            // membrane accumulator (HWC for conv)
  std::int32_t* qacc(std::int64_t n);    // fixed-point accumulator (quantized
                                         // path, quant.h); grown on demand —
                                         // reserve_for leaves it empty so
                                         // float-only sessions never pay for it
  int* steps(std::int64_t n);            // per-neuron fire step, CHW order
  int* grid(std::int64_t n);             // pooling input step grid, CHW order
  std::int64_t* counts(std::int64_t n);  // per-timestep spike histogram

  // Spike-parallel split: when non-null, integration of a large layer may
  // fan its *disjoint* output ranges out across this pool (bit-identical —
  // each accumulator lane is owned by exactly one range; see simd.h). Set by
  // InferenceSession for the single-chunk case where sample-parallelism
  // starves (batch of 1 on a multi-worker pool); null means fully inline.
  void set_intra_pool(ThreadPool* pool) { intra_pool_ = pool; }
  ThreadPool* intra_pool() const { return intra_pool_; }

 private:
  kernels::AlignedBuffer<float> acc_;
  kernels::AlignedBuffer<std::int32_t> qacc_;
  kernels::AlignedBuffer<int> steps_;
  kernels::AlignedBuffer<int> grid_;
  kernels::AlignedBuffer<std::int64_t> counts_;
  ThreadPool* intra_pool_ = nullptr;
};

// Runs one image (C, H, W) through `net` event by event, using `arena` for
// all scratch. The overload without an arena keeps a sample-local one.
EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image, SimArena& arena);
EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image);

namespace detail {
// Core single-sample simulation over a raw (C, H, W) span — the primitive
// everything batched is built on. All scratch comes from `arena`; only the
// returned trace allocates. snn::EventSimBackend (engine.h) fans this out
// across a session's per-chunk arenas; run_event_sim wraps it for Tensor
// callers.
EventTrace run_event_sim_span(const SnnNetwork& net, const float* image, std::int64_t c,
                              std::int64_t h, std::int64_t w, SimArena& arena);

// Building blocks shared verbatim with the quantized simulator (quant.cpp),
// so the parts of the event path that are pure spike bookkeeping — bucket
// scatter, the dense fire phase, earliest-spike-wins pooling — are literally
// the same code in both and agree trivially.

// Scatters the fire steps in `steps` (CHW order, kNoSpike = silent) into
// out.spikes via the per-timestep histogram in `counts` (exclusive prefix
// sum); the concatenated buckets are the (step, neuron)-sorted emission
// order. Sets neuron_count and encoder_cycles = window + spikes.
void scatter_buckets(const int* steps, std::int64_t n, std::int64_t* counts, int window,
                     LayerEventTrace& out);

// Fire phase over a dense float membrane span in CHW (= neuron) order.
void fire_span(const ThresholdLut& lut, const float* vmem, std::int64_t n, SimArena& arena,
               LayerEventTrace& out);

// Earliest-spike-wins pooling over one layer's incoming spikes on a
// (c, h, w) grid; encoder_cycles is 0 (pools reshuffle spikes, no encoder
// pass). The caller advances its shape with the same (k, stride) formula.
LayerEventTrace pool_layer(const SnnPool& pool, const std::vector<Spike>& in_spikes,
                           std::int64_t c, std::int64_t h, std::int64_t w, int window,
                           SimArena& arena);
}  // namespace detail

// The fire-phase / spike-encoder primitive (Sec. 4): encodes a vector of
// membrane voltages into priority-ordered spikes and counts encoder cycles
// (one per scanned timestep plus one per serialized spike). Shared by the
// event simulator and the hardware spike-encoder model.
LayerEventTrace fire_phase(const Base2Kernel& kernel, const std::vector<double>& vmem);

}  // namespace ttfs::snn
