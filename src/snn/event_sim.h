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
//   * the fire phase compares every membrane against every threshold level
//     at once (a comparator bank, kernels::fire_steps) and bins spikes into
//     per-timestep buckets (a counting sort over the kernel window) instead
//     of sorting after the fact — neurons are scanned in priority order, so
//     bucket concatenation *is* the hardware's (step, neuron) emission order;
//   * pooling takes the earliest spike of each window straight from the step
//     grid the fire phase before it left, and buckets the pooled grid the
//     same way;
//   * all scratch (membrane accumulator, step grids, bucket histogram) lives
//     in a caller-provided SimArena, and the trace is filled in place: a
//     reused EventTrace keeps every layer's spike capacity (reserved at the
//     layer's neuron count), so steady-state batch inference allocates only
//     to grow.
// The same driver also runs the quantized pack (quant.h) on saturating
// fixed-point membranes; only the membrane format differs between the two.
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

  // A trace the backends simulate into when the caller keeps none (stats or
  // logits only), reused sample after sample like the other scratch.
  EventTrace& trace() { return trace_; }

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
  int* hwc_steps(std::int64_t n);        // fire steps in the accumulator's
                                         // HWC layout (padded stride); the
                                         // grid a following pool reads
  int* steps(std::int64_t n);            // pooled step grid, HWC at padded(c)
  std::int64_t* counts(std::int64_t n);  // per-timestep spike histogram (one
                                         // silent slot, four partials)

  // Spike-parallel split: when non-null, integration of a large layer, float
  // or fixed-point, may fan its *disjoint* output ranges out across this
  // pool (bit-identical — each accumulator lane is owned by exactly one
  // range; see simd.h). Set by InferenceSession for the single-chunk case
  // where sample-parallelism starves (batch of 1 on a multi-worker pool);
  // null means fully inline.
  void set_intra_pool(ThreadPool* pool) { intra_pool_ = pool; }
  ThreadPool* intra_pool() const { return intra_pool_; }

 private:
  kernels::AlignedBuffer<float> acc_;
  kernels::AlignedBuffer<std::int32_t> qacc_;
  kernels::AlignedBuffer<int> steps_;
  kernels::AlignedBuffer<int> hwc_steps_;
  kernels::AlignedBuffer<std::int64_t> counts_;
  EventTrace trace_;
  ThreadPool* intra_pool_ = nullptr;
};

// Runs one image (C, H, W) through `net` event by event, using `arena` for
// all scratch. The overload without an arena keeps a sample-local one.
EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image, SimArena& arena);
EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image);

namespace detail {
// Core single-sample simulation over a raw (C, H, W) span — the primitive
// everything batched is built on. All scratch comes from `arena`, and the
// trace is filled into `into` in place: its layer slots are reused (each
// keeps its spike capacity), surplus layers from a larger network are
// dropped, and the logits are overwritten, so a reused trace allocates only
// to grow. snn::EventSimBackend (engine.h) fans this out across a session's
// per-chunk arenas; run_event_sim wraps it for Tensor callers.
void run_event_sim_span(const SnnNetwork& net, const float* image, std::int64_t c,
                        std::int64_t h, std::int64_t w, SimArena& arena, EventTrace& into);

// The float conv layers' fire phase, over the integration accumulator
// stored HWC at channel stride cstride (`pixels` rows, the first cout lanes
// of each real; padding lanes hold 0). Spikes come out in CHW priority order.
// Returns the HWC step grid (in arena.hwc_steps) that a following pool reads.
const int* fire_hwc(const ThresholdLut& lut, const float* acc, std::int64_t cout,
                    std::int64_t cstride, std::int64_t pixels, SimArena& arena,
                    LayerEventTrace& out);
// The same fire phase over double membranes, each firing at
// ThresholdLut::fire_step of its value: the exact-value fire that fire_phase
// uses, and that the fixed-point layers run on their scaled int32 membranes.
const int* fire_hwc(const ThresholdLut& lut, const double* acc, std::int64_t cout,
                    std::int64_t cstride, std::int64_t pixels, SimArena& arena,
                    LayerEventTrace& out);
// A pool layer over the step grid the layer before left (a fire_hwc grid, or
// another pool's): the earliest spike of each window, bucketed in CHW
// priority order with no encoder cycles. Returns the pooled grid, HWC at
// padded(c) lanes in the arena, for a following pool.
kernels::StepGrid pool_grid(const SnnPool& pool, const kernels::StepGrid& in, int window,
                            SimArena& arena, LayerEventTrace& out);
}  // namespace detail

// The fire-phase / spike-encoder primitive (Sec. 4): encodes a vector of
// membrane voltages into priority-ordered spikes and counts encoder cycles
// (one per scanned timestep plus one per serialized spike). A standalone
// wrapper over the simulator's fire_hwc, called by tests and
// bench_micro_kernels; the simulator itself fires through fire_hwc.
LayerEventTrace fire_phase(const Base2Kernel& kernel, const std::vector<double>& vmem);

}  // namespace ttfs::snn
