#include "snn/event_sim.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>

#include "snn/quant.h"
#include "snn/simd.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ttfs::snn {

std::int64_t EventTrace::total_spikes() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += static_cast<std::int64_t>(l.spikes.size());
  return n;
}

std::int64_t EventTrace::total_integration_ops() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.integration_ops;
  return n;
}

float* SimArena::acc(std::int64_t n) { return acc_.ensure(n); }

std::int32_t* SimArena::qacc(std::int64_t n) { return qacc_.ensure(n); }

int* SimArena::steps(std::int64_t n) { return steps_.ensure(n); }

int* SimArena::hwc_steps(std::int64_t n) { return hwc_steps_.ensure(n); }

std::int64_t* SimArena::counts(std::int64_t n) { return counts_.ensure(n); }

namespace {

struct Shape3 {
  std::int64_t c = 0, h = 0, w = 0;
  std::int64_t numel() const { return c * h * w; }
};

// The histogram slot of fire step k: k itself, and `window` for kNoSpike
// (which, as unsigned, clamps there). The slot is computed, not branched on,
// so counting and bucketing cost the same for silent and firing neurons.
inline std::uint32_t bucket_of(int k, int window) {
  return std::min(static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(window));
}

// Histogram of `n` fire steps into counts[0, window] by bucket_of slot.
// Four interleaved partial histograms, summed at the end, keep a run of equal
// steps (mostly kNoSpike) from chaining every increment through one counter's
// store and reload; on a 16 K-neuron conv layer that took the count pass
// from about a third of the fire phase to a small share (4-core x86-64 VM).
// `counts` holds 4 * (window + 1) slots.
void count_buckets(const int* steps, std::int64_t n, int window, std::int64_t* counts) {
  const std::int64_t slots = window + 1;
  std::fill(counts, counts + 4 * slots, 0);
  std::int64_t* c1 = counts + slots;
  std::int64_t* c2 = c1 + slots;
  std::int64_t* c3 = c2 + slots;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++counts[bucket_of(steps[i], window)];
    ++c1[bucket_of(steps[i + 1], window)];
    ++c2[bucket_of(steps[i + 2], window)];
    ++c3[bucket_of(steps[i + 3], window)];
  }
  for (; i < n; ++i) ++counts[bucket_of(steps[i], window)];
  for (std::int64_t t = 0; t < slots; ++t) counts[t] += c1[t] + c2[t] + c3[t];
}

// Scatters the fire steps of a `pixels` x `cstride` grid into `out.spikes`
// in (step, neuron) order: neuron n = co * pixels + p of the first `cout`
// lanes reads its step at steps[p * cstride + co], so one call serves an HWC
// step grid and, with pixels == 1, a dense CHW one. Every lane of the grid
// is counted (count_buckets; padding lanes must be kNoSpike), offsets are
// the exclusive prefix sum, and scanning neurons in ascending order fills
// each bucket in priority order: the concatenated buckets are exactly the
// (step, neuron)-sorted emission sequence, with no comparison sort. Silent
// neurons are written too, all to one trash slot just past the last spike,
// which is dropped again, so the scan has no branch. `counts` is
// 4 * (window + 1) slots of scratch. Sets neuron_count and encoder_cycles =
// window + spikes.
void scatter_buckets(const int* steps, std::int64_t cout, std::int64_t cstride,
                     std::int64_t pixels, int window, std::int64_t* counts,
                     LayerEventTrace& out) {
  count_buckets(steps, pixels * cstride, window, counts);
  std::int64_t total = 0;
  for (int t = 0; t < window; ++t) {
    const std::int64_t c = counts[t];
    counts[t] = total;
    total += c;
  }
  counts[window] = total;  // the trash slot
  // A layer slot is reserved at its neuron count (plus the trash slot),
  // which no fire phase exceeds, so a reused trace grows each slot at most
  // once and never leaves freed smaller buffers behind; scratch stays in
  // SimArena.
  const auto neurons = static_cast<std::size_t>(cout * pixels);
  // lint-hotpath: allow(alloc) trace output, at most once per layer slot
  if (out.spikes.capacity() <= neurons) out.spikes.reserve(neurons + 1);
  // lint-hotpath: allow(alloc) within the capacity reserved above
  out.spikes.resize(static_cast<std::size_t>(total + 1));
  Spike* dst = out.spikes.data();
  const auto silent = static_cast<std::uint32_t>(window);
  std::int32_t neuron = 0;
  for (std::int64_t co = 0; co < cout; ++co) {
    const int* col = steps + co;
    for (std::int64_t p = 0; p < pixels; ++p, ++neuron) {
      const int k = col[p * cstride];
      const std::uint32_t b = bucket_of(k, window);
      dst[counts[b]] = {neuron, k};
      counts[b] += b != silent ? 1 : 0;
    }
  }
  out.spikes.pop_back();  // the trash slot
  out.neuron_count = cout * pixels;
  out.encoder_cycles = window + total;
}

// Earliest-spike-wins pooling, straight from the step grid the layer before
// left (kernels::pool_steps): each output neuron passes through the least
// fire step of its window. The pooled grid is HWC at padded(c) lanes in
// SimArena::steps (a pool after a pool pools it in place) and is bucketed
// like a fire phase (minus the encoder-cycle cost: pooling is free in the
// spike domain). Pooling is pure spike bookkeeping, the same for every
// membrane format. Returns the pooled grid.
kernels::StepGrid pool_grid(const SnnPool& pool, const kernels::StepGrid& in, int window,
                            SimArena& arena, LayerEventTrace& out) {
  const std::int64_t oh = (in.h - pool.kernel) / pool.stride + 1;
  const std::int64_t ow = (in.w - pool.kernel) / pool.stride + 1;
  TTFS_CHECK(oh > 0 && ow > 0);
  const std::int64_t lanes = kernels::padded(in.c);
  // In place after a pool: the grid only shrinks, so steps never regrows.
  int* steps = arena.steps(lanes * oh * ow);
  kernels::pool_steps(in, pool.kernel, pool.stride, steps);
  scatter_buckets(steps, in.c, lanes, oh * ow, window, arena.counts(4 * (window + 1)), out);
  out.encoder_cycles = 0;  // pools reshuffle spikes, no encoder pass
  return {steps, in.c, oh, ow, lanes, 1};
}

// --- Membrane formats ---------------------------------------------------------
//
// The processor has one datapath; only the number format of its membranes
// differs between the float model and the log-weight deployment. The driver
// and the fire helpers below are written once over a format policy, which
// supplies exactly what that format changes:
//   Acc, Conv, Fc        the accumulator element and the pack's layer types
//                        (both derive pack.h's ConvPack/FcPack geometry);
//   acc_buffer           the format's SimArena accumulator;
//   load_bias            bias row 0 at the pack's stride, zero padding, or
//                        false when the layer has none;
//   integrate_conv/_fc   the layer kernel over disjoint output range [lo, hi);
//   fire_steps           each membrane's fire step over a contiguous span;
//   to_logit             one accumulator as a float logit.
// `lut` is the network's ThresholdLut.

// Float membranes on the network's float pack (network.h), fired through the
// comparator-bank kernel.
struct FloatFormat {
  using Acc = float;
  using Conv = PackedConv;
  using Fc = PackedFc;
  const ThresholdLut& lut;

  static float* acc_buffer(SimArena& arena, std::int64_t n) { return arena.acc(n); }
  template <typename Pack>
  static bool load_bias(const Tensor& bias, const Pack& /*pw*/, float* row, std::int64_t stride) {
    if (bias.empty()) return false;
    std::copy(bias.data(), bias.data() + bias.numel(), row);
    std::fill(row + bias.numel(), row + stride, 0.0F);
    return true;
  }
  std::int64_t integrate_conv(const PackedConv& pw, const kernels::ConvGeom& g,
                              const Spike* spikes, std::int64_t n, float* acc, std::int64_t lo,
                              std::int64_t hi) const {
    return kernels::integrate_conv(g, pw.w.data(), spikes, n, lut, acc, lo, hi);
  }
  std::int64_t integrate_fc(const PackedFc& pw, const Spike* spikes, std::int64_t n, float* acc,
                            std::int64_t lo, std::int64_t hi) const {
    return kernels::integrate_fc(pw.out, pw.ostride, pw.w.data(), spikes, n, lut, acc, lo, hi);
  }
  void fire_steps(const float* acc, std::int64_t n, int* out) const {
    kernels::fire_steps(lut, acc, n, out);
  }
  static float to_logit(float acc) { return acc; }
};

// Membranes that fire at their exact real value v * scale through
// ThresholdLut::fire_step: the fixed-point accumulator at scale =
// 2^-kQuantAccFracBits (an int32 times a power of two stays a normal double, so
// the product is exact), and fire_phase's doubles at scale = 1. The
// comparator-bank kernel equals fire_step on floats only.
template <typename T>
struct ExactFire {
  const ThresholdLut& lut;
  double scale;

  void fire_steps(const T* acc, std::int64_t n, int* out) const {
    for (std::int64_t i = 0; i < n; ++i) {
      out[i] = lut.fire_step(static_cast<double>(acc[i]) * scale);
    }
  }
};

// Saturating int32 fixed-point membranes on the quantized pack (quant.h):
// every add is the LogPe LUT/barrel-shift product, bias loads first from the
// pack's precomputed LSB registers.
struct QuantFormat : ExactFire<std::int32_t> {
  using Acc = std::int32_t;
  using Conv = QuantizedConv;
  using Fc = QuantizedFc;
  const QuantizedWeightPack& pack;

  static std::int32_t* acc_buffer(SimArena& arena, std::int64_t n) { return arena.qacc(n); }
  template <typename Pack>
  static bool load_bias(const Tensor& /*bias*/, const Pack& pw, std::int32_t* row,
                        std::int64_t stride) {
    if (!pw.has_bias) return false;
    std::copy(pw.bias_acc.data(), pw.bias_acc.data() + stride, row);
    return true;
  }
  std::int64_t integrate_conv(const QuantizedConv& pw, const kernels::ConvGeom& g,
                              const Spike* spikes, std::int64_t n, std::int32_t* acc,
                              std::int64_t lo, std::int64_t hi) const {
    return kernels::integrate_conv_q(g, pw.w.data(), spikes, n, layer_params(pw), acc, lo, hi);
  }
  std::int64_t integrate_fc(const QuantizedFc& pw, const Spike* spikes, std::int64_t n,
                            std::int32_t* acc, std::int64_t lo, std::int64_t hi) const {
    return kernels::integrate_fc_q(pw.out, pw.ostride, pw.w.data(), spikes, n, layer_params(pw),
                                   acc, lo, hi);
  }
  float to_logit(std::int32_t acc) const { return static_cast<float>(acc * scale); }

  // The pack's LUT and p, and the layer's code range.
  template <typename Pack>
  kernels::QuantKernelParams layer_params(const Pack& pw) const {
    return {pack.lut.data(), pack.p, pw.q_lo, pw.q_hi};
  }
};

// Fire phase over a membrane accumulator stored HWC: `pixels` rows of
// `cstride` lanes, the first `cout` of each real. Implements the encoder loop
// of Sec. 4 — one threshold per timestep, ready neurons serialized through a
// priority encoder — by binning neurons into timestep buckets directly (see
// scatter_buckets). The whole accumulator — padded so integration streams
// contiguously — fires as one contiguous span into HWC scratch, padding lanes
// included: they hold 0, which never fires, so the grid's histogram counts
// exactly the real neurons' spikes. The buckets are then filled straight
// from the HWC step grid in CHW priority order. An FC layer
// is one pixel, and so is a dense CHW span (the input image, fire_phase's
// membranes) with cstride = cout.
// Returns the step grid, which stays in SimArena::hwc_steps for a pool to read.
template <typename Fmt, typename T>
const int* fire_hwc(const Fmt& fmt, const T* acc, std::int64_t cout, std::int64_t cstride,
                    std::int64_t pixels, SimArena& arena, LayerEventTrace& out) {
  const int window = fmt.lut.window();
  int* hwc = arena.hwc_steps(pixels * cstride);
  fmt.fire_steps(acc, pixels * cstride, hwc);
  scatter_buckets(hwc, cout, cstride, pixels, window, arena.counts(4 * (window + 1)), out);
  return hwc;
}

// Whether the intra-sample split is worth waking the pool for: a rough
// per-range work estimate in accumulator lanes. Any threshold is
// bit-identical (the split itself is — see simd.h); this one just avoids
// paying fan-out latency on layers that integrate in microseconds.
constexpr std::int64_t kIntraMinWork = 1 << 16;

// Runs `integrate(lo, hi)` over the layer's output ranges [0, n) — conv
// output rows, or FC lanes — and returns the total integration ops. With an
// intra pool set, n >= 2 and `work` lanes of adds to do, it splits [0, n)
// into disjoint ranges across the pool. Every accumulator lane lives in
// exactly one range and replays the full spike train in order, so the split
// is invisible in both formats: float adds keep their order, and so does each
// saturating fixed-point add. Only the integer op counters are merged.
template <typename Integrate>
std::int64_t integrate_split(std::int64_t n, std::int64_t work, SimArena& arena,
                             Integrate&& integrate) {
  ThreadPool* pool = arena.intra_pool();
  if (pool == nullptr || pool->size() < 2 || n < 2 || work < kIntraMinWork) {
    return integrate(0, n);
  }
  std::atomic<std::int64_t> ops{0};
  pool->parallel_for_indexed(0, n, [&](std::size_t, std::int64_t lo, std::int64_t hi) {
    ops.fetch_add(integrate(lo, hi), std::memory_order_relaxed);
  });
  return ops.load(std::memory_order_relaxed);
}

// Logits in CHW order like the canonical simulator: channel co of pixel p is
// acc[p * stride + co] (an FC layer is one pixel). Written over `logits` in
// place when it already has the (1, classes) shape.
template <typename Fmt>
void logits_chw(const Fmt& fmt, const typename Fmt::Acc* acc, std::int64_t channels,
                std::int64_t stride, std::int64_t pixels, Tensor& logits) {
  const std::int64_t classes = channels * pixels;
  if (logits.rank() != 2 || logits.numel() != classes || logits.dim(0) != 1) {
    logits = Tensor{{1, classes}};
  }
  float* lo = logits.data();
  for (std::int64_t co = 0; co < channels; ++co) {
    for (std::int64_t p = 0; p < pixels; ++p) {
      lo[co * pixels + p] = fmt.to_logit(acc[p * stride + co]);
    }
  }
}

// Core single-sample simulation over a raw (C, H, W) image span, on the
// format's membranes and `packs` (index-aligned with net.layers()), into
// `trace`. All scratch comes from `arena`. The trace is filled in place:
// layer slot k is reused whatever it held before (its spike vector keeps
// its capacity; every field is overwritten), slots past the last are
// dropped, and the logits are rewritten, so a trace reused sample after
// sample allocates only to grow.
template <typename Fmt, typename Packs>
void run_event_sim_view(const Fmt& fmt, const SnnNetwork& net, const Packs& packs,
                        const float* image, Shape3 cur, SimArena& arena, EventTrace& trace) {
  using Acc = typename Fmt::Acc;
  // The reserve keeps every slot, and so in_spikes, in place while later
  // layers are appended: a network never needs more slots than this.
  trace.layers.reserve(net.layers().size() + 1);
  std::size_t used = 0;
  const auto next_layer = [&]() -> LayerEventTrace& {
    if (used == trace.layers.size()) trace.layers.emplace_back();
    LayerEventTrace& lt = trace.layers[used++];
    lt.neuron_count = 0;
    lt.integration_ops = 0;
    lt.encoder_cycles = 0;
    return lt;
  };

  // --- Input encoding window (a float image in every format) ---
  // The encoding fires the CHW image as one span, so its step grid is CHW.
  LayerEventTrace& input = next_layer();
  const int* image_steps =
      fire_hwc(FloatFormat{fmt.lut}, image, cur.numel(), cur.numel(), 1, arena, input);
  const std::vector<Spike>* in_spikes = &input.spikes;
  // The last fire phase's (or pool's) step grid, for a pool to read.
  kernels::StepGrid grid{image_steps, cur.c, cur.h, cur.w, 1, cur.h * cur.w};

  // A weighted layer's tail, after integration into `acc` (`pixels` rows of
  // `stride` lanes, `channels` real; an FC layer is one pixel): the last one
  // reports its accumulators as logits, drops the slots a larger network
  // left and returns true; any other fires.
  const std::size_t weighted = net.weighted_layer_count();
  std::size_t weighted_seen = 0;
  const auto finish_layer = [&](const Acc* acc, Shape3 shape, std::int64_t stride,
                                std::int64_t ops) {
    const std::int64_t pixels = shape.h * shape.w;
    if (++weighted_seen == weighted) {
      logits_chw(fmt, acc, shape.c, stride, pixels, trace.logits);
      trace.layers.erase(trace.layers.begin() + static_cast<std::ptrdiff_t>(used),
                         trace.layers.end());
      return true;
    }
    LayerEventTrace& lt = next_layer();
    grid = {fire_hwc(fmt, acc, shape.c, stride, pixels, arena, lt), shape.c, shape.h, shape.w,
            stride, 1};
    lt.integration_ops = ops;
    in_spikes = &lt.spikes;
    cur = shape;
    return false;
  };

  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    const SnnLayer& layer = net.layers()[li];
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const auto& pw = std::get<typename Fmt::Conv>(packs[li]);
      const std::int64_t cout = pw.cout;
      const std::int64_t cstride = pw.cstride;
      const std::int64_t oh = (cur.h + 2 * conv->pad - pw.kh) / conv->stride + 1;
      const std::int64_t ow = (cur.w + 2 * conv->pad - pw.kw) / conv->stride + 1;
      TTFS_CHECK(pw.cin == cur.c && oh > 0 && ow > 0);

      // HWC accumulator: element (yo, xo, co) at acc[(yo*ow + xo)*cstride + co]
      // — pixel rows padded to the pack's cstride so both the weight slot and
      // the membrane update are whole-lane contiguous streams per tap. Bias
      // init is one packed-row broadcast: write pixel row 0 (zeroing the
      // padding lanes), then replicate it across the other pixels.
      Acc* acc = fmt.acc_buffer(arena, cstride * oh * ow);
      if (fmt.load_bias(conv->bias, pw, acc, cstride)) {
        kernels::broadcast_rows(acc, oh * ow, cstride);
      } else {
        std::fill(acc, acc + cstride * oh * ow, Acc{0});
      }

      // Integration: spikes arrive (step, neuron)-sorted; the kernel layer
      // consumes them one timestep group at a time over cache-blocked output
      // tiles (simd.h), optionally split row-disjoint across the intra pool.
      kernels::ConvGeom geom;
      geom.cin = cur.c;
      geom.hin = cur.h;
      geom.win = cur.w;
      geom.cout = cout;
      geom.cstride = cstride;
      geom.kh = pw.kh;
      geom.kw = pw.kw;
      geom.stride = conv->stride;
      geom.pad = conv->pad;
      geom.oh = oh;
      geom.ow = ow;
      const std::vector<Spike>& spikes = *in_spikes;
      const std::int64_t nspikes = static_cast<std::int64_t>(spikes.size());
      const std::int64_t ops = integrate_split(
          oh, nspikes * pw.kh * pw.kw * cstride, arena, [&](std::int64_t lo, std::int64_t hi) {
            return fmt.integrate_conv(pw, geom, spikes.data(), nspikes, acc, lo, hi);
          });
      if (finish_layer(acc, {cout, oh, ow}, cstride, ops)) return;
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      const auto& pw = std::get<typename Fmt::Fc>(packs[li]);
      const std::int64_t out = pw.out;
      const std::int64_t ostride = pw.ostride;
      TTFS_CHECK(pw.in == cur.numel());

      Acc* acc = fmt.acc_buffer(arena, ostride);
      if (!fmt.load_bias(fc->bias, pw, acc, ostride)) std::fill(acc, acc + ostride, Acc{0});

      // Column-major pack: each spiking input's whole weight column is one
      // contiguous lane-padded span, dispatched through the kernel layer
      // (and split across the intra pool in whole lanes, so every worker's
      // span stays vector-aligned, when it pays).
      const std::vector<Spike>& spikes = *in_spikes;
      const std::int64_t nspikes = static_cast<std::int64_t>(spikes.size());
      const std::int64_t ops = integrate_split(
          ostride / kernels::kLaneFloats, nspikes * ostride, arena,
          [&](std::int64_t lo, std::int64_t hi) {
            return fmt.integrate_fc(pw, spikes.data(), nspikes, acc, lo * kernels::kLaneFloats,
                                    hi * kernels::kLaneFloats);
          });
      if (finish_layer(acc, {out, 1, 1}, ostride, ops)) return;
    } else {
      LayerEventTrace& lt = next_layer();
      grid = pool_grid(std::get<SnnPool>(layer), grid, fmt.lut.window(), arena, lt);
      in_spikes = &lt.spikes;
      cur = {grid.c, grid.h, grid.w};
    }
  }
  TTFS_CHECK_MSG(false, "SNN has no output layer");
}

}  // namespace

namespace detail {

void run_event_sim_span(const SnnNetwork& net, const float* image, std::int64_t c,
                        std::int64_t h, std::int64_t w, SimArena& arena, EventTrace& into) {
  run_event_sim_view(FloatFormat{net.threshold_lut()}, net, net.packed_layers(), image,
                     {c, h, w}, arena, into);
}

void run_quantized_event_sim_span(const SnnNetwork& net, const float* image, std::int64_t c,
                                  std::int64_t h, std::int64_t w, SimArena& arena,
                                  EventTrace& into) {
  const QuantizedWeightPack& pack = net.quantized_pack();
  const QuantFormat fmt{{net.threshold_lut(), std::ldexp(1.0, -kQuantAccFracBits)}, pack};
  run_event_sim_view(fmt, net, pack.layers, image, {c, h, w}, arena, into);
}


const int* fire_hwc(const ThresholdLut& lut, const float* acc, std::int64_t cout,
                    std::int64_t cstride, std::int64_t pixels, SimArena& arena,
                    LayerEventTrace& out) {
  return snn::fire_hwc(FloatFormat{lut}, acc, cout, cstride, pixels, arena, out);
}

const int* fire_hwc(const ThresholdLut& lut, const double* acc, std::int64_t cout,
                    std::int64_t cstride, std::int64_t pixels, SimArena& arena,
                    LayerEventTrace& out) {
  return snn::fire_hwc(ExactFire<double>{lut, 1.0}, acc, cout, cstride, pixels, arena, out);
}

kernels::StepGrid pool_grid(const SnnPool& pool, const kernels::StepGrid& in, int window,
                            SimArena& arena, LayerEventTrace& out) {
  return snn::pool_grid(pool, in, window, arena, out);
}

}  // namespace detail

LayerEventTrace fire_phase(const Base2Kernel& kernel, const std::vector<double>& vmem) {
  const ThresholdLut lut{kernel};
  SimArena arena;
  LayerEventTrace out;
  const auto n = static_cast<std::int64_t>(vmem.size());
  detail::fire_hwc(lut, vmem.data(), n, n, 1, arena, out);
  return out;
}

EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image, SimArena& arena) {
  TTFS_CHECK(image.rank() == 3);
  EventTrace trace;
  detail::run_event_sim_span(net, image.data(), image.dim(0), image.dim(1), image.dim(2), arena,
                             trace);
  return trace;
}

EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image) {
  SimArena arena;
  return run_event_sim(net, image, arena);
}

void SimArena::reserve_for(const SnnNetwork& net, std::int64_t c, std::int64_t h,
                           std::int64_t w) {
  Shape3 cur{c, h, w};
  std::int64_t max_acc = 0;
  std::int64_t max_pooled = 0;
  for (const auto& layer : net.layers()) {
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const std::int64_t oh = (cur.h + 2 * conv->pad - conv->weight.dim(2)) / conv->stride + 1;
      const std::int64_t ow = (cur.w + 2 * conv->pad - conv->weight.dim(3)) / conv->stride + 1;
      cur = {conv->weight.dim(0), oh, ow};
      // Accumulators and the fire scratch are requested at the pack's
      // padded channel stride.
      max_acc = std::max(max_acc, kernels::padded(cur.c) * oh * ow);
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      cur = {fc->weight.dim(0), 1, 1};
      max_acc = std::max(max_acc, kernels::padded(cur.c));
    } else {
      const auto& pool = std::get<SnnPool>(layer);
      cur = {cur.c, (cur.h - pool.kernel) / pool.stride + 1,
             (cur.w - pool.kernel) / pool.stride + 1};
      max_pooled = std::max(max_pooled, kernels::padded(cur.c) * cur.h * cur.w);
    }
  }
  (void)acc(max_acc);
  (void)steps(max_pooled);
  (void)hwc_steps(std::max(max_acc, c * h * w));  // the input fires as one pixel
  (void)counts(4 * (net.kernel().window() + 1));
}

}  // namespace ttfs::snn
