#include "snn/event_sim.h"

#include <algorithm>
#include <atomic>
#include <type_traits>

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

int* SimArena::grid(std::int64_t n) { return grid_.ensure(n); }

int* SimArena::hwc_steps(std::int64_t n) { return hwc_steps_.ensure(n); }

std::int64_t* SimArena::counts(std::int64_t n) { return counts_.ensure(n); }

namespace detail {

// Scatters the fire steps recorded in `steps` (CHW neuron order, kNoSpike for
// silent neurons) into `out.spikes` via the per-timestep histogram in
// `counts`: offsets are the exclusive prefix sum, and scanning neurons in
// ascending order fills each bucket in priority order. The concatenated
// buckets are exactly the (step, neuron)-sorted emission sequence, with no
// comparison sort.
void scatter_buckets(const int* steps, std::int64_t n, std::int64_t* counts, int window,
                     LayerEventTrace& out) {
  std::int64_t total = 0;
  for (int t = 0; t < window; ++t) {
    const std::int64_t c = counts[t];
    counts[t] = total;
    total += c;
  }
  // lint-hotpath: allow(alloc) trace output, sized once per fire phase; only
  // the returned trace may allocate (scratch stays in SimArena).
  out.spikes.resize(static_cast<std::size_t>(total));
  for (std::int64_t i = 0; i < n; ++i) {
    const int k = steps[i];
    if (k == kNoSpike) continue;
    out.spikes[static_cast<std::size_t>(counts[k]++)] = {static_cast<std::int32_t>(i),
                                                         static_cast<std::int32_t>(k)};
  }
  out.neuron_count = n;
  out.encoder_cycles = window + total;
}

// Fire phase over the conv integration accumulator, which is stored HWC with
// a padded channel stride (pixel rows of cstride floats, the first cout
// real) so integration streams contiguously. The comparator bank fires the
// whole accumulator as one contiguous span, padding lanes included, into HWC
// scratch; neurons are then walked in CHW priority order through a strided
// read of that scratch.
void fire_hwc(const ThresholdLut& lut, const float* acc, std::int64_t cout,
              std::int64_t cstride, std::int64_t pixels, SimArena& arena,
              LayerEventTrace& out) {
  const int window = lut.window();
  const std::int64_t n = cout * pixels;
  int* hwc = arena.hwc_steps(pixels * cstride);
  kernels::fire_steps(lut, acc, pixels * cstride, hwc);
  int* steps = arena.steps(n);
  std::int64_t* counts = arena.counts(window);
  std::fill(counts, counts + window, 0);
  for (std::int64_t co = 0; co < cout; ++co) {
    int* row = steps + co * pixels;
    for (std::int64_t p = 0; p < pixels; ++p) {
      const int k = hwc[p * cstride + co];
      row[p] = k;
      if (k != kNoSpike) ++counts[k];
    }
  }
  scatter_buckets(steps, n, counts, window, out);
}

// Earliest-spike-wins pooling: pass through the minimum fire step of each
// window, building a step grid from the incoming spikes first. Shared by the
// float and quantized simulators — pooling is pure spike bookkeeping, so
// both paths agree on it by construction.
LayerEventTrace pool_layer(const SnnPool& pool, const std::vector<Spike>& in_spikes,
                           std::int64_t c, std::int64_t h, std::int64_t w, int window,
                           SimArena& arena) {
  const std::int64_t oh = (h - pool.kernel) / pool.stride + 1;
  const std::int64_t ow = (w - pool.kernel) / pool.stride + 1;
  TTFS_CHECK(oh > 0 && ow > 0);

  int* grid = arena.grid(c * h * w);
  std::fill(grid, grid + c * h * w, kNoSpike);
  for (const Spike& s : in_spikes) grid[s.neuron] = s.step;

  // Output steps in CHW order, then bucket like a fire phase (minus the
  // encoder-cycle cost: pooling is free in the spike domain).
  const std::int64_t out_n = c * oh * ow;
  int* steps = arena.steps(out_n);
  std::int64_t* counts = arena.counts(window);
  std::fill(counts, counts + window, 0);
  for (std::int64_t ci = 0; ci < c; ++ci) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        int best = kNoSpike;
        for (std::int64_t ky = 0; ky < pool.kernel; ++ky) {
          for (std::int64_t kx = 0; kx < pool.kernel; ++kx) {
            const std::int64_t iy = oy * pool.stride + ky;
            const std::int64_t ix = ox * pool.stride + kx;
            const int s = grid[(ci * h + iy) * w + ix];
            if (s != kNoSpike && (best == kNoSpike || s < best)) best = s;
          }
        }
        steps[(ci * oh + oy) * ow + ox] = best;
        if (best != kNoSpike) ++counts[best];
      }
    }
  }
  LayerEventTrace lt;
  scatter_buckets(steps, out_n, counts, window, lt);
  lt.encoder_cycles = 0;  // pools reshuffle spikes, no encoder pass
  return lt;
}

}  // namespace detail

namespace {

struct Shape3 {
  std::int64_t c = 0, h = 0, w = 0;
  std::int64_t numel() const { return c * h * w; }
};

// Fire phase over a dense membrane span in CHW (= neuron) order. Implements
// the encoder loop of Sec. 4 — one threshold per timestep, ready neurons
// serialized through a priority encoder — by binning neurons into timestep
// buckets directly (see scatter_buckets). Float membranes (the input image,
// FC layers) run through the comparator-bank kernel; double ones (the
// fire_phase API) through ThresholdLut::fire_step, which the kernel equals
// only on floats.
template <typename T>
void fire_dense(const ThresholdLut& lut, const T* vmem, std::int64_t n, SimArena& arena,
                LayerEventTrace& out) {
  const int window = lut.window();
  int* steps = arena.steps(n);
  std::int64_t* counts = arena.counts(window);
  std::fill(counts, counts + window, 0);
  if constexpr (std::is_same_v<T, float>) {
    kernels::fire_steps(lut, vmem, n, steps);
    for (std::int64_t i = 0; i < n; ++i) {
      if (steps[i] != kNoSpike) ++counts[steps[i]];
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      const int k = lut.fire_step(static_cast<double>(vmem[i]));
      steps[i] = k;
      if (k != kNoSpike) ++counts[k];
    }
  }
  detail::scatter_buckets(steps, n, counts, window, out);
}

// Whether the intra-sample split is worth waking the pool for: a rough
// per-range work estimate in accumulated floats. Any threshold is
// bit-identical (the split itself is — see simd.h); this one just avoids
// paying fan-out latency on layers that integrate in microseconds.
constexpr std::int64_t kIntraMinWork = 1 << 16;

// Integrates a conv layer's spike train into acc rows [0, oh), splitting
// disjoint output-row ranges across the arena's intra pool when one is set
// and the layer is large enough. Returns total integration ops.
std::int64_t integrate_conv_split(const kernels::ConvGeom& g, const float* w,
                                  const std::vector<Spike>& spikes, const ThresholdLut& lut,
                                  float* acc, SimArena& arena) {
  const std::int64_t nspikes = static_cast<std::int64_t>(spikes.size());
  ThreadPool* pool = arena.intra_pool();
  const std::int64_t work = nspikes * g.kh * g.kw * g.cstride;
  if (pool == nullptr || pool->size() < 2 || g.oh < 2 || work < kIntraMinWork) {
    return kernels::integrate_conv(g, w, spikes.data(), nspikes, lut, acc, 0, g.oh);
  }
  // Disjoint row ranges: every accumulator row lives in exactly one range and
  // replays the full spike train in order, so the merge is integer-only.
  std::atomic<std::int64_t> ops{0};
  pool->parallel_for_indexed(0, g.oh, [&](std::size_t, std::int64_t lo, std::int64_t hi) {
    ops.fetch_add(kernels::integrate_conv(g, w, spikes.data(), nspikes, lut, acc, lo, hi),
                  std::memory_order_relaxed);
  });
  return ops.load(std::memory_order_relaxed);
}

// FC counterpart: splits disjoint lane-aligned column ranges of [0, ostride).
std::int64_t integrate_fc_split(std::int64_t out, std::int64_t ostride, const float* w,
                                const std::vector<Spike>& spikes, const ThresholdLut& lut,
                                float* acc, SimArena& arena) {
  const std::int64_t nspikes = static_cast<std::int64_t>(spikes.size());
  ThreadPool* pool = arena.intra_pool();
  const std::int64_t lanes = ostride / kernels::kLaneFloats;
  if (pool == nullptr || pool->size() < 2 || lanes < 2 ||
      nspikes * ostride < kIntraMinWork) {
    return kernels::integrate_fc(out, ostride, w, spikes.data(), nspikes, lut, acc, 0, ostride);
  }
  std::atomic<std::int64_t> ops{0};
  // Chunk in whole lanes so every worker's span stays vector-aligned.
  pool->parallel_for_indexed(0, lanes, [&](std::size_t, std::int64_t lo, std::int64_t hi) {
    ops.fetch_add(kernels::integrate_fc(out, ostride, w, spikes.data(), nspikes, lut, acc,
                                        lo * kernels::kLaneFloats, hi * kernels::kLaneFloats),
                  std::memory_order_relaxed);
  });
  return ops.load(std::memory_order_relaxed);
}

// Core single-sample simulation over a raw (C, H, W) image span. All scratch
// comes from `arena`; only the returned trace allocates.
EventTrace run_event_sim_view(const SnnNetwork& net, const float* image, Shape3 cur,
                              SimArena& arena) {
  net.ensure_packed();
  const ThresholdLut& lut = net.threshold_lut();
  EventTrace trace;
  trace.layers.reserve(net.layers().size() + 1);

  // --- Input encoding window ---
  {
    LayerEventTrace lt;
    fire_dense(lut, image, cur.numel(), arena, lt);
    trace.layers.push_back(std::move(lt));
  }
  const std::vector<Spike>* in_spikes = &trace.layers.back().spikes;

  const std::size_t weighted = net.weighted_layer_count();
  const std::vector<PackedLayer>& packs = net.packed_layers();
  std::size_t weighted_seen = 0;

  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    const SnnLayer& layer = net.layers()[li];
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const PackedConv& pw = std::get<PackedConv>(packs[li]);
      const std::int64_t cout = pw.cout;
      const std::int64_t cstride = pw.cstride;
      const std::int64_t kh = pw.kh;
      const std::int64_t kw = pw.kw;
      const std::int64_t oh = (cur.h + 2 * conv->pad - kh) / conv->stride + 1;
      const std::int64_t ow = (cur.w + 2 * conv->pad - kw) / conv->stride + 1;
      TTFS_CHECK(pw.cin == cur.c && oh > 0 && ow > 0);

      // HWC accumulator: element (yo, xo, co) at acc[(yo*ow + xo)*cstride + co]
      // — pixel rows padded to the pack's cstride so both the weight slot and
      // the membrane update are whole-lane contiguous streams per tap.
      float* acc = arena.acc(cstride * oh * ow);
      if (!conv->bias.empty()) {
        // Bias init as one packed-row broadcast: write pixel row 0 (zeroing
        // the padding lanes), then replicate it across the other pixels.
        for (std::int64_t co = 0; co < cout; ++co) acc[co] = conv->bias[co];
        std::fill(acc + cout, acc + cstride, 0.0F);
        kernels::broadcast_rows(acc, oh * ow, cstride);
      } else {
        std::fill(acc, acc + cstride * oh * ow, 0.0F);
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
      geom.kh = kh;
      geom.kw = kw;
      geom.stride = conv->stride;
      geom.pad = conv->pad;
      geom.oh = oh;
      geom.ow = ow;
      const std::int64_t ops =
          integrate_conv_split(geom, pw.w.data(), *in_spikes, lut, acc, arena);

      ++weighted_seen;
      if (weighted_seen == weighted) {
        // Logits are reported CHW like the canonical simulator.
        trace.logits = Tensor{{1, cout * oh * ow}};
        float* lo = trace.logits.data();
        for (std::int64_t co = 0; co < cout; ++co) {
          for (std::int64_t p = 0; p < oh * ow; ++p) {
            lo[co * oh * ow + p] = acc[p * cstride + co];
          }
        }
        return trace;
      }
      LayerEventTrace lt;
      detail::fire_hwc(lut, acc, cout, cstride, oh * ow, arena, lt);
      lt.integration_ops = ops;
      trace.layers.push_back(std::move(lt));
      in_spikes = &trace.layers.back().spikes;
      cur = {cout, oh, ow};
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      const PackedFc& pw = std::get<PackedFc>(packs[li]);
      const std::int64_t out = pw.out;
      const std::int64_t ostride = pw.ostride;
      TTFS_CHECK(pw.in == cur.numel());

      float* acc = arena.acc(ostride);
      if (!fc->bias.empty()) {
        for (std::int64_t j = 0; j < out; ++j) acc[j] = fc->bias[j];
        std::fill(acc + out, acc + ostride, 0.0F);
      } else {
        std::fill(acc, acc + ostride, 0.0F);
      }

      // Column-major pack: each spiking input's whole weight column is one
      // contiguous lane-padded vector-add, dispatched through the kernel
      // layer (and column-split across the intra pool when it pays).
      const std::int64_t ops =
          integrate_fc_split(out, ostride, pw.w.data(), *in_spikes, lut, acc, arena);

      ++weighted_seen;
      if (weighted_seen == weighted) {
        trace.logits = Tensor{{1, out}};
        std::copy(acc, acc + out, trace.logits.data());
        return trace;
      }
      LayerEventTrace lt;
      fire_dense(lut, acc, out, arena, lt);
      lt.integration_ops = ops;
      trace.layers.push_back(std::move(lt));
      in_spikes = &trace.layers.back().spikes;
      cur = {out, 1, 1};
    } else {
      const auto& pool = std::get<SnnPool>(layer);
      const std::int64_t oh = (cur.h - pool.kernel) / pool.stride + 1;
      const std::int64_t ow = (cur.w - pool.kernel) / pool.stride + 1;
      trace.layers.push_back(
          detail::pool_layer(pool, *in_spikes, cur.c, cur.h, cur.w, lut.window(), arena));
      in_spikes = &trace.layers.back().spikes;
      cur = {cur.c, oh, ow};
    }
  }
  TTFS_CHECK_MSG(false, "SNN has no output layer");
  return trace;
}

}  // namespace

namespace detail {

EventTrace run_event_sim_span(const SnnNetwork& net, const float* image, std::int64_t c,
                              std::int64_t h, std::int64_t w, SimArena& arena) {
  return run_event_sim_view(net, image, {c, h, w}, arena);
}

void fire_span(const ThresholdLut& lut, const float* vmem, std::int64_t n, SimArena& arena,
               LayerEventTrace& out) {
  fire_dense(lut, vmem, n, arena, out);
}

}  // namespace detail

LayerEventTrace fire_phase(const Base2Kernel& kernel, const std::vector<double>& vmem) {
  const ThresholdLut lut{kernel};
  SimArena arena;
  LayerEventTrace out;
  fire_dense(lut, vmem.data(), static_cast<std::int64_t>(vmem.size()), arena, out);
  return out;
}

EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image, SimArena& arena) {
  TTFS_CHECK(image.rank() == 3);
  return detail::run_event_sim_span(net, image.data(), image.dim(0), image.dim(1), image.dim(2),
                                    arena);
}

EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image) {
  SimArena arena;
  return run_event_sim(net, image, arena);
}

void SimArena::reserve_for(const SnnNetwork& net, std::int64_t c, std::int64_t h,
                           std::int64_t w) {
  Shape3 cur{c, h, w};
  std::int64_t max_acc = 0;
  std::int64_t max_steps = cur.numel();
  std::int64_t max_grid = 0;
  std::int64_t max_hwc = 0;
  for (const auto& layer : net.layers()) {
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const std::int64_t oh = (cur.h + 2 * conv->pad - conv->weight.dim(2)) / conv->stride + 1;
      const std::int64_t ow = (cur.w + 2 * conv->pad - conv->weight.dim(3)) / conv->stride + 1;
      cur = {conv->weight.dim(0), oh, ow};
      // Accumulators and the conv fire scratch are requested at the pack's
      // padded channel stride.
      const std::int64_t hwc = kernels::padded(cur.c) * oh * ow;
      max_acc = std::max(max_acc, hwc);
      max_hwc = std::max(max_hwc, hwc);
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      cur = {fc->weight.dim(0), 1, 1};
      max_acc = std::max(max_acc, kernels::padded(cur.c));
    } else {
      const auto& pool = std::get<SnnPool>(layer);
      max_grid = std::max(max_grid, cur.numel());
      cur = {cur.c, (cur.h - pool.kernel) / pool.stride + 1,
             (cur.w - pool.kernel) / pool.stride + 1};
    }
    max_steps = std::max(max_steps, cur.numel());
  }
  (void)acc(max_acc);
  (void)steps(max_steps);
  (void)grid(max_grid);
  (void)hwc_steps(max_hwc);
  (void)counts(net.kernel().window());
}

}  // namespace ttfs::snn
