#include "snn/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "snn/event_sim.h"
#include "snn/network.h"
#include "util/check.h"

namespace ttfs::snn {

namespace {

// Recovers the quantizer code q from one packed float weight: the stored
// value is float(2^(q * 2^-z)) (cat/logquant expansion), so log2 of it sits
// within a float ulp of q * 2^-z and lround lands on q with huge margin. The
// exact round-trip check below is what makes this sound — a weight that is
// NOT on the grid (unquantized net, or quantized with a different z) fails it
// instead of silently packing the nearest code.
std::int16_t encode_weight(float w, int z, bool& any, int& q_lo, int& q_hi) {
  if (w == 0.0F) return kQuantZeroCode;
  const double s = std::exp2(static_cast<double>(-z));
  const double mag = std::fabs(static_cast<double>(w));
  const long q = std::lround(std::log2(mag) / s);
  TTFS_CHECK_MSG(static_cast<float>(std::exp2(static_cast<double>(q) * s)) == std::fabs(w),
                 "weight " << w << " is not on the sign * 2^(q * 2^-" << z
                           << ") grid -- log-quantize the network first "
                              "(cat::log_quantize_network with the same z)");
  // code = q*2 + signbit must stay clear of kQuantZeroCode.
  TTFS_CHECK_MSG(q > -(1L << 14) && q < (1L << 14), "weight exponent code " << q
                                                        << " out of int16 pack range");
  const int qi = static_cast<int>(q);
  if (!any) {
    any = true;
    q_lo = q_hi = qi;
  } else {
    q_lo = std::min(q_lo, qi);
    q_hi = std::max(q_hi, qi);
  }
  return static_cast<std::int16_t>(qi * 2 + (w < 0.0F ? 1 : 0));
}

// Bias in accumulator LSBs: round-to-nearest at 2^-acc_frac_bits, saturated
// to the register range like every synaptic add (bias loads first in the PE).
std::int32_t bias_to_acc(float b, int acc_frac_bits, std::int64_t limit) {
  std::int64_t v = std::llround(static_cast<double>(b) * std::exp2(acc_frac_bits));
  if (v > limit - 1) v = limit - 1;
  if (v < -limit) v = -limit;
  return static_cast<std::int32_t>(v);
}

}  // namespace

QuantizedWeightPack build_quantized_pack(const SnnNetwork& net, const QuantPackConfig& config) {
  TTFS_CHECK_MSG(config.z >= 0 && config.z <= 8, "quant config: z must be in [0, 8]");
  TTFS_CHECK_MSG(config.lut_bits >= 1 && config.lut_bits <= 30,
                 "quant config: lut_bits must be in [1, 30]");
  // int32 accumulator: a two's-complement (int + frac)-bit register.
  TTFS_CHECK_MSG(config.acc_int_bits >= 1 && config.acc_frac_bits >= 1 &&
                     config.acc_int_bits + config.acc_frac_bits <= 31,
                 "quant config: accumulator width must satisfy 1 <= acc_int_bits && "
                 "1 <= acc_frac_bits && acc_int_bits + acc_frac_bits <= 31");

  // Hardware kernel constraints (Eq. 18): theta0 == 1 so spike levels are
  // pure powers of two, tau = 2^p so the spike exponent is a shift.
  const Base2Kernel& kernel = net.kernel();
  TTFS_CHECK_MSG(kernel.theta0() == 1.0,
                 "quantized path requires theta0 == 1 (got " << kernel.theta0() << ")");
  const int p = static_cast<int>(std::lround(std::log2(kernel.tau())));
  TTFS_CHECK_MSG(p >= 0 && p <= 8 && std::exp2(static_cast<double>(p)) == kernel.tau(),
                 "quantized path requires tau = 2^p with p in [0, 8] (Eq. 18), got tau = "
                     << kernel.tau());

  QuantizedWeightPack pack;
  pack.config = config;
  pack.p = p;
  const int f = pack.frac_bits();
  TTFS_CHECK_MSG(f <= 8, "frac bits f = max(p, z) = " << f << " exceeds the 2^8-entry LUT cap");

  // LUT entries are bit-identical to cat::LogPe's (same lround expression),
  // which is what makes the kernels' products match LogPe::accumulate exactly.
  const std::int64_t entries = std::int64_t{1} << f;
  pack.lut.resize(static_cast<std::size_t>(entries));
  for (std::int64_t i = 0; i < entries; ++i) {
    const double value = std::exp2(static_cast<double>(i) / static_cast<double>(entries));
    pack.lut[static_cast<std::size_t>(i)] = std::lround(value * std::exp2(config.lut_bits));
  }

  const std::int64_t limit = std::int64_t{1} << (config.acc_int_bits + config.acc_frac_bits);
  pack.layers.reserve(net.layers().size());
  for (const SnnLayer& layer : net.layers()) {
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      QuantizedConv qc;
      qc.cout = conv->weight.dim(0);
      qc.cin = conv->weight.dim(1);
      qc.kh = conv->weight.dim(2);
      qc.kw = conv->weight.dim(3);
      qc.cstride = kernels::padded(qc.cout);
      const std::int64_t slots = qc.cin * qc.kh * qc.kw;
      std::int16_t* dst = qc.w.ensure(slots * qc.cstride);
      // Padding lanes carry the zero sentinel, the integer analog of the
      // float pack's zero-filled tails.
      std::fill(dst, dst + slots * qc.cstride, kQuantZeroCode);
      bool any = false;
      const float* src = conv->weight.data();
      // Same (co, ci, ky, kx) walk as ensure_packed, so both packs agree lane
      // for lane: slot = kernels::conv_slot (kx mirrored), then co.
      for (std::int64_t co = 0; co < qc.cout; ++co) {
        for (std::int64_t ci = 0; ci < qc.cin; ++ci) {
          for (std::int64_t ky = 0; ky < qc.kh; ++ky) {
            for (std::int64_t kx = 0; kx < qc.kw; ++kx) {
              dst[kernels::conv_slot(ci, ky, kx, qc.kh, qc.kw) * qc.cstride + co] =
                  encode_weight(*src++, config.z, any, qc.q_lo, qc.q_hi);
            }
          }
        }
      }
      TTFS_CHECK_MSG(qc.q_hi - qc.q_lo + 1 <= kernels::kMaxQuantCodes,
                     "conv layer weight-code range " << qc.q_lo << ".." << qc.q_hi
                                                     << " exceeds the kernel table bound");
      std::int32_t* bias = qc.bias_acc.ensure(qc.cstride);
      std::fill(bias, bias + qc.cstride, 0);
      qc.has_bias = !conv->bias.empty();
      if (qc.has_bias) {
        for (std::int64_t co = 0; co < qc.cout; ++co) {
          bias[co] = bias_to_acc(conv->bias[co], config.acc_frac_bits, limit);
        }
      }
      pack.layers.emplace_back(std::move(qc));
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      QuantizedFc qf;
      qf.out = fc->weight.dim(0);
      qf.in = fc->weight.dim(1);
      qf.ostride = kernels::padded(qf.out);
      std::int16_t* dst = qf.w.ensure(qf.in * qf.ostride);
      std::fill(dst, dst + qf.in * qf.ostride, kQuantZeroCode);
      bool any = false;
      const float* src = fc->weight.data();
      for (std::int64_t j = 0; j < qf.out; ++j) {
        for (std::int64_t i = 0; i < qf.in; ++i) {
          dst[i * qf.ostride + j] = encode_weight(*src++, config.z, any, qf.q_lo, qf.q_hi);
        }
      }
      TTFS_CHECK_MSG(qf.q_hi - qf.q_lo + 1 <= kernels::kMaxQuantCodes,
                     "fc layer weight-code range " << qf.q_lo << ".." << qf.q_hi
                                                   << " exceeds the kernel table bound");
      std::int32_t* bias = qf.bias_acc.ensure(qf.ostride);
      std::fill(bias, bias + qf.ostride, 0);
      qf.has_bias = !fc->bias.empty();
      if (qf.has_bias) {
        for (std::int64_t j = 0; j < qf.out; ++j) {
          bias[j] = bias_to_acc(fc->bias[j], config.acc_frac_bits, limit);
        }
      }
      pack.layers.emplace_back(std::move(qf));
    } else {
      pack.layers.emplace_back(std::monostate{});
    }
  }
  return pack;
}

// --- SnnNetwork quantized-pack lifecycle (declared in network.h) -------------

void SnnNetwork::ensure_quantized(const QuantPackConfig& config) const {
  // No lock-free fast path, unlike ensure_packed: the rebuild condition reads
  // the resident pack's config, which is only stable under the mutex. This
  // runs once per session run (not per sample), so the uncontended lock is
  // noise next to one inference.
  const util::MutexLock lock{pack_mu_};
  if (!quantized_dirty_.load(std::memory_order_relaxed) && quantized_.config == config) return;
  quantized_ = build_quantized_pack(*this, config);
  quantized_dirty_.store(false, std::memory_order_release);
}

const QuantizedWeightPack& SnnNetwork::quantized_pack() const
    TTFS_NO_THREAD_SAFETY_ANALYSIS {
  // Lock-free read for the per-sample hot path; the run-pin protocol (the
  // registry, or single ownership) guarantees no concurrent release/rebuild
  // while readers are in flight — same contract as packed_layers(), same
  // deliberate analysis suppression (the TSan lane covers the protocol).
  TTFS_CHECK_MSG(!quantized_dirty_.load(std::memory_order_acquire),
                 "quantized pack not built -- call ensure_quantized first");
  return quantized_;
}

std::size_t SnnNetwork::quantized_bytes() const {
  const util::MutexLock lock{pack_mu_};
  if (quantized_dirty_.load(std::memory_order_relaxed)) return 0;
  std::size_t bytes = quantized_.lut.size() * sizeof(std::int64_t);
  for (const QuantizedLayer& layer : quantized_.layers) {
    if (const auto* conv = std::get_if<QuantizedConv>(&layer)) {
      bytes += static_cast<std::size_t>(conv->w.size()) * sizeof(std::int16_t) +
               static_cast<std::size_t>(conv->bias_acc.size()) * sizeof(std::int32_t);
    } else if (const auto* fc = std::get_if<QuantizedFc>(&layer)) {
      bytes += static_cast<std::size_t>(fc->w.size()) * sizeof(std::int16_t) +
               static_cast<std::size_t>(fc->bias_acc.size()) * sizeof(std::int32_t);
    }
  }
  return bytes;
}

void SnnNetwork::release_quantized() const {
  const util::MutexLock lock{pack_mu_};
  quantized_ = QuantizedWeightPack{};
  quantized_dirty_.store(true, std::memory_order_release);
}

// --- Quantized event simulator ----------------------------------------------

namespace {

struct Shape3 {
  std::int64_t c = 0, h = 0, w = 0;
  std::int64_t numel() const { return c * h * w; }
};

// Integer counterpart of kernels::broadcast_rows: replicate bias row 0 across
// all pixel rows with doubling memcpy.
void broadcast_rows_i32(std::int32_t* acc, std::int64_t rows, std::int64_t stride) {
  std::int64_t done = 1;
  while (done < rows) {
    const std::int64_t n = std::min(done, rows - done);
    std::memcpy(acc + done * stride, acc,
                static_cast<std::size_t>(n * stride) * sizeof(std::int32_t));
    done += n;
  }
}

kernels::QuantKernelParams layer_params(const QuantizedWeightPack& pack, int q_lo, int q_hi) {
  kernels::QuantKernelParams qp;
  qp.lut = pack.lut.data();
  qp.frac_bits = pack.frac_bits();
  qp.lut_bits = pack.config.lut_bits;
  qp.acc_frac_bits = pack.config.acc_frac_bits;
  qp.acc_limit = std::int64_t{1} << (pack.config.acc_int_bits + pack.config.acc_frac_bits);
  qp.wmul = 1 << (qp.frac_bits - pack.config.z);
  qp.smul = 1 << (qp.frac_bits - pack.p);
  qp.q_lo = q_lo;
  qp.q_hi = q_hi;
  return qp;
}

// Fire phase over a dense int32 fixed-point membrane span: each accumulator
// is scaled back to real units (exact — ldexp of an int32 in double) and run
// through the same ThresholdLut as the float path.
void fire_dense_q(const ThresholdLut& lut, const std::int32_t* acc, std::int64_t n,
                  int acc_frac_bits, SimArena& arena, LayerEventTrace& out) {
  const int window = lut.window();
  int* steps = arena.steps(n);
  std::int64_t* counts = arena.counts(window);
  std::fill(counts, counts + window, 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const int k = lut.fire_step(std::ldexp(static_cast<double>(acc[i]), -acc_frac_bits));
    steps[i] = k;
    if (k != kNoSpike) ++counts[k];
  }
  detail::scatter_buckets(steps, n, counts, window, out);
}

// Strided variant over the conv HWC accumulator, mirroring fire_hwc.
void fire_hwc_q(const ThresholdLut& lut, const std::int32_t* acc, std::int64_t cout,
                std::int64_t cstride, std::int64_t pixels, int acc_frac_bits, SimArena& arena,
                LayerEventTrace& out) {
  const int window = lut.window();
  const std::int64_t n = cout * pixels;
  int* steps = arena.steps(n);
  std::int64_t* counts = arena.counts(window);
  std::fill(counts, counts + window, 0);
  for (std::int64_t co = 0; co < cout; ++co) {
    int* row = steps + co * pixels;
    for (std::int64_t px = 0; px < pixels; ++px) {
      const int k =
          lut.fire_step(std::ldexp(static_cast<double>(acc[px * cstride + co]), -acc_frac_bits));
      row[px] = k;
      if (k != kNoSpike) ++counts[k];
    }
  }
  detail::scatter_buckets(steps, n, counts, window, out);
}

// Mirror of run_event_sim_view (event_sim.cpp) on the quantized pack: same
// layer walk, spike ordering, op and cycle accounting; only the membrane
// arithmetic differs. No intra-sample split — the integer path is the scalar
// conformance reference and models one PE array.
EventTrace run_quantized_event_sim_view(const SnnNetwork& net, const float* image, Shape3 cur,
                                        SimArena& arena) {
  const QuantizedWeightPack& pack = net.quantized_pack();
  const ThresholdLut& lut = net.threshold_lut();
  const int fbits = pack.config.acc_frac_bits;
  EventTrace trace;
  trace.layers.reserve(net.layers().size() + 1);

  // --- Input encoding window (float image; identical to the float path) ---
  {
    LayerEventTrace lt;
    detail::fire_span(lut, image, cur.numel(), arena, lt);
    trace.layers.push_back(std::move(lt));
  }
  const std::vector<Spike>* in_spikes = &trace.layers.back().spikes;

  const std::size_t weighted = net.weighted_layer_count();
  std::size_t weighted_seen = 0;

  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    const SnnLayer& layer = net.layers()[li];
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const QuantizedConv& pw = std::get<QuantizedConv>(pack.layers[li]);
      const std::int64_t cout = pw.cout;
      const std::int64_t cstride = pw.cstride;
      const std::int64_t oh = (cur.h + 2 * conv->pad - pw.kh) / conv->stride + 1;
      const std::int64_t ow = (cur.w + 2 * conv->pad - pw.kw) / conv->stride + 1;
      TTFS_CHECK(pw.cin == cur.c && oh > 0 && ow > 0);

      // HWC fixed-point accumulator at the pack's cstride; bias loads first
      // from the precomputed LSB registers (zeroed padding included).
      std::int32_t* acc = arena.qacc(cstride * oh * ow);
      if (pw.has_bias) {
        std::memcpy(acc, pw.bias_acc.data(), static_cast<std::size_t>(cstride) * sizeof(*acc));
        broadcast_rows_i32(acc, oh * ow, cstride);
      } else {
        std::fill(acc, acc + cstride * oh * ow, 0);
      }

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
      const kernels::QuantKernelParams qp = layer_params(pack, pw.q_lo, pw.q_hi);
      const std::int64_t ops = kernels::integrate_conv_q(
          geom, pw.w.data(), in_spikes->data(), static_cast<std::int64_t>(in_spikes->size()),
          qp, acc, 0, oh);

      ++weighted_seen;
      if (weighted_seen == weighted) {
        trace.logits = Tensor{{1, cout * oh * ow}};
        float* lo = trace.logits.data();
        for (std::int64_t co = 0; co < cout; ++co) {
          for (std::int64_t px = 0; px < oh * ow; ++px) {
            lo[co * oh * ow + px] =
                static_cast<float>(std::ldexp(static_cast<double>(acc[px * cstride + co]), -fbits));
          }
        }
        return trace;
      }
      LayerEventTrace lt;
      fire_hwc_q(lut, acc, cout, cstride, oh * ow, fbits, arena, lt);
      lt.integration_ops = ops;
      trace.layers.push_back(std::move(lt));
      in_spikes = &trace.layers.back().spikes;
      cur = {cout, oh, ow};
    } else if (std::get_if<SnnFc>(&layer) != nullptr) {
      const QuantizedFc& pw = std::get<QuantizedFc>(pack.layers[li]);
      const std::int64_t out = pw.out;
      const std::int64_t ostride = pw.ostride;
      TTFS_CHECK(pw.in == cur.numel());

      std::int32_t* acc = arena.qacc(ostride);
      if (pw.has_bias) {
        std::memcpy(acc, pw.bias_acc.data(), static_cast<std::size_t>(ostride) * sizeof(*acc));
      } else {
        std::fill(acc, acc + ostride, 0);
      }

      const kernels::QuantKernelParams qp = layer_params(pack, pw.q_lo, pw.q_hi);
      const std::int64_t ops = kernels::integrate_fc_q(
          out, ostride, pw.w.data(), in_spikes->data(),
          static_cast<std::int64_t>(in_spikes->size()), qp, acc, 0, ostride);

      ++weighted_seen;
      if (weighted_seen == weighted) {
        trace.logits = Tensor{{1, out}};
        float* lo = trace.logits.data();
        for (std::int64_t j = 0; j < out; ++j) {
          lo[j] = static_cast<float>(std::ldexp(static_cast<double>(acc[j]), -fbits));
        }
        return trace;
      }
      LayerEventTrace lt;
      fire_dense_q(lut, acc, out, fbits, arena, lt);
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

EventTrace run_quantized_event_sim_span(const SnnNetwork& net, const float* image,
                                        std::int64_t c, std::int64_t h, std::int64_t w,
                                        SimArena& arena) {
  return run_quantized_event_sim_view(net, image, {c, h, w}, arena);
}

}  // namespace detail

}  // namespace ttfs::snn
