// The kernel layer's dispatcher and its quantized kernels (see simd.h for
// the layout/bit-exactness contract). The float kernels live in three tier
// TUs built from kernels_tier.inc; this TU picks one of their tables per call
// and, like the portable tier, is compiled with no ISA flag, so it runs on
// any x86-64 CPU. It is compiled with -ffp-contract=off in every
// configuration, as every kernel TU is.
#include "snn/simd.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "snn/event_sim.h"
#include "snn/kernel.h"
#include "snn/kernels_impl.h"

namespace ttfs::snn::kernels {

namespace {

constexpr std::int64_t kDefaultAccBlockBytes = 128 * 1024;

std::atomic<Tier> g_tier_cap{Tier::kAvx512};
std::atomic<std::int64_t> g_acc_block_bytes{kDefaultAccBlockBytes};

// The highest tier this binary holds and this CPU runs. The vector tier TUs
// are linked only into x86-64 TTFS_SIMD builds (TTFS_SIMD_X86).
Tier cpu_tier() {
#if defined(TTFS_SIMD_X86)
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  if (avx2 && __builtin_cpu_supports("avx512f") != 0) return Tier::kAvx512;
  if (avx2) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

// The table of the active tier: checked once per kernel call, so a caller
// passes a whole layer or span.
const FloatKernels& tier_kernels() {
  switch (active_tier()) {
#if defined(TTFS_SIMD_X86)
    case Tier::kAvx512:
      return kAvx512Kernels;
    case Tier::kAvx2:
      return kAvx2Kernels;
#endif
    default:
      return kPortableKernels;
  }
}

// --- Quantized (fixed-point) integration --------------------------------------
//
// One synaptic product in accumulator LSBs: the LogPe datapath (exponent add,
// 2^f-entry LUT read, barrel shift with round-to-nearest) for weight code q
// and a spike at `step`. Mirrors cat::LogPe::accumulate exactly — asserted
// add-for-add in tests/snn_quant_test.cpp — so traces from these kernels
// co-simulate against hw/processor with no drift.
inline std::int64_t quant_product(const QuantKernelParams& qp, int q, int step) {
  const std::int32_t code = static_cast<std::int32_t>(q) * qp.wmul -
                            static_cast<std::int32_t>(step) * qp.smul;
  const std::int32_t mask = (1 << qp.frac_bits) - 1;
  const std::int32_t int_part = code >> qp.frac_bits;  // floor division
  const std::int64_t lut_value = qp.lut[static_cast<std::size_t>(code & mask)];
  const int shift = int_part + qp.acc_frac_bits - qp.lut_bits;
  if (shift >= 0) {
    // Barrel shift capped at 2*limit - 1: from anywhere in [-limit, limit - 1]
    // a larger product lands on the same rail, so the cap changes no sum,
    // while an uncapped shift of a large weight code would overflow int64.
    const std::int64_t cap = 2 * qp.acc_limit - 1;
    return shift >= 63 || lut_value > (cap >> shift) ? cap : lut_value << shift;
  }
  if (-shift < 63) {
    // Round-to-nearest on the right shift (the hardware adds the dropped MSB).
    return (lut_value + (std::int64_t{1} << (-shift - 1))) >> -shift;
  }
  return 0;
}

// Signed saturating add into the int32 membrane register: clamp to the
// two's-complement range [-limit, limit - 1], like LogPe's Vmem model.
inline void quant_add(std::int32_t& acc, std::int64_t add, std::int64_t limit) {
  std::int64_t v = static_cast<std::int64_t>(acc) + add;
  if (v > limit - 1) v = limit - 1;
  if (v < -limit) v = -limit;
  acc = static_cast<std::int32_t>(v);
}

// Per-timestep-group product table over the layer's code range: the inner
// loops then run pure table-indexed adds, one entry per distinct q — the
// software analog of the PE evaluating each exponent sum once per threshold
// step. Bounded at kMaxQuantCodes (simd.h); the pack build caps the range.
inline void fill_quant_table(const QuantKernelParams& qp, int step, std::int64_t* table) {
  for (int q = qp.q_lo; q <= qp.q_hi; ++q) {
    table[q - qp.q_lo] = quant_product(qp, q, step);
  }
}

// Applies one weight-code span to one accumulator span: the integer analog of
// axpy. Codes are sign+q pairs (code = q*2 + negbit); kQuantZeroCode
// lanes (zero weights, padding) contribute nothing, exactly like the float
// pack's 0.0 weights.
inline void quant_span_add(std::int32_t* acc, const std::int16_t* codes, std::int64_t n,
                           const std::int64_t* table, int q_lo, std::int64_t limit) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int16_t c = codes[i];
    if (c == kQuantZeroCode) continue;
    const std::int64_t add = table[(c >> 1) - q_lo];  // arithmetic shift: q
    quant_add(acc[i], (c & 1) != 0 ? -add : add, limit);
  }
}

}  // namespace

Tier supported_tier() {
  static const Tier tier = cpu_tier();
  return tier;
}

Tier active_tier() {
  return std::min(supported_tier(), g_tier_cap.load(std::memory_order_relaxed));
}

const char* isa() {
  switch (active_tier()) {
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

void cap_tier(Tier max) { g_tier_cap.store(max, std::memory_order_relaxed); }

std::int64_t acc_block_bytes() { return g_acc_block_bytes.load(std::memory_order_relaxed); }

void set_acc_block_bytes(std::int64_t bytes) {
  g_acc_block_bytes.store(bytes > 0 ? bytes : kDefaultAccBlockBytes,
                          std::memory_order_relaxed);
}

void axpy(float* acc, const float* w, float v, std::int64_t n) {
  tier_kernels().axpy(acc, w, v, n);
}

void axpy_scalar(float* acc, const float* w, float v, std::int64_t n) {
  kPortableKernels.axpy(acc, w, v, n);
}

template <typename T>
void broadcast_rows(T* acc, std::int64_t rows, std::int64_t stride) {
  // Doubling copy: row 0 -> row 1, rows [0,2) -> [2,4), ... O(log rows)
  // memcpys instead of a per-pixel scalar loop.
  std::int64_t filled = 1;
  while (filled < rows) {
    const std::int64_t count = std::min(filled, rows - filled);
    std::memcpy(acc + filled * stride, acc, static_cast<std::size_t>(count * stride) * sizeof(T));
    filled += count;
  }
}

template void broadcast_rows(float*, std::int64_t, std::int64_t);
template void broadcast_rows(std::int32_t*, std::int64_t, std::int64_t);

void fire_steps(const ThresholdLut& lut, const float* u, std::int64_t n, int* out) {
  tier_kernels().fire(lut.float_levels(), lut.window(), u, n, out);
}

void pool_steps(const StepGrid& in, std::int64_t kernel, std::int64_t stride, int* out) {
  const std::int64_t lanes = padded(in.c);
  const std::int64_t ps = in.pixel_stride;
  if (in.channel_stride == 1 && ps == lanes) {
    tier_kernels().pool_hwc(in, kernel, stride, out);
    return;
  }
  const std::int64_t oh = (in.h - kernel) / stride + 1;
  const std::int64_t ow = (in.w - kernel) / stride + 1;
  const std::int64_t cs = in.channel_stride;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const int* src = in.steps + (oy * stride * in.w + ox * stride) * ps;
      int* dst = out + (oy * ow + ox) * lanes;
      for (std::int64_t ch = 0; ch < in.c; ++ch) {
        auto best = static_cast<std::uint32_t>(kNoSpike);
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            best = std::min(best, static_cast<std::uint32_t>(
                                      src[(ky * in.w + kx) * ps + ch * cs]));
          }
        }
        dst[ch] = static_cast<int>(best);
      }
      std::fill(dst + in.c, dst + lanes, kNoSpike);
    }
  }
}

std::int64_t integrate_conv(const ConvGeom& g, const float* w, const Spike* spikes,
                            std::int64_t nspikes, const ThresholdLut& lut, float* acc,
                            std::int64_t yo0, std::int64_t yo1) {
  return tier_kernels().integrate_conv(g, w, spikes, nspikes, lut.float_levels(), acc, yo0,
                                       yo1);
}

std::int64_t integrate_fc(std::int64_t out, std::int64_t ostride, const float* w,
                          const Spike* spikes, std::int64_t nspikes, const ThresholdLut& lut,
                          float* acc, std::int64_t j0, std::int64_t j1) {
  return tier_kernels().integrate_fc(out, ostride, w, spikes, nspikes, lut.float_levels(), acc,
                                     j0, j1);
}

std::int64_t integrate_conv_q(const ConvGeom& g, const std::int16_t* w, const Spike* spikes,
                              std::int64_t nspikes, const QuantKernelParams& qp,
                              std::int32_t* acc, std::int64_t yo0, std::int64_t yo1) {
  // The float kernel's walk: int32 accumulator rows are as wide as float
  // rows, so the tiles and the per-accumulator add order match it exactly
  // (order matters here because each add saturates).
  std::int64_t table[kMaxQuantCodes];
  // One product per distinct weight code per timestep group — the quantized
  // analog of the float path's one level() per group.
  const auto group = [&](int step) { fill_quant_table(qp, step, table); };
  const auto tap = [&](std::int32_t* a, const std::int16_t* codes, std::int64_t n) {
    quant_span_add(a, codes, n, table, qp.q_lo, qp.acc_limit);
  };
  if (g.stride == 1) {
    return integrate_conv_walk<1>(g, w, spikes, nspikes, acc, yo0, yo1, group, tap);
  }
  return integrate_conv_walk<0>(g, w, spikes, nspikes, acc, yo0, yo1, group, tap);
}

std::int64_t integrate_fc_q(std::int64_t out, std::int64_t ostride, const std::int16_t* w,
                            const Spike* spikes, std::int64_t nspikes,
                            const QuantKernelParams& qp, std::int32_t* acc, std::int64_t j0,
                            std::int64_t j1) {
  std::int64_t table[kMaxQuantCodes];
  return integrate_fc_walk(
      out, ostride, w, spikes, nspikes, acc, j0, j1,
      [&](int step) { fill_quant_table(qp, step, table); },
      [&](std::int32_t* a, const std::int16_t* codes, std::int64_t n) {
        quant_span_add(a, codes, n, table, qp.q_lo, qp.acc_limit);
      });
}

}  // namespace ttfs::snn::kernels
