// Internal to the kernel TUs (kernels.cpp and the three float-kernel tiers,
// kernels_{portable,avx2,avx512}.cpp): the tier table the dispatcher picks
// from, and the conv and FC walks that the float tiers and the quantized
// kernels share.
//
// Everything below the table sits in an unnamed namespace on purpose. Each
// kernel TU is compiled with its own ISA flags, and an inline function with
// external linkage would be emitted once per TU and merged by the linker,
// so a copy built with -mavx512f could end up behind the portable tier's
// calls. With internal linkage every TU keeps its own copy, built with its
// own flags; the tier TUs export nothing but their FloatKernels table.
#pragma once

#include <algorithm>
#include <cstdint>

#include "snn/event_sim.h"
#include "snn/simd.h"

namespace ttfs::snn::kernels {

// One tier's float kernels: kernels.cpp's public entry points (simd.h)
// forward to the active tier's table. `levels` is ThresholdLut::float_levels()
// and `window` its size.
struct FloatKernels {
  void (*axpy)(float* acc, const float* w, float v, std::int64_t n);
  void (*fire)(const float* levels, int window, const float* u, std::int64_t n, int* out);
  // pool_steps over an HWC grid at pixel stride padded(c), channel stride 1.
  void (*pool_hwc)(const StepGrid& in, std::int64_t kernel, std::int64_t stride, int* out);
  std::int64_t (*integrate_conv)(const ConvGeom& g, const float* w, const Spike* spikes,
                                 std::int64_t nspikes, const float* levels, float* acc,
                                 std::int64_t yo0, std::int64_t yo1);
  std::int64_t (*integrate_fc)(std::int64_t out, std::int64_t ostride, const float* w,
                               const Spike* spikes, std::int64_t nspikes, const float* levels,
                               float* acc, std::int64_t j0, std::int64_t j1);
};

// Defined by kernels_portable.cpp, kernels_avx2.cpp and kernels_avx512.cpp;
// the vector two are linked only into x86-64 TTFS_SIMD builds.
extern const FloatKernels kPortableKernels;
extern const FloatKernels kAvx2Kernels;
extern const FloatKernels kAvx512Kernels;

namespace {

// --- Conv tap walk -------------------------------------------------------------
//
// A spike at input (ci, yi, xi) reaches output (yo, xo) through tap
// (ky, kx) = (yi + pad - yo*stride, xi + pad - xo*stride) whenever that tap
// lies in [0, kh) x [0, kw). Along each axis the outputs one input reaches
// form a single run [o0, o1) whose tap index starts at k0 and falls by stride
// per output, so the walk sizes both runs once per spike and then steps
// through them with offset adds: no tap does a division or modulo. The
// neuron id itself splits into (ci, yi, xi) through two per-layer
// Reciprocal multiplies (simd.h), so no spike runs a hardware divide
// either.

// One axis's run for input coordinate `in`, clipped to outputs [lo, hi).
// Empty when o0 >= o1 (k0 is then meaningless).
struct AxisRun {
  std::uint32_t o0, o1;  // reached outputs [o0, o1)
  std::uint32_t k0;      // tap index at o0
};

inline AxisRun axis_run(std::uint32_t in, std::uint32_t pad, std::uint32_t taps,
                        std::uint32_t s, std::uint32_t lo, std::uint32_t hi) {
  const std::uint32_t num = in + pad;  // tap index at output 0
  // Tap num - o*s must stay >= 0 (o <= num/s) and <= taps - 1.
  const std::uint32_t top = num / s + 1;
  const std::uint32_t bottom = num >= taps ? (num - taps + s) / s : 0;
  const std::uint32_t o0 = std::max(bottom, lo);
  return AxisRun{o0, std::min(top, hi), num - o0 * s};
}

// Total reached columns of a stride-1 run: spikes at padded input columns
// u0 .. u0+r-1, each reaching outputs [u - kw + 1, u] clipped to [0, ow).
inline std::uint32_t run_cols(std::uint32_t u0, std::uint32_t r, std::uint32_t kw,
                              std::uint32_t ow) {
  if (u0 + 1 >= kw && u0 + r <= ow) return r * kw;  // no spike clipped
  std::uint32_t cols = 0;
  for (std::uint32_t u = u0; u < u0 + r; ++u) {
    cols += std::min(ow, u + 1) - (u + 1 > kw ? u + 1 - kw : 0);
  }
  return cols;
}

// The one conv integration body behind integrate_conv and integrate_conv_q:
// cache blocking, timestep grouping and the tap walk. `group(step)` runs once
// per timestep group per block (the float path looks up the level, the
// quantized one fills its product table); `tap(acc, w, lanes)` adds one
// contiguous weight span into one contiguous accumulator span. With the
// mirrored slot rule (conv_slot) a stride-1 spike's taps into one output row
// are such a pair of spans, so it issues one tap of ncols*cstride lanes per
// reached row; other strides skip slots between columns and issue one tap of
// cstride lanes per (ky, kx).
//
// At stride 1 the walk cuts each timestep group into runs: r >= 1 spikes at
// consecutive xi of one input row (consecutive neuron ids that do not pass
// the row end). All of a run's spikes reach the same output rows through the
// same tap rows, so the `run(acc, w, rows, u0, r)` hook sees the run once:
// `acc` is the first reached output row at column 0, `w` the first tap row's
// mirrored slot 0 (row k at acc + k*ow*cstride and w - k*kw*cstride), and
// u0 = xi + pad the first spike's padded column. It may apply the whole run
// itself and return true. The default hook, RowTaps, returns false, so each
// spike of the run goes through `tap` row by row. Either way each (yo, xo)
// takes at most one tap per spike and sees the spikes in train order,
// whatever the blocking or the caller's [yo0, yo1) split. Returns real ops
// (cout per applied tap). `Stride` is the compile-time stride, or 0 to read
// g.stride at runtime.
struct RowTaps {
  template <typename Acc, typename W>
  bool operator()(Acc* /*acc*/, const W* /*w*/, std::uint32_t /*rows*/, std::uint32_t /*u0*/,
                  std::uint32_t /*r*/) const {
    return false;
  }
};

template <std::uint32_t Stride, typename Acc, typename W, typename Group, typename Tap,
          typename Run = RowTaps>
std::int64_t integrate_conv_walk(const ConvGeom& g, const W* w, const Spike* spikes,
                                 std::int64_t nspikes, Acc* acc, std::int64_t yo0,
                                 std::int64_t yo1, Group&& group, Tap&& tap, Run&& run = Run()) {
  // Cache blocking: tile [yo0, yo1) into row blocks whose accumulator spans
  // fit acc_block_bytes(), block outermost — each tile's rows are touched by
  // every timestep group while resident instead of the whole accumulator
  // streaming through cache once per group. Per-accumulator add order is
  // untouched (a (yo, xo) row lives in exactly one block and sees the spike
  // train in its original order).
  const std::int64_t row_bytes = g.ow * g.cstride * static_cast<std::int64_t>(sizeof(Acc));
  std::int64_t block_rows = yo1 - yo0;
  if (row_bytes > 0) {
    const std::int64_t budget = acc_block_bytes() / row_bytes;
    block_rows = std::max<std::int64_t>(1, std::min(block_rows, budget));
  }

  const std::uint32_t s = Stride != 0 ? Stride : static_cast<std::uint32_t>(g.stride);
  const std::uint32_t pad = static_cast<std::uint32_t>(g.pad);
  const std::uint32_t kh = static_cast<std::uint32_t>(g.kh);
  const std::uint32_t kw = static_cast<std::uint32_t>(g.kw);
  const std::uint32_t win = static_cast<std::uint32_t>(g.win);
  const std::uint32_t plane = static_cast<std::uint32_t>(g.hin * g.win);
  const Reciprocal by_win{win};
  const Reciprocal by_plane{plane};
  const std::uint32_t ow = static_cast<std::uint32_t>(g.ow);
  // Element-offset steps: one output pixel / tap column (kx falls by s, so
  // its mirrored slot rises by s), one output row / tap row. The walk steps
  // offsets rather than pointers, so stepping past a run's last tap never
  // forms an out-of-range pointer.
  const std::int64_t w_col_step = static_cast<std::int64_t>(s) * g.cstride;
  const std::int64_t w_row_step = static_cast<std::int64_t>(s) * g.kw * g.cstride;
  const std::int64_t acc_row_step = g.ow * g.cstride;

  std::int64_t taps = 0;
  for (std::int64_t b0 = yo0; b0 < yo1; b0 += block_rows) {
    const std::int64_t b1 = std::min(yo1, b0 + block_rows);
    for (std::int64_t si = 0; si < nspikes;) {
      const int step = spikes[si].step;
      std::int64_t se = si;
      while (se < nspikes && spikes[se].step == step) ++se;
      group(step);
      for (std::int64_t sp = si; sp < se;) {
        const std::int32_t first = spikes[sp].neuron;
        const auto neuron = static_cast<std::uint32_t>(first);
        const std::uint32_t ci = by_plane.divide(neuron);
        const std::uint32_t rem = neuron - ci * plane;
        const std::uint32_t yi = by_win.divide(rem);
        std::uint32_t xi = rem - yi * win;
        std::int64_t re = sp + 1;  // the run is spikes [sp, re)
        if constexpr (Stride == 1) {
          // Most spikes start no run, so the next id is checked first, on
          // its own; only then is the run extended, up to the row end.
          if (__builtin_expect(re < se && spikes[re].neuron == first + 1, 0)) {
            const std::int64_t row_end = std::min<std::int64_t>(se, sp + (win - xi));
            while (re < row_end &&
                   spikes[re].neuron == first + static_cast<std::int32_t>(re - sp)) {
              ++re;
            }
          }
        }
        const AxisRun ry = axis_run(yi, pad, kh, s, static_cast<std::uint32_t>(b0),
                                    static_cast<std::uint32_t>(b1));
        if (ry.o0 >= ry.o1) {
          sp = re;
          continue;
        }
        const std::uint32_t nrows = ry.o1 - ry.o0;
        const std::int64_t acc_base = static_cast<std::int64_t>(ry.o0) * acc_row_step;
        const std::int64_t w_base = conv_slot(ci, ry.k0, g.kw - 1, g.kh, g.kw) * g.cstride;
        if constexpr (Stride == 1) {
          const auto r = static_cast<std::uint32_t>(re - sp);
          if (run(acc + acc_base, w + w_base, nrows, xi + pad, r)) {
            taps += static_cast<std::int64_t>(nrows) * run_cols(xi + pad, r, kw, ow);
            sp = re;
            continue;
          }
        }
        for (; sp < re; ++sp, ++xi) {
          const AxisRun rx = axis_run(xi, pad, kw, s, 0, ow);
          if (rx.o0 >= rx.o1) continue;
          const std::uint32_t ncols = rx.o1 - rx.o0;
          taps += static_cast<std::int64_t>(nrows) * ncols;
          std::int64_t acc_row = acc_base + static_cast<std::int64_t>(rx.o0) * g.cstride;
          std::int64_t w_row = w_base + static_cast<std::int64_t>(kw - 1 - rx.k0) * g.cstride;
          for (std::uint32_t yo = ry.o0; yo < ry.o1; ++yo) {
            if constexpr (Stride == 1) {
              tap(acc + acc_row, w + w_row, ncols * g.cstride);
            } else {
              std::int64_t a = acc_row;
              std::int64_t ws = w_row;
              for (std::uint32_t n = 0; n < ncols; ++n) {
                tap(acc + a, w + ws, g.cstride);
                a += g.cstride;
                ws += w_col_step;
              }
            }
            acc_row += acc_row_step;
            w_row -= w_row_step;
          }
        }
      }
      si = se;
    }
  }
  return taps * g.cout;  // padding lanes do not count as work
}

// The one FC integration body behind integrate_fc and integrate_fc_q: column
// blocks sized to acc_block_bytes() and rounded to whole lanes, so every
// inner span stays lane-aligned, each replaying the full spike train one
// timestep group at a time. `group` and `tap` are integrate_conv_walk's.
// Returns real ops ((j0,j1)∩[0,out) columns per spike).
template <typename Acc, typename W, typename Group, typename Tap>
std::int64_t integrate_fc_walk(std::int64_t out, std::int64_t ostride, const W* w,
                               const Spike* spikes, std::int64_t nspikes, Acc* acc,
                               std::int64_t j0, std::int64_t j1, Group&& group, Tap&& tap) {
  std::int64_t block =
      acc_block_bytes() / static_cast<std::int64_t>(sizeof(Acc)) / kLaneFloats * kLaneFloats;
  block = std::max(block, kLaneFloats);

  std::int64_t ops = 0;
  for (std::int64_t b0 = j0; b0 < j1; b0 += block) {
    const std::int64_t b1 = std::min(j1, b0 + block);
    // Real (unpadded) columns in this block: what the op counter owes.
    const std::int64_t real = std::max<std::int64_t>(
        0, std::min(b1, out) - std::min(b0, out));
    for (std::int64_t si = 0; si < nspikes;) {
      const int step = spikes[si].step;
      std::int64_t se = si;
      while (se < nspikes && spikes[se].step == step) ++se;
      group(step);
      for (std::int64_t s = si; s < se; ++s) {
        const W* col = w + static_cast<std::int64_t>(spikes[s].neuron) * ostride;
        tap(acc + b0, col + b0, b1 - b0);
      }
      si = se;
    }
    ops += real * nspikes;
  }
  return ops;
}

}  // namespace
}  // namespace ttfs::snn::kernels
