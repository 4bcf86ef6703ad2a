// Tuned implementations of the event simulator's hot loops (see simd.h for
// the layout/bit-exactness contract). This is the only translation unit
// compiled with vector ISA flags (-mavx2 -mfma when TTFS_SIMD=ON on x86-64)
// and it is compiled with -ffp-contract=off in every configuration: each
// element update is exactly `acc[i] = acc[i] + (w[i] * v)` — two
// correctly-rounded IEEE ops, never a fused one — so the AVX2 lanes, the
// scalar tail, the scalar fallback build and the frozen reference simulator
// all produce the same bits.
#include "snn/simd.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "snn/event_sim.h"
#include "snn/kernel.h"

#if defined(TTFS_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace ttfs::snn::kernels {

namespace {

constexpr std::int64_t kDefaultAccBlockBytes = 128 * 1024;

std::atomic<bool> g_force_scalar{false};
std::atomic<std::int64_t> g_acc_block_bytes{kDefaultAccBlockBytes};

// The one per-element semantic, shared by every path.
inline void axpy_elems(float* acc, const float* w, float v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += w[i] * v;
}

#if defined(TTFS_SIMD_AVX2)
// 8-wide mul+add (deliberately not vfmadd: see simd.h). Unaligned loads are
// penalty-free on actually-aligned addresses, and callers inside the
// simulator always hand 64-byte-aligned, lane-padded spans — the tail loop
// only runs for ad-hoc callers (tests, benches).
inline void axpy_avx2(float* acc, const float* w, float v, std::int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 p0 = _mm256_mul_ps(_mm256_loadu_ps(w + i), vv);
    const __m256 p1 = _mm256_mul_ps(_mm256_loadu_ps(w + i + 8), vv);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), p0));
    _mm256_storeu_ps(acc + i + 8, _mm256_add_ps(_mm256_loadu_ps(acc + i + 8), p1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 p = _mm256_mul_ps(_mm256_loadu_ps(w + i), vv);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), p));
  }
  axpy_elems(acc + i, w + i, v, n - i);
}
#endif

// Compile-time-selected tap update for the integration loops: one branch per
// integrate_* call picks the instantiation, not one per tap.
template <bool Simd>
inline void tap_axpy(float* acc, const float* w, float v, std::int64_t n) {
#if defined(TTFS_SIMD_AVX2)
  if constexpr (Simd) {
    axpy_avx2(acc, w, v, n);
    return;
  }
#endif
  axpy_elems(acc, w, v, n);
}

// The whole-window update of a stride-1 3x3 spike that reaches all 3 output
// rows and all 3 columns: row r (tap row ky = 2 - r) adds the 3*C weight
// lanes at w - r*3*C into the 3*C accumulator lanes at acc + r*acc_step.
// The three rows are independent, so the AVX2 body interleaves them, one
// 8-lane step of each row per iteration, fully unrolled over the
// compile-time C. Same per-element mul-then-add as tap_axpy, so the bits
// match the per-row taps.
template <std::int64_t C>
inline void tap_window(float* acc, std::int64_t acc_step, const float* w, float v) {
  static_assert(C % kLaneFloats == 0, "window rows are whole lanes");
  constexpr std::int64_t kRow = 3 * C;
#if defined(TTFS_SIMD_AVX2)
  const __m256 vv = _mm256_set1_ps(v);
  float* a1 = acc + acc_step;
  float* a2 = a1 + acc_step;
#pragma GCC unroll 24
  for (std::int64_t i = 0; i < kRow; i += kLaneFloats) {
    const __m256 p0 = _mm256_mul_ps(_mm256_loadu_ps(w + i), vv);
    const __m256 p1 = _mm256_mul_ps(_mm256_loadu_ps(w - kRow + i), vv);
    const __m256 p2 = _mm256_mul_ps(_mm256_loadu_ps(w - 2 * kRow + i), vv);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), p0));
    _mm256_storeu_ps(a1 + i, _mm256_add_ps(_mm256_loadu_ps(a1 + i), p1));
    _mm256_storeu_ps(a2 + i, _mm256_add_ps(_mm256_loadu_ps(a2 + i), p2));
  }
#else
  for (std::int64_t r = 0; r < 3; ++r) axpy_elems(acc + r * acc_step, w - r * kRow, v, kRow);
#endif
}

// A run of r >= 2 spikes of one 3x3 stride-1 layer: one timestep group (one
// level v), one input row, padded input columns u0 .. u0+r-1. Spike u reaches
// outputs [u-2, u] of each reached output row, output xo through mirrored
// weight slot m = xo + 2 - u, so output xo takes m = 2, 1, 0 from spikes
// u = xo, xo+1, xo+2 in that (train) order. Each of the `rows` tap rows
// (row r at acc + r*acc_step, weights w - r*3*C) forms its three products
// w[m]*v once per run and then updates each reached pixel of [0, ow) with
// one load, its adds in ascending u and one store: the same mul-then-add
// results, added in the same order, as r separate spikes' row taps.
template <std::int64_t C>
inline void tap_run(float* acc, std::int64_t acc_step, const float* w, std::uint32_t rows,
                    std::int64_t u0, std::int64_t r, std::int64_t ow, float v) {
  static_assert(C % kLaneFloats == 0, "run rows are whole lanes");
  const std::int64_t last = u0 + r - 1;  // the last spike's column, its last output
#if defined(TTFS_SIMD_AVX2)
  // Pixel u0-2 takes m = {0}, u0-1 takes {1, 0}, the interior {2, 1, 0},
  // last-1 takes {2, 1} and last {2}, each clipped to [0, ow).
  constexpr std::int64_t kLanes = C / kLaneFloats;
  const auto in = [ow](std::int64_t xo) { return xo >= 0 && xo < ow; };
  const bool head0 = in(u0 - 2), head1 = in(u0 - 1), tail1 = in(last - 1), tail0 = in(last);
  const std::int64_t mid0 = std::max<std::int64_t>(u0, 0);
  const std::int64_t mid1 = std::min(last - 1, ow);  // exclusive
  const __m256 vv = _mm256_set1_ps(v);
  for (std::uint32_t row = 0; row < rows; ++row) {
    float* a = acc + row * acc_step;
    const float* wr = w - static_cast<std::int64_t>(row) * 3 * C;
    __m256 p0[kLanes], p1[kLanes], p2[kLanes];
#pragma GCC unroll 8
    for (std::int64_t c = 0; c < kLanes; ++c) {
      p0[c] = _mm256_mul_ps(_mm256_loadu_ps(wr + c * kLaneFloats), vv);
      p1[c] = _mm256_mul_ps(_mm256_loadu_ps(wr + C + c * kLaneFloats), vv);
      p2[c] = _mm256_mul_ps(_mm256_loadu_ps(wr + 2 * C + c * kLaneFloats), vv);
    }
    // acc[xo] = (((acc[xo] + p[m_0]) + p[m_1]) + ...) over `n` products
    // starting at `first` (2, 1 or 0) and falling, one load and store per lane.
    const auto update = [&](std::int64_t xo, int first, int n) {
      float* q = a + xo * C;
#pragma GCC unroll 8
      for (std::int64_t c = 0; c < kLanes; ++c) {
        __m256 sum = _mm256_loadu_ps(q + c * kLaneFloats);
        if (first == 2) sum = _mm256_add_ps(sum, p2[c]);
        if (first >= 1 && first - n < 1) sum = _mm256_add_ps(sum, p1[c]);
        if (first - n < 0) sum = _mm256_add_ps(sum, p0[c]);
        _mm256_storeu_ps(q + c * kLaneFloats, sum);
      }
    };
    if (head0) update(u0 - 2, 0, 1);
    if (head1) update(u0 - 1, 1, 2);
    for (std::int64_t xo = mid0; xo < mid1; ++xo) update(xo, 2, 3);
    if (tail1) update(last - 1, 2, 2);
    if (tail0) update(last, 2, 1);
  }
#else
  // Spike by spike: each one's row spans, as the walk's per-row taps.
  for (std::int64_t u = u0; u <= last; ++u) {
    const std::int64_t x0 = std::max<std::int64_t>(u - 2, 0);
    const std::int64_t x1 = std::min(u + 1, ow);
    for (std::uint32_t row = 0; row < rows; ++row) {
      axpy_elems(acc + row * acc_step + x0 * C,
                 w - static_cast<std::int64_t>(row) * 3 * C + (x0 + 2 - u) * C, v,
                 (x1 - x0) * C);
    }
  }
#endif
}

// --- Comparator-bank fire ------------------------------------------------------
//
// A membrane's fire step as a level count: how many levels u lies below, with
// every level above u (count == window) meaning no spike. NaN compares false
// against every level and counts 0, as in ThresholdLut::fire_step.
static_assert(kNoSpike == -1, "the vector fire kernel ORs an all-ones mask in as kNoSpike");

inline int fire_count(const float* levels, int window, float u) {
  int below = 0;
  for (int k = 0; k < window; ++k) below += u < levels[k] ? 1 : 0;
  return below == window ? kNoSpike : below;
}

#if defined(TTFS_SIMD_AVX2)
// Adds 1 to each lane of `count` whose membrane lies below `level`: a true
// compare is all ones, i.e. -1 as an integer.
inline __m256i count_below(__m256i count, __m256 u, __m256 level) {
  return _mm256_sub_epi32(count, _mm256_castps_si256(_mm256_cmp_ps(u, level, _CMP_LT_OQ)));
}

// count == window becomes kNoSpike: OR-ing the all-ones equality mask in.
inline void store_steps(int* out, __m256i count, __m256i window) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_or_si256(count, _mm256_cmpeq_epi32(count, window)));
}

// Two 8-lane chains share each level broadcast; a lone 8-lane block and a
// scalar tail finish the span.
inline void fire_avx2(const float* levels, int window, const float* u, std::int64_t n,
                      int* out) {
  const __m256i full = _mm256_set1_epi32(window);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 u0 = _mm256_loadu_ps(u + i);
    const __m256 u1 = _mm256_loadu_ps(u + i + 8);
    __m256i c0 = _mm256_setzero_si256();
    __m256i c1 = _mm256_setzero_si256();
    for (int k = 0; k < window; ++k) {
      const __m256 level = _mm256_broadcast_ss(levels + k);
      c0 = count_below(c0, u0, level);
      c1 = count_below(c1, u1, level);
    }
    store_steps(out + i, c0, full);
    store_steps(out + i + 8, c1, full);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 u0 = _mm256_loadu_ps(u + i);
    __m256i c0 = _mm256_setzero_si256();
    for (int k = 0; k < window; ++k) c0 = count_below(c0, u0, _mm256_broadcast_ss(levels + k));
    store_steps(out + i, c0, full);
  }
  for (; i < n; ++i) out[i] = fire_count(levels, window, u[i]);
}
#endif

// --- Earliest-spike pooling ------------------------------------------------------
//
// One pooled pixel of an HWC step grid: lanes [0, lanes) of dst take the
// unsigned min of the kernel x kernel source pixels at src + ky*row + kx*ps.
// Unsigned, kNoSpike (-1) is the largest value, so it loses to any step.
inline void pool_pixel(const int* src, std::int64_t row, std::int64_t ps, std::int64_t kernel,
                       std::int64_t lanes, bool simd, int* dst) {
  std::int64_t i = 0;
#if defined(TTFS_SIMD_AVX2)
  if (simd) {
    for (; i + kLaneFloats <= lanes; i += kLaneFloats) {
      const auto load = [&](std::int64_t at) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + at + i));
      };
      __m256i m = load(0);
      for (std::int64_t ky = 0; ky < kernel; ++ky) {
        for (std::int64_t kx = ky == 0 ? 1 : 0; kx < kernel; ++kx) {
          m = _mm256_min_epu32(m, load(ky * row + kx * ps));
        }
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), m);
    }
  }
#else
  (void)simd;
#endif
  for (; i < lanes; ++i) {
    auto m = static_cast<std::uint32_t>(src[i]);
    for (std::int64_t ky = 0; ky < kernel; ++ky) {
      for (std::int64_t kx = 0; kx < kernel; ++kx) {
        m = std::min(m, static_cast<std::uint32_t>(src[ky * row + kx * ps + i]));
      }
    }
    dst[i] = static_cast<int>(m);
  }
}

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
                                 std::int64_t yo1, Group&& group, Tap&& tap, Run&& run = Run{}) {
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

// The float walk. `RunC` is 0 for per-row taps only, or the compile-time
// cstride of a stride-1 3x3 layer whose runs take the vector hooks: a run of
// two or more spikes goes to tap_run, a lone spike that reaches all 3 rows
// and all 3 columns to tap_window, and any other lone spike to per-row taps.
template <bool Simd, std::uint32_t Stride, std::int64_t RunC = 0>
std::int64_t integrate_conv_impl(const ConvGeom& g, const float* w, const Spike* spikes,
                                 std::int64_t nspikes, const ThresholdLut& lut, float* acc,
                                 std::int64_t yo0, std::int64_t yo1) {
  float value = 0.0F;
  // One level lookup per timestep group, like the hardware presenting one
  // threshold per cycle.
  const auto group = [&](int step) { value = static_cast<float>(lut.level(step)); };
  const auto tap = [&](float* a, const float* ws, std::int64_t n) {
    tap_axpy<Simd>(a, ws, value, n);
  };
  if constexpr (RunC == 0) {
    return integrate_conv_walk<Stride>(g, w, spikes, nspikes, acc, yo0, yo1, group, tap);
  } else {
    const std::int64_t acc_row_step = g.ow * RunC;
    return integrate_conv_walk<Stride>(
        g, w, spikes, nspikes, acc, yo0, yo1, group, tap,
        [&](float* a, const float* ws, std::uint32_t rows, std::uint32_t u0, std::uint32_t r) {
          if (r > 1) {
            tap_run<RunC>(a, acc_row_step, ws, rows, u0, r, g.ow, value);
            return true;
          }
          if (rows != 3 || u0 < 2 || u0 >= g.ow) return false;
          tap_window<RunC>(a + (u0 - 2) * RunC, acc_row_step, ws, value);
          return true;
        });
  }
}

template <bool Simd>
std::int64_t integrate_fc_impl(std::int64_t out, std::int64_t ostride, const float* w,
                               const Spike* spikes, std::int64_t nspikes,
                               const ThresholdLut& lut, float* acc, std::int64_t j0,
                               std::int64_t j1) {
  float value = 0.0F;
  return integrate_fc_walk(
      out, ostride, w, spikes, nspikes, acc, j0, j1,
      [&](int step) { value = static_cast<float>(lut.level(step)); },
      [&](float* a, const float* ws, std::int64_t n) { tap_axpy<Simd>(a, ws, value, n); });
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
// tap_axpy. Codes are sign+q pairs (code = q*2 + negbit); kQuantZeroCode
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

bool simd_active() {
#if defined(TTFS_SIMD_AVX2)
  static const bool cpu_ok = __builtin_cpu_supports("avx2") != 0;
  return cpu_ok && !g_force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

const char* isa() { return simd_active() ? "avx2" : "scalar"; }

void force_scalar(bool on) { g_force_scalar.store(on, std::memory_order_relaxed); }

std::int64_t acc_block_bytes() { return g_acc_block_bytes.load(std::memory_order_relaxed); }

void set_acc_block_bytes(std::int64_t bytes) {
  g_acc_block_bytes.store(bytes > 0 ? bytes : kDefaultAccBlockBytes,
                          std::memory_order_relaxed);
}

void axpy(float* acc, const float* w, float v, std::int64_t n) {
#if defined(TTFS_SIMD_AVX2)
  if (simd_active()) {
    axpy_avx2(acc, w, v, n);
    return;
  }
#endif
  axpy_elems(acc, w, v, n);
}

void axpy_scalar(float* acc, const float* w, float v, std::int64_t n) {
  axpy_elems(acc, w, v, n);
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
  const float* levels = lut.float_levels();
  const int window = lut.window();
#if defined(TTFS_SIMD_AVX2)
  if (simd_active()) {
    fire_avx2(levels, window, u, n, out);
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) out[i] = fire_count(levels, window, u[i]);
}

void pool_steps(const StepGrid& in, std::int64_t kernel, std::int64_t stride, int* out) {
  const std::int64_t oh = (in.h - kernel) / stride + 1;
  const std::int64_t ow = (in.w - kernel) / stride + 1;
  const std::int64_t lanes = padded(in.c);
  const std::int64_t ps = in.pixel_stride;
  if (in.channel_stride == 1 && ps == lanes) {
    const bool simd = simd_active();
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const int* src = in.steps + (oy * stride * in.w + ox * stride) * ps;
        int* dst = out + (oy * ow + ox) * lanes;
        pool_pixel(src, in.w * ps, ps, kernel, lanes, simd, dst);
      }
    }
    return;
  }
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
  // Stride 1 (every conv of the VGG stacks) gets the walk with its stride
  // divisions folded away; any other stride runs the same body at runtime.
  // On the vector path a 3x3 stride-1 layer at a shipped channel stride also
  // hands its runs to the fused run add and its interior lone spikes to the
  // whole-window add.
  const bool simd = simd_active();
  if (g.stride == 1) {
    if (simd && g.kh == 3 && g.kw == 3) {
      switch (g.cstride) {
        case 16:
          return integrate_conv_impl<true, 1, 16>(g, w, spikes, nspikes, lut, acc, yo0, yo1);
        case 24:
          return integrate_conv_impl<true, 1, 24>(g, w, spikes, nspikes, lut, acc, yo0, yo1);
        case 32:
          return integrate_conv_impl<true, 1, 32>(g, w, spikes, nspikes, lut, acc, yo0, yo1);
        case 64:
          return integrate_conv_impl<true, 1, 64>(g, w, spikes, nspikes, lut, acc, yo0, yo1);
        default:
          break;
      }
    }
    return simd ? integrate_conv_impl<true, 1>(g, w, spikes, nspikes, lut, acc, yo0, yo1)
                : integrate_conv_impl<false, 1>(g, w, spikes, nspikes, lut, acc, yo0, yo1);
  }
  return simd ? integrate_conv_impl<true, 0>(g, w, spikes, nspikes, lut, acc, yo0, yo1)
              : integrate_conv_impl<false, 0>(g, w, spikes, nspikes, lut, acc, yo0, yo1);
}

std::int64_t integrate_fc(std::int64_t out, std::int64_t ostride, const float* w,
                          const Spike* spikes, std::int64_t nspikes, const ThresholdLut& lut,
                          float* acc, std::int64_t j0, std::int64_t j1) {
  if (simd_active()) {
    return integrate_fc_impl<true>(out, ostride, w, spikes, nspikes, lut, acc, j0, j1);
  }
  return integrate_fc_impl<false>(out, ostride, w, spikes, nspikes, lut, acc, j0, j1);
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
