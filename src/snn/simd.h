// Kernel layer for the event simulator's hot loops: layout contract + API.
//
// The event path integrates through two contiguous vector-adds: the conv
// update `acc[co] += w[co] * value` over the output channels a spike reaches,
// and the FC column add over `out` rows per spike; its fire phase compares
// every membrane against the kernel's threshold levels. On the CIFAR-shaped
// VGG stack (gprof flat profile of a one-thread perfbench sim_float run,
// 4-core x86-64 VM), per-tap and per-neuron overhead, not the adds and
// compares, dominated: one add call per (ky, kx) tap of only 16-32 floats
// put integrate_conv at ~60 % of simulator CPU, and a binary search per
// neuron plus a strided walk put the fire phase at ~24 %. With one add per
// reached output row and the comparator-bank fire below, simulator CPU per
// image fell by ~40 %: integrate_conv is now ~65 %, the fire phase ~14 %,
// spike bucketing ~13 %, pooling ~7 %, and integrate_fc and the per-layer
// driver under 1 % each. Whole-window taps (below) and bucketing straight
// from the HWC step grid then cut that stack's per-sample conv integration
// by ~22 % and its fire phases by ~26 % (bench_event_sim_hotpath's
// per-layer rows, same VM). Run adds (below) then cut conv3-5 integration by
// about half, and pooling from the step grid cut the three pools ~4x. This
// header is the contract between the simulator and the tuned kernels in
// kernels.cpp and the float-kernel tiers (kernels_tier.inc):
//
//  * Padding — every output-contiguous span (a conv pack's cout row, an FC
//    pack's column, and the matching accumulator rows) is padded to a
//    multiple of kLaneFloats (8 floats = one AVX2 register). Padding weights
//    are 0 and padding accumulator lanes start at 0, so the 8-lane kernels
//    run with no tail loop and the padding lanes only ever accumulate
//    0 * value; they are never read. `padded()` is the one rounding rule —
//    the pack (network.h), the arena (event_sim.h) and the kernels all agree
//    through it, on every tier and in every build.
//  * Alignment — AlignedBuffer places every pack and every SimArena chunk on
//    a kAlignBytes (64-byte, one cache line) boundary with the allocation
//    size rounded up to a whole line, so accumulator rows neither split
//    cache lines nor false-share across worker arenas.
//  * Tap walk — integrate_conv and integrate_conv_q share one body. It
//    splits each spike's neuron id into (ci, yi, xi) once, in 32-bit
//    unsigned arithmetic with a per-layer Reciprocal multiply in place of
//    each divide, then sizes the run of outputs the spike reaches along each
//    axis (tap ky = yi + pad - yo*stride must lie in [0, kh)) and steps
//    through both runs with offset adds: neither the decode nor any tap
//    executes a hardware divide. Stride 1 is a compile-time instantiation of
//    that body; every other stride runs it with the stride read at runtime.
//    Each accumulator takes at most one tap per spike, in spike order. At
//    stride 1 the walk cuts each timestep group into runs: spikes at
//    consecutive xi of one input row (consecutive ids, broken at the row end
//    and the group end), which reach the same output rows through the same
//    tap rows; a run hook sees each run once and may apply it whole, and the
//    default hook hands every spike to per-row taps.
//    integrate_fc and integrate_fc_q likewise share one column walk.
//  * Row spans — conv weight slots mirror kx (conv_slot), so at stride 1 a
//    spike's taps into one output row are one contiguous weight span over
//    one contiguous accumulator span, applied as a single add; other strides
//    apply one add per tap. Run and window taps — on a vector tier a
//    stride-1 3x3 layer at a compile-time cstride the shipped stacks use
//    (16, 24, 32, 64) applies a run of r >= 2 spikes with tap_run: each tap
//    row forms its three products w*v once (one level per group), and each
//    reached output pixel takes one load, its <= 3 adds in spike order and
//    one store. A lone spike that reaches all 3 output rows and all 3
//    columns (an interior spike) applies its three row spans as one
//    straight-line add (tap_window). Lone border spikes, other geometries,
//    the portable tier and the quantized kernels keep one add per row.
//  * Pooling — pool_steps takes each window's earliest spike straight from
//    the step grid the layer before left (StepGrid: HWC after a conv or FC
//    fire, CHW after the input encoding, HWC at padded(c) after a pool) as
//    a lane-wise unsigned min, so kNoSpike (-1) sorts last.
//  * Fire — fire_steps counts the threshold levels each float membrane lies
//    below, which equals ThresholdLut::fire_step for float inputs (kernel.h
//    states why). Every tier makes the same float compares and integer
//    counts, so they agree exactly.
//  * Tiers — the float kernels (axpy, fire_steps, pool_steps' HWC path,
//    integrate_conv, integrate_fc) come in three tiers, one shared source
//    (kernels_tier.inc) compiled once per tier TU with that tier's flags
//    only (src/CMakeLists.txt):
//      - scalar (kernels_portable.cpp): no ISA flag, plain C++ loops; runs
//        on any CPU the compiler targets;
//      - avx2 (kernels_avx2.cpp): -mavx2 -mfma, 8-lane bodies;
//      - avx512 (kernels_avx512.cpp): -mavx512f, 16-lane bodies for axpy,
//        the comparator-bank fire (a mask compare plus a masked subtract),
//        the pool's unsigned min, and tap_window/tap_run when 16 divides
//        the channel stride; other widths (cstride 24) keep 8-lane bodies,
//        and spans that are not whole registers take a masked tail.
//    Every kernel TU — the tiers and kernels.cpp, which holds the
//    dispatcher and the quantized kernels — is compiled with
//    -ffp-contract=off, and only the vector tiers see a -m ISA flag, so
//    nothing the portable tier or the dispatcher runs can hold an AVX
//    instruction. tools/lint_hotpath.py checks both rules against the
//    compilation database.
//  * Bit-exactness — the tiers are bit-identical by construction: each
//    performs exactly `acc[i] = acc[i] + (w[i] * v)` per element, in any
//    lane width and in any tail, with no fused contraction (the kernel
//    levels `v` are float-rounded transcendentals, NOT powers of two, so an
//    FMA would round differently than mul-then-add and diverge from the
//    frozen reference simulator). A wider register changes how many
//    elements one instruction covers, never an element's operations or
//    their order. Cache blocking and the spike-parallel split partition
//    *disjoint output tiles* — per-accumulator contribution order stays
//    exactly the reference's (step, neuron) spike order, run adds included
//    — instead of splitting sums into partial tiles, which could not be
//    reduced bit-identically in float. Only the integer op counters are
//    reduced.
//
// Dispatch model: `TTFS_SIMD=ON` (the default) on x86-64 gcc/clang links all
// three tiers, and the first kernel call picks the highest one the CPU
// reports (__builtin_cpu_supports: "avx512f" and "avx2" for avx512, "avx2"
// for avx2), so one binary runs everywhere and uses what it finds.
// `TTFS_SIMD=OFF` (or another CPU family) builds the portable tier only —
// the CI `simd-off` lane proves that build bit-identical to the reference
// simulator. cap_tier() lets tests and benches run every tier the host
// supports in a single build.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <utility>

namespace ttfs::snn {

struct Spike;        // event_sim.h
class ThresholdLut;  // kernel.h

namespace kernels {

// One cache line; every AlignedBuffer allocation starts and ends on one.
inline constexpr std::int64_t kAlignBytes = 64;
// One AVX2 register of floats; the padding quantum for output spans on every
// tier (the AVX-512 tier takes a span that is not a whole 16-lane register
// as 8-lane bodies or a masked tail).
inline constexpr std::int64_t kLaneFloats = 8;

// The single rounding rule for padded output spans (conv cout rows, FC
// columns, accumulator rows). Identical on every tier and in every build, so
// pack layout and arena sizing never depend on the ISA.
constexpr std::int64_t padded(std::int64_t n) {
  return (n + kLaneFloats - 1) / kLaneFloats * kLaneFloats;
}

// Exact unsigned division by a runtime divisor d >= 1 for every n < 2^31,
// with one 64-bit multiply and a shift (Granlund-Montgomery): with
// shift = 31 + ceil(log2 d) and m = ceil(2^shift / d), floor(n / d) equals
// (n * m) >> shift, and m <= 2^32 keeps n * m below 2^63. The conv tap walk
// builds two per layer to split a spike's int32 neuron id into (ci, yi, xi).
class Reciprocal {
 public:
  constexpr explicit Reciprocal(std::uint32_t d)
      : shift_{31 + ceil_log2(d)}, mult_{((std::uint64_t{1} << shift_) + d - 1) / d} {}

  constexpr std::uint32_t divide(std::uint32_t n) const {
    return static_cast<std::uint32_t>((std::uint64_t{n} * mult_) >> shift_);
  }

 private:
  static constexpr int ceil_log2(std::uint32_t d) {
    int l = 0;
    while ((std::uint64_t{1} << l) < d) ++l;
    return l;
  }

  int shift_;
  std::uint64_t mult_;
};

// The single conv weight-slot rule: tap (ky, kx) of input channel ci lives in
// slot (ci*kh + ky)*kw + (kw-1-kx), i.e. kx is stored mirrored. A stride-1
// spike's taps into consecutive outputs of one row have falling kx, so with
// the mirror they sit in consecutive slots and the whole row's update is one
// contiguous weight span over one contiguous accumulator span. The float
// pack, the quantized pack, the tap walk and the tests all index through it.
constexpr std::int64_t conv_slot(std::int64_t ci, std::int64_t ky, std::int64_t kx,
                                 std::int64_t kh, std::int64_t kw) {
  return (ci * kh + ky) * kw + (kw - 1 - kx);
}

// Grow-only 64-byte-aligned storage for packs and arena scratch. Growing
// discards contents (scratch semantics — callers rewrite what they read);
// never copies. Move-only.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_{other.data_}, size_{other.size_}, cap_{other.cap_} {
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.cap_ = 0;
    }
    return *this;
  }
  ~AlignedBuffer() { std::free(data_); }

  // Returns a span of at least n elements, 64-byte aligned. Existing
  // contents are discarded when growth is needed (and unspecified anyway).
  T* ensure(std::int64_t n) {
    if (n > cap_) {
      std::free(data_);
      // aligned_alloc requires the size to be a multiple of the alignment.
      const std::size_t bytes =
          (static_cast<std::size_t>(n) * sizeof(T) + kAlignBytes - 1) /
          kAlignBytes * kAlignBytes;
      data_ = static_cast<T*>(std::aligned_alloc(kAlignBytes, bytes));
      cap_ = static_cast<std::int64_t>(bytes / sizeof(T));
    }
    if (n > size_) size_ = n;
    return data_;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  // High-water element count (what ensure() has been asked for).
  std::int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  T* data_ = nullptr;
  std::int64_t size_ = 0;
  std::int64_t cap_ = 0;
};

// --- Dispatch introspection -------------------------------------------------

// The float-kernel tiers, lowest first.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

// The highest tier this build holds and this CPU runs, checked once.
Tier supported_tier();
// The tier axpy()/fire_steps()/pool_steps()/integrate_*() run right now:
// supported_tier(), lowered to the cap_tier() cap.
Tier active_tier();
// active_tier()'s name: "avx512", "avx2" or "scalar".
const char* isa();
// Test and bench hook: run no tier above `max`, so one build can assert the
// tiers bit-identical to each other; Tier::kAvx512 (the default) lifts the
// cap. Thread-safe flips; not meant to race against in-flight kernels.
void cap_tier(Tier max);

// Accumulator cache-block size in bytes (default 128 KiB): integration tiles
// the output so one tile's accumulator rows stay resident in L2 while every
// timestep group streams over it. Exposed for tests/benches to force
// multi-block execution on small layers; set 0 to restore the default.
std::int64_t acc_block_bytes();
void set_acc_block_bytes(std::int64_t bytes);

// --- Primitive kernels ------------------------------------------------------

// acc[i] += w[i] * v for i in [0, n): the membrane vector-add on the active
// tier; bit-identical to axpy_scalar for any operands.
void axpy(float* acc, const float* w, float v, std::int64_t n);
// The portable tier's add, whatever the cap (the reference semantics).
void axpy_scalar(float* acc, const float* w, float v, std::int64_t n);

// Replicates row 0 (stride elements starting at acc) into rows [1, rows):
// the conv bias init as one packed-row broadcast instead of a per-pixel
// double loop. Doubling memcpy — O(log rows) copies. Instantiated for the
// float and the int32 fixed-point accumulator.
template <typename T>
void broadcast_rows(T* acc, std::int64_t rows, std::int64_t stride);

// --- Fire kernel --------------------------------------------------------------

// Comparator-bank fire: out[i] = lut.fire_step(u[i]) for i in [0, n). Levels
// never increase, so a float membrane's first crossing step is the number of
// levels it lies below, and a full count means kNoSpike; the kernel compares
// each membrane against every level (8 or 16 lanes per vector compare,
// _CMP_LT_OQ so NaN counts 0 like fire_step) instead of searching. Exact for float inputs
// only: it compares against ThresholdLut's float levels (kernel.h). Double
// membranes (the quantized fire, fire_phase) stay on ThresholdLut::fire_step.
// Checks the dispatch once per call, so callers pass a whole layer.
void fire_steps(const ThresholdLut& lut, const float* u, std::int64_t n, int* out);

// --- Pool kernel --------------------------------------------------------------

// A fire phase's step grid: the fire step (or kNoSpike) of neuron (c, y, x)
// of a (c, h, w) map sits at steps[(y*w + x)*pixel_stride + c*channel_stride].
// A conv or FC fire leaves it HWC (pixel stride cstride, channel stride 1,
// padding lanes kNoSpike), the input encoding CHW (pixel stride 1, channel
// stride h*w), and pool_steps HWC at padded(c).
struct StepGrid {
  const int* steps = nullptr;
  std::int64_t c = 0, h = 0, w = 0;
  std::int64_t pixel_stride = 0, channel_stride = 0;
};

// Earliest-spike pooling: out[(oy*ow + ox)*padded(c) + ch] is the least fire
// step over the kernel x kernel window of channel ch at (oy*stride,
// ox*stride), as an unsigned min, so kNoSpike (-1) sorts after every step
// and a window with no spike pools to kNoSpike. Padding lanes [c, padded(c))
// come out kNoSpike. An HWC grid at padded(c) takes 8 or 16 lanes per
// vector min; any other layout (the CHW input encoding) runs a scalar
// channel loop.
// Output size: padded(c) * oh * ow with oh = (h - kernel)/stride + 1 and
// ow likewise. `out` may be the steps of an HWC grid at padded(c) (pooling
// in place): output pixel p is written after every read of its own window
// and before any later output's window, which starts at input pixel >= p.
// Any other grid must not overlap `out`.
void pool_steps(const StepGrid& in, std::int64_t kernel, std::int64_t stride, int* out);

// --- Layer integration kernels ----------------------------------------------

// Conv-layer geometry for the event path. `cstride` is padded(cout): both
// the weight pack rows and the accumulator rows use it.
struct ConvGeom {
  std::int64_t cin = 0, hin = 0, win = 0;    // input spike grid (C, H, W)
  std::int64_t cout = 0, cstride = 0;        // real / padded output channels
  std::int64_t kh = 0, kw = 0;               // kernel taps
  std::int64_t stride = 1, pad = 0;
  std::int64_t oh = 0, ow = 0;               // output pixel grid
};

// Integrates an entire layer's incoming spike train (already (step, neuron)
// sorted) into the HWC accumulator rows of output rows [yo0, yo1).
// `w` is the slot-major padded pack: slot conv_slot(ci, ky, kx, kh, kw) =
// (ci*kh + ky)*kw + (kw-1-kx) holds cstride contiguous floats, so a stride-1
// spike updates each reached output row with one ncols*cstride-lane add.
// Timestep groups are consumed in order with one level lookup per step;
// within [yo0, yo1) the accumulator is tiled into acc_block_bytes() row
// blocks, each block replaying the full spike train so its rows stay
// cache-resident. Per-accumulator contribution order is
// exactly the sequential spike order regardless of blocking or the caller's
// [yo0, yo1) partitioning (disjoint rows), so any split is bit-identical.
// Returns the integration ops performed (real cout per applied tap — padding
// lanes are not counted).
std::int64_t integrate_conv(const ConvGeom& g, const float* w, const Spike* spikes,
                            std::int64_t nspikes, const ThresholdLut& lut, float* acc,
                            std::int64_t yo0, std::int64_t yo1);

// FC integration over output columns [j0, j1) (caller-aligned to kLaneFloats
// except at the real boundaries). `w` is the column-major padded pack: input
// i's column is ostride contiguous floats. Same blocking and ordering
// contract as integrate_conv. Returns real ops ((j0,j1)∩[0,out) columns per
// spike).
std::int64_t integrate_fc(std::int64_t out, std::int64_t ostride, const float* w,
                          const Spike* spikes, std::int64_t nspikes, const ThresholdLut& lut,
                          float* acc, std::int64_t j0, std::int64_t j1);

// --- Quantized (fixed-point) integration kernels ---------------------------
//
// Integer variants of the two layer kernels for the quantized path (quant.h):
// weights are int16 sign+exponent codes, the accumulator is a saturating
// int32 fixed-point register, and each synaptic add is the cat::LogPe
// LUT/barrel-shift product — bit-identical to LogPe::accumulate, so the
// traces these kernels produce can be co-simulated against hw/processor
// exactly. Each runs the float kernel's own walk (kernels.cpp:
// integrate_conv_walk, integrate_fc_walk) with an integer per-group product
// table and per-span saturating add in place of the level lookup and axpy,
// so blocking, add order and op accounting are the float kernels' by
// construction. The span add is scalar only: it models one PE lane.

// Upper bound on a layer's weight-code range q_hi - q_lo + 1: the kernels
// table one product per distinct code per timestep group on the stack, so the
// pack build rejects layers with a wider range (real log-quantized layers use
// 2^(bits-1) - 1 < 16 codes; see cat/logquant.h).
inline constexpr int kMaxQuantCodes = 256;

// Fixed-point geometry of one integration call, derived from the pack
// (quant.h) once per layer. All power-of-two scale factors are premultiplied.
struct QuantKernelParams {
  const std::int64_t* lut = nullptr;  // 2^frac_bits entries, lut_bits f.p.
  int frac_bits = 0;      // f = max(p, z): exponent codes are units of 2^-f
  int lut_bits = 0;       // fractional bits of each LUT entry
  int acc_frac_bits = 0;  // fractional bits of the int32 accumulator
  std::int64_t acc_limit = 0;  // 1 << (acc_int_bits + acc_frac_bits); the
                               // accumulator saturates to [-limit, limit - 1]
  int wmul = 0;  // 1 << (f - z): scales a weight code q to units of 2^-f
  int smul = 0;  // 1 << (f - p): scales a spike step to units of 2^-f
  int q_lo = 0, q_hi = 0;  // this layer's weight-code range (tabling bound)
};

// Conv counterpart of integrate_conv: `w` is the slot-major int16 code pack
// (kQuantZeroCode lanes contribute nothing), `acc` the HWC int32 accumulator
// at the same cstride. Identical tap geometry, blocking and op counting.
std::int64_t integrate_conv_q(const ConvGeom& g, const std::int16_t* w, const Spike* spikes,
                              std::int64_t nspikes, const QuantKernelParams& qp,
                              std::int32_t* acc, std::int64_t yo0, std::int64_t yo1);

// FC counterpart of integrate_fc over output columns [j0, j1).
std::int64_t integrate_fc_q(std::int64_t out, std::int64_t ostride, const std::int16_t* w,
                            const Spike* spikes, std::int64_t nspikes,
                            const QuantKernelParams& qp, std::int32_t* acc, std::int64_t j0,
                            std::int64_t j1);

}  // namespace kernels
}  // namespace ttfs::snn
