// Quantized integer inference path: the log-quantized weight pack and the
// fixed-point event simulator that runs on it.
//
// The paper's premise is log-quantized weights driving a shift-add PE
// (Eq. 15-17): every weight is sign * 2^(q * 2^-z) and every spike at step k
// carries the activation exponent -k/tau with tau = 2^p, so a synaptic
// product is one exponent add, one 2^f-entry LUT read (f = max(p, z)) and a
// barrel shift into a fixed-point membrane accumulator — cat::LogPe models
// that datapath one lane at a time. This header packages the same arithmetic
// as a full inference backend:
//
//  * QuantizedWeightPack stores each weight as its exponent code `q` plus a
//    sign, in one int16 lane per weight — half the float pack's footprint —
//    in the float pack's own layout and geometry fields (pack.h: the same
//    ConvPack/FcPack walk, with int16 lanes), so the integer kernels
//    (simd.h: integrate_conv_q / integrate_fc_q) walk identical strides.
//  * run_quantized_event_sim_span is the float event simulator's own driver
//    (event_sim.cpp) run on a fixed-point membrane format: every membrane
//    add is the LogPe LUT/barrel-shift product into a saturating int32
//    accumulator, and nothing else about the walk differs. Spike maps, op
//    counts and encoder cycles are asserted to match the float event sim
//    and hw/processor co-simulation exactly; the logits differ only by the
//    fixed-point rounding bound documented in README ("Quantized
//    inference").
//
// Pack codes: code = q * 2 + (sign < 0), with kQuantZeroCode marking zero
// weights and padding lanes. The code stores the *quantizer-domain* q (units
// of 2^-z, the log-weight format of snn/log_weight.h) — the kernels scale it
// to LUT-domain units of 2^-f at integration time — so a pack round-trips the
// exact codes cat::log_quantize_code emitted, independent of the kernel's tau.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "snn/pack.h"

namespace ttfs::snn {

class SnnNetwork;
class SimArena;      // event_sim.h
struct EventTrace;   // event_sim.h

// Sentinel for "this lane holds no weight": zero weights (the quantizer's
// underflow code) and the [real, padded) tail of each span. Chosen outside
// every representable q*2+sign code (|q| <= 2^14 - 1 is checked at build).
inline constexpr std::int16_t kQuantZeroCode = INT16_MIN;

// The processor's log-PE datapath widths (Eq. 17-18, Fig. 5), fixed at
// compile time like the hardware's, and their only copy: the _q kernels read
// them and cat::LogPeConfig defaults to them. kQuantZ must match the
// quantizer that produced the weights (paper a_w = 2^-1/2 -> z = 1); p comes
// from the network's tau = 2^p (Eq. 18). The accumulator LSB, 2^-24, is the
// float path's own ulp around |u| = 1, which is what lets the integer
// simulator reproduce the float one's spike decisions on converted nets.
inline constexpr int kQuantZ = 1;             // weight log step 2^-z
inline constexpr int kQuantLutBits = 24;      // fractional bits of the 2^(i/2^f) LUT entries
inline constexpr int kQuantAccFracBits = 24;  // fractional bits of the membrane accumulator
inline constexpr int kQuantAccIntBits = 7;    // integer bits of the membrane accumulator
static_assert(kQuantZ >= 0 && kQuantZ <= 8, "z must be in [0, 8] (2^8-entry LUT cap)");
static_assert(kQuantLutBits >= 1 && kQuantLutBits <= 30, "lut_bits must be in [1, 30]");
static_assert(kQuantAccIntBits >= 1 && kQuantAccFracBits >= 1 &&
                  kQuantAccIntBits + kQuantAccFracBits <= 31,
              "the accumulator must fit a two's-complement int32 register");
// The accumulator saturates to [-kQuantAccLimit, kQuantAccLimit - 1] LSBs.
inline constexpr std::int64_t kQuantAccLimit = std::int64_t{1}
                                               << (kQuantAccIntBits + kQuantAccFracBits);

// Per-layer registers of the quantized pack beyond the int16 code lanes:
// the bias preloaded in accumulator LSBs and the layer's code range
// [q_lo, q_hi], so the kernels can table the per-timestep products once per
// spike group.
struct QuantLayerRegs {
  kernels::AlignedBuffer<std::int32_t> bias_acc;  // one entry per padded lane (0 pad)
  bool has_bias = false;
  int q_lo = 0, q_hi = 0;  // weight-code range (0, 0 when all-zero)

  std::size_t bytes() const {
    return static_cast<std::size_t>(bias_acc.size()) * sizeof(std::int32_t);
  }
};

struct QuantizedConv : ConvPack<std::int16_t>, QuantLayerRegs {
  std::size_t bytes() const { return ConvPack::bytes() + QuantLayerRegs::bytes(); }
};

struct QuantizedFc : FcPack<std::int16_t>, QuantLayerRegs {
  std::size_t bytes() const { return FcPack::bytes() + QuantLayerRegs::bytes(); }
};

struct QuantizedWeightPack : LayerPack<QuantizedConv, QuantizedFc> {
  int p = 0;  // kernel tau = 2^p, recovered at build
  std::vector<std::int64_t> lut;  // 2^f entries, kQuantLutBits fixed point
                                  // — bit-identical to LogPe::lut()

  int frac_bits() const { return p > kQuantZ ? p : kQuantZ; }  // f = max(p, z)
  // Codes + bias registers + LUT.
  std::size_t bytes() const {
    return LayerPack::bytes() + lut.size() * sizeof(std::int64_t);
  }
};
using QuantizedLayer = QuantizedWeightPack::Layer;

// Builds the pack from a network whose conv/fc weights are already
// log-quantized (cat::log_quantize_network) with z = kQuantZ. Every nonzero
// weight must be *exactly* float(2^(q * 2^-z)) for some q — the build
// recovers q through log_weight_code, throwing with a pointer to the
// quantizer for a weight off the grid — so the pack's codes are exactly the
// codes the quantizer emitted (asserted in tests/snn_quant_test.cpp). The
// kernel must satisfy the hardware constraints: theta0 == 1 and tau = 2^p.
// Callers normally go through SnnNetwork::ensure_quantized instead.
QuantizedWeightPack build_quantized_pack(const SnnNetwork& net);

namespace detail {
// Quantized counterpart of run_event_sim_span: one (C, H, W) sample through
// the network's quantized pack (SnnNetwork::ensure_quantized must have run).
// The same driver as the float simulator, so spike ordering, op and cycle
// accounting and the intra-sample split are shared; membranes accumulate in
// int32 LogPe arithmetic and logits are the accumulators scaled back to
// float. Fills `into` in place like run_event_sim_span. Defined in
// event_sim.cpp.
void run_quantized_event_sim_span(const SnnNetwork& net, const float* image, std::int64_t c,
                                  std::int64_t h, std::int64_t w, SimArena& arena,
                                  EventTrace& into);
}  // namespace detail

}  // namespace ttfs::snn
