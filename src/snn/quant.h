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
//    laid out exactly like the float event pack (conv slot-major at cstride
//    through kernels::conv_slot, kx mirrored; fc column-major at ostride;
//    see network.h) so the integer kernels
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
// of 2^-z, per cat/logquant) — the kernels scale it to LUT-domain units of
// 2^-f at integration time — so a pack round-trips the exact codes
// cat::log_quantize_code emitted, independent of the kernel's tau.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "snn/simd.h"

namespace ttfs::snn {

class SnnNetwork;
class SimArena;      // event_sim.h
struct EventTrace;   // event_sim.h

// Sentinel for "this lane holds no weight": zero weights (the quantizer's
// underflow code) and the [real, padded) tail of each span. Chosen outside
// every representable q*2+sign code (|q| <= 2^14 - 1 is checked at build).
inline constexpr std::int16_t kQuantZeroCode = INT16_MIN;

// Fixed-point geometry of the quantized path. `z` must match the quantizer
// that produced the network's weights; the kernel's p comes from the network
// (tau = 2^p is required, Eq. 18). The defaults put the accumulator LSB at
// 2^-24 — the float path's own ulp around |u| = 1 — which is what lets the
// integer simulator reproduce the float simulator's spike decisions exactly
// on converted nets (see README for the tolerance derivation).
struct QuantPackConfig {
  int z = 1;              // weight log step 2^-z (paper a_w = 2^-1/2 -> z = 1)
  int lut_bits = 24;      // fractional bits of the 2^(i/2^f) LUT entries
  int acc_frac_bits = 24; // fractional bits of the membrane accumulator
  int acc_int_bits = 7;   // integer bits; acc_int + acc_frac <= 31 (int32)
};

inline bool operator==(const QuantPackConfig& a, const QuantPackConfig& b) {
  return a.z == b.z && a.lut_bits == b.lut_bits && a.acc_frac_bits == b.acc_frac_bits &&
         a.acc_int_bits == b.acc_int_bits;
}
inline bool operator!=(const QuantPackConfig& a, const QuantPackConfig& b) { return !(a == b); }

// Same geometry fields as PackedConv/PackedFc (network.h) — the integer
// kernels address weight slots and accumulator rows with identical strides —
// plus the layer's code range [q_lo, q_hi] so the kernels can table the
// per-timestep products once per spike group.
struct QuantizedConv {
  std::int64_t cout = 0, cin = 0, kh = 0, kw = 0;
  std::int64_t cstride = 0;  // padded(cout), shared with the float pack
  kernels::AlignedBuffer<std::int16_t> w;        // cin*kh*kw slots of cstride codes
  kernels::AlignedBuffer<std::int32_t> bias_acc; // cstride entries, acc LSBs (0 pad)
  bool has_bias = false;
  int q_lo = 0, q_hi = 0;  // weight-code range (0, 0 when all-zero)
};

struct QuantizedFc {
  std::int64_t out = 0, in = 0;
  std::int64_t ostride = 0;  // padded(out)
  kernels::AlignedBuffer<std::int16_t> w;        // in columns of ostride codes
  kernels::AlignedBuffer<std::int32_t> bias_acc; // ostride entries, acc LSBs
  bool has_bias = false;
  int q_lo = 0, q_hi = 0;
};

// monostate = layer with no weights (pool), like PackedLayer.
using QuantizedLayer = std::variant<std::monostate, QuantizedConv, QuantizedFc>;

struct QuantizedWeightPack {
  QuantPackConfig config;
  int p = 0;  // kernel tau = 2^p, recovered at build
  std::vector<QuantizedLayer> layers;     // index-aligned with net.layers()
  std::vector<std::int64_t> lut;          // 2^f entries, lut_bits fixed point
                                          // — bit-identical to LogPe::lut()

  int frac_bits() const { return p > config.z ? p : config.z; }  // f = max(p, z)
};

// Builds the pack from a network whose conv/fc weights are already
// log-quantized (cat::log_quantize_network) with the same z. Every nonzero
// weight must be *exactly* float(2^(q * 2^-z)) for some q — the build
// recovers q and verifies the round-trip, throwing with a pointer to the
// quantizer otherwise — so the pack's codes are exactly the codes the
// quantizer emitted (asserted in tests/snn_quant_test.cpp). The kernel must
// satisfy the hardware constraints: theta0 == 1 and tau = 2^p (Eq. 18).
// Callers normally go through SnnNetwork::ensure_quantized instead.
QuantizedWeightPack build_quantized_pack(const SnnNetwork& net, const QuantPackConfig& config);

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
