// Logarithmic weight quantization (paper Eq. 15-16, after Vogel et al.).
//
// Weights are snapped to sign * 2^(q*s) where s = 2^(-z) is the log2-domain
// step (z = 0 -> a_w = 2, z = 1 -> a_w = 2^(-1/2), z = 2 -> a_w = 2^(-1/4))
// and q is an integer code. With bitwidth b, a layer keeps 2^(b-1) - 1
// magnitude levels anchored at its full-scale range FSR = max|w| (plus a zero
// code and a sign bit). The constraint log2(a_w) = ±2^(-z) (Eq. 16) is what
// lets the PE replace multiplication with exponent-add + LUT + shift.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "snn/network.h"
#include "tensor/tensor.h"

namespace ttfs::cat {

struct LogQuantConfig {
  int bits = 5;  // total, including sign
  int z = 1;     // log2-domain step = 2^-z; z=1 is the paper's a_w = 2^(-1/2)

  double step() const { return std::exp2(static_cast<double>(-z)); }
  // Magnitude levels available below FSR (Eq. 15's clip range).
  int magnitude_levels() const { return (1 << (bits - 1)) - 1; }
};

struct LayerQuantInfo {
  std::int64_t weights = 0;
  std::int64_t zeroed = 0;   // underflowed to the zero code
  int q_max = 0;             // top exponent code (units of `step` in log2)
  double fsr = 0.0;          // max |w| before quantization
  double mse = 0.0;          // mean squared quantization error
};

// Quantizes a single tensor in place; returns stats. The top code is
// anchored at ceil(log_a max|w|) so the code window always covers the
// largest weights (see the .cpp note on why a rounded anchor systematically
// shrinks layer scales).
LayerQuantInfo log_quantize_tensor(Tensor& w, const LogQuantConfig& config);

// Quantizes every weighted layer of an SNN stack in place (biases are kept in
// full precision — the paper's PEs add the bias once per neuron from a
// separate register, so it is not on the multiply path).
std::vector<LayerQuantInfo> log_quantize_network(snn::SnnNetwork& net,
                                                 const LogQuantConfig& config);

// Reference scalar quantizer (Eq. 15) — exposed for tests.
double log_quantize_value(double w, double fsr, const LogQuantConfig& config);

// Code-level view of the quantizer: the (sign, q) pair before expansion back
// to float. `zero` covers both w == 0 and underflow below the code window.
//
// Rounding note: q is round(log2|w| / s) via lround, which ties away from
// zero. The paper's Eq. 15 writes an unqualified round() over the log2-domain
// ratio, i.e. round-half-away-from-zero — exactly lround's contract — and an
// exact tie requires log2|w|/s to be representable as k + 1/2, a measure-zero
// set for float weights, so the tie rule cannot systematically bias real
// layers either way.
struct LogQuantCode {
  bool zero = true;
  int sign = 0;  // -1 or +1 when !zero
  int q = 0;     // exponent code, units of `step` in the log2 domain
};

// Quantizes one value to its code against a layer anchor q_max. This is the
// authoritative producer of codes: consumers that need q (e.g. the quantized
// weight pack) must take it from here rather than re-deriving it from the
// expanded float — log2 of the expanded value rounds back to a *different*
// code at the clamp edge.
LogQuantCode log_quantize_code(double w, int q_max, const LogQuantConfig& config);

// Expands a code back to the float the quantized tensor stores.
double expand_code(const LogQuantCode& code, const LogQuantConfig& config);

}  // namespace ttfs::cat
