#include "snn/quant.h"

#include <algorithm>
#include <cmath>

#include "snn/network.h"
#include "util/check.h"

namespace ttfs::snn {

namespace {

// The encode step of pack.h's layout walk: one float weight -> its pack code,
// widening the layer's code range. The stored value is float(2^(q * 2^-z))
// (cat/logquant expansion), so log2 of it sits within a float ulp of
// q * 2^-z and lround lands on q with huge margin. The exact round-trip check
// below is what makes this sound — a weight that is NOT on the grid
// (unquantized net, or quantized with a different z) fails it instead of
// silently packing the nearest code.
struct CodeEncoder {
  QuantLayerRegs& regs;
  bool any = false;

  std::int16_t operator()(float w) {
    if (w == 0.0F) return kQuantZeroCode;
    const double s = std::exp2(-kQuantZ);
    const double mag = std::fabs(static_cast<double>(w));
    const long q = std::lround(std::log2(mag) / s);
    TTFS_CHECK_MSG(static_cast<float>(std::exp2(static_cast<double>(q) * s)) == std::fabs(w),
                   "weight " << w << " is not on the sign * 2^(q * 2^-" << kQuantZ
                             << ") grid -- log-quantize the network first "
                                "(cat::log_quantize_network with the same z)");
    // code = q*2 + signbit must stay clear of kQuantZeroCode.
    TTFS_CHECK_MSG(q > -(1L << 14) && q < (1L << 14),
                   "weight exponent code " << q << " out of int16 pack range");
    const int qi = static_cast<int>(q);
    regs.q_lo = any ? std::min(regs.q_lo, qi) : qi;
    regs.q_hi = any ? std::max(regs.q_hi, qi) : qi;
    any = true;
    return static_cast<std::int16_t>(qi * 2 + (w < 0.0F ? 1 : 0));
  }
};

// Checks the layer's code range against the kernels' table bound and loads
// its bias registers: `stride` lanes in accumulator LSBs, round-to-nearest
// at 2^-kQuantAccFracBits and saturated to the register range like every
// synaptic add (bias loads first in the PE), 0 in the padding.
void load_regs(const Tensor& bias, std::int64_t stride, QuantLayerRegs& regs) {
  TTFS_CHECK_MSG(regs.q_hi - regs.q_lo + 1 <= kernels::kMaxQuantCodes,
                 "layer weight-code range " << regs.q_lo << ".." << regs.q_hi
                                            << " exceeds the kernel table bound");
  std::int32_t* row = regs.bias_acc.ensure(stride);
  std::fill(row, row + stride, 0);
  regs.has_bias = !bias.empty();
  for (std::int64_t i = 0; i < bias.numel(); ++i) {
    const std::int64_t v =
        std::llround(static_cast<double>(bias[i]) * std::exp2(kQuantAccFracBits));
    row[i] = static_cast<std::int32_t>(std::clamp(v, -kQuantAccLimit, kQuantAccLimit - 1));
  }
}

}  // namespace

QuantizedWeightPack build_quantized_pack(const SnnNetwork& net) {
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
  pack.p = p;

  // LUT entries are bit-identical to cat::LogPe's (same lround expression),
  // which is what makes the kernels' products match LogPe::accumulate exactly.
  const std::int64_t entries = std::int64_t{1} << pack.frac_bits();
  pack.lut.resize(static_cast<std::size_t>(entries));
  for (std::int64_t i = 0; i < entries; ++i) {
    const double value = std::exp2(static_cast<double>(i) / static_cast<double>(entries));
    pack.lut[static_cast<std::size_t>(i)] = std::lround(value * std::exp2(kQuantLutBits));
  }

  pack.layers.reserve(net.layers().size());
  for (const SnnLayer& layer : net.layers()) {
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      QuantizedConv qc;
      pack_conv_weights(conv->weight, kQuantZeroCode, CodeEncoder{qc}, qc);
      load_regs(conv->bias, qc.cstride, qc);
      pack.layers.emplace_back(std::move(qc));
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      QuantizedFc qf;
      pack_fc_weights(fc->weight, kQuantZeroCode, CodeEncoder{qf}, qf);
      load_regs(fc->bias, qf.ostride, qf);
      pack.layers.emplace_back(std::move(qf));
    } else {
      pack.layers.emplace_back(std::monostate{});
    }
  }
  return pack;
}

void SnnNetwork::ensure_quantized() const {
  quantized_.ensure([this] { return build_quantized_pack(*this); });
}

}  // namespace ttfs::snn
