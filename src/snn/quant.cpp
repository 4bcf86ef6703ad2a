#include "snn/quant.h"

#include <algorithm>
#include <cmath>

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

}  // namespace ttfs::snn
