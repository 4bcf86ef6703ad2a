#include "cat/logquant.h"

#include <cmath>

#include "snn/log_weight.h"
#include "util/check.h"

namespace ttfs::cat {
namespace {

double quantize_with_qmax(double w, int q_max, const LogQuantConfig& config) {
  return expand_code(log_quantize_code(w, q_max, config), config);
}

int qmax_for_fsr(double fsr, const LogQuantConfig& config) {
  TTFS_CHECK(fsr > 0.0);
  // Anchor the top code at ceil(log_a FSR): the representable range always
  // covers max|w|. Rounding the anchor instead can clamp every near-maximum
  // weight *down* by up to half a step; that systematic per-layer shrinkage
  // compounds multiplicatively through depth and drives activations below the
  // TTFS kernel's minimum level (measured: several accuracy points at
  // a_w = 2^-1/2 — see EXPERIMENTS.md).
  return static_cast<int>(std::ceil(std::log2(fsr) / config.step() - 1e-9));
}

}  // namespace

LogQuantCode log_quantize_code(double w, int q_max, const LogQuantConfig& config) {
  LogQuantCode code;
  if (w == 0.0) return code;
  const double s = config.step();
  const double mag = std::fabs(w);
  // lround = round-half-away-from-zero, matching Eq. 15's round() (see the
  // header note on why the tie rule is immaterial for float inputs).
  const int q = static_cast<int>(std::lround(std::log2(mag) / s));
  const int q_min = q_max - (config.magnitude_levels() - 1);
  if (q < q_min) return code;  // underflow -> zero code
  code.zero = false;
  code.sign = w < 0.0 ? -1 : 1;
  code.q = std::min(q, q_max);
  return code;
}

double expand_code(const LogQuantCode& code, const LogQuantConfig& config) {
  if (code.zero) return 0.0;
  const double out = snn::log_weight_magnitude(code.q, config.z);
  return code.sign < 0 ? -out : out;
}

double log_quantize_value(double w, double fsr, const LogQuantConfig& config) {
  TTFS_CHECK(config.bits >= 2 && config.z >= 0);
  return quantize_with_qmax(w, qmax_for_fsr(fsr, config), config);
}

LayerQuantInfo log_quantize_tensor(Tensor& w, const LogQuantConfig& config) {
  TTFS_CHECK(config.bits >= 2 && config.z >= 0 && config.z <= 8);
  LayerQuantInfo info;
  info.weights = w.numel();
  double fsr = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    fsr = std::max(fsr, std::fabs(static_cast<double>(w[i])));
  }
  info.fsr = fsr;
  if (fsr == 0.0) return info;

  info.q_max = qmax_for_fsr(fsr, config);

  double se = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    const double orig = w[i];
    const double q = quantize_with_qmax(orig, info.q_max, config);
    if (q == 0.0 && orig != 0.0) ++info.zeroed;
    se += (orig - q) * (orig - q);
    w[i] = static_cast<float>(q);
  }
  info.mse = se / static_cast<double>(w.numel());
  return info;
}

std::vector<LayerQuantInfo> log_quantize_network(snn::SnnNetwork& net,
                                                 const LogQuantConfig& config) {
  std::vector<LayerQuantInfo> out;
  for (auto& layer : net.mutable_layers()) {
    if (auto* conv = std::get_if<snn::SnnConv>(&layer)) {
      out.push_back(log_quantize_tensor(conv->weight, config));
    } else if (auto* fc = std::get_if<snn::SnnFc>(&layer)) {
      out.push_back(log_quantize_tensor(fc->weight, config));
    }
  }
  return out;
}

}  // namespace ttfs::cat
