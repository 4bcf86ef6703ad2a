// The processor's log-weight format (paper Eq. 15-16), defined once: a
// nonzero weight is sign * 2^(q * 2^-z). cat::expand_code expands codes
// through it; the int16 pack (quant.h) and the deploy image (cat/deploy.h)
// recover them through its inverse and keep only their own bit layouts.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace ttfs::snn {

// The expansion: 2^(q * 2^-z) in double (the exponent q * 2^-z is exact). A
// weight tensor stores its float rounding, float(log_weight_magnitude(q, z)).
inline double log_weight_magnitude(int q, int z) {
  return std::exp2(static_cast<double>(q) * std::exp2(-z));
}

// The PE's LUT: the 2^f fractional powers 2^(i * 2^-f), each rounded to
// lut_bits fractional bits.
inline std::vector<std::int64_t> log_pe_lut(int f, int lut_bits) {
  std::vector<std::int64_t> lut(std::size_t{1} << f);
  for (std::size_t i = 0; i < lut.size(); ++i) {
    lut[i] = std::lround(log_weight_magnitude(static_cast<int>(i), f) * std::exp2(lut_bits));
  }
  return lut;
}

// The exact inverse on stored weights: the q whose expansion rounds to |w|
// in float. A zero, non-finite or off-grid weight has no code and is
// refused (nullopt), never snapped to the nearest one. The round-trip
// comparison decides; log2 only proposes q, and float precision suffices
// for that: for a grid value, log2f(|w|) * 2^z misses q by < 0.01 at z <= 8.
inline std::optional<int> log_weight_code(float w, int z) {
  const float mag = std::fabs(w);
  if (!(mag > 0.0F) || !std::isfinite(mag)) return std::nullopt;
  const auto q = static_cast<int>(std::lround(std::log2(mag) * std::exp2(static_cast<float>(z))));
  if (static_cast<float>(log_weight_magnitude(q, z)) != mag) return std::nullopt;
  return q;
}

}  // namespace ttfs::snn
