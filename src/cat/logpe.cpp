#include "cat/logpe.h"

#include <cmath>

#include "util/check.h"

namespace ttfs::cat {

LogPe::LogPe(LogPeConfig config) : config_{config} {
  TTFS_CHECK(config.p >= 0 && config.z >= 0 && config.lut_bits > 0 && config.acc_frac_bits > 0);
  TTFS_CHECK(config.frac_bits() <= 8);
  // The saturation limit is computed as 1 << (int + frac); keep that shift
  // (and the register width it models) well-defined in int64 arithmetic.
  TTFS_CHECK_MSG(config.acc_int_bits > 0 && config.acc_int_bits + config.acc_frac_bits <= 62,
                 "accumulator width must satisfy 0 < acc_int_bits && "
                 "acc_int_bits + acc_frac_bits <= 62");
  lut_.resize(static_cast<std::size_t>(config_.lut_entries()));
  const int f = config_.frac_bits();
  for (int i = 0; i < config_.lut_entries(); ++i) {
    const double value = std::exp2(static_cast<double>(i) / std::exp2(f));
    lut_[static_cast<std::size_t>(i)] =
        static_cast<std::int64_t>(std::lround(value * std::exp2(config_.lut_bits)));
  }
}

std::int32_t LogPe::weight_exponent_code(int q) const {
  // q is in units of 2^-z; convert to units of 2^-f (f >= z). Multiply
  // instead of shifting: q may be negative and left-shifting a negative
  // value is undefined before C++20.
  return static_cast<std::int32_t>(q) * (std::int32_t{1} << (config_.frac_bits() - config_.z));
}

std::int32_t LogPe::spike_exponent_code(int step) const {
  // Spike exponent is -step / 2^p in log2 domain -> -step * 2^(f-p) in 2^-f.
  return -static_cast<std::int32_t>(step) * (std::int32_t{1} << (config_.frac_bits() - config_.p));
}

std::int64_t LogPe::accumulate(int sign, int q, int step) {
  TTFS_CHECK_MSG(sign == 1 || sign == -1 || sign == 0, "sign must be -1/0/1");
  if (sign == 0) return 0;
  const int f = config_.frac_bits();
  const std::int32_t code = weight_exponent_code(q) + spike_exponent_code(step);
  const std::int32_t mask = (1 << f) - 1;
  const std::int32_t int_part = code >> f;  // arithmetic shift = floor division
  const std::int32_t frac = code & mask;

  // LUT value has lut_bits fractional bits; align to the accumulator's
  // acc_frac_bits via a barrel shift.
  const std::int64_t lut_value = lut_[static_cast<std::size_t>(frac)];
  const int shift = int_part + config_.acc_frac_bits - config_.lut_bits;
  const std::int64_t limit = std::int64_t{1}
                             << (config_.acc_int_bits + config_.acc_frac_bits);
  std::int64_t add;
  if (shift >= 0) {
    // Capped at 2*limit - 1, like the snn quantized kernels' product: any
    // larger product saturates to the same rail from every register value,
    // and the uncapped shift of a large weight code would overflow int64.
    const std::int64_t cap = limit + (limit - 1);  // 2*limit - 1; 2*limit overflows at 62 bits
    add = shift >= 63 || lut_value > (cap >> shift) ? cap : lut_value << shift;
  } else if (-shift < 63) {
    // Round-to-nearest on the right shift (the hardware adds the dropped MSB).
    add = (lut_value + (std::int64_t{1} << (-shift - 1))) >> -shift;
  } else {
    add = 0;
  }
  if (sign < 0) add = -add;
  // Saturating accumulator, like the fixed-width Vmem register in the PE.
  // A two's-complement (int+frac)-bit register holds [-2^(w-1), 2^(w-1) - 1]
  // LSBs; saturating to +limit would overshoot the representable maximum by
  // one LSB. The add is tested against the headroom on each side rather than
  // summed first: in a 62-bit register, acc_ + add could leave int64.
  if (add > limit - 1 - acc_) {
    acc_ = limit - 1;
  } else if (add < -limit - acc_) {
    acc_ = -limit;
  } else {
    acc_ += add;
  }
  return add;
}

double LogPe::membrane() const {
  return static_cast<double>(acc_) / std::exp2(config_.acc_frac_bits);
}

}  // namespace ttfs::cat
