// Bit-faithful model of the logarithmic processing element (paper Eq. 17).
//
// A spike at step k carries the activation exponent -k/tau; a log-quantized
// weight carries exponent q*2^(-z) and a sign. With tau = 2^p (Eq. 18's
// constraint) both exponents live on the grid 2^(-f), f = max(p, z), so the
// product exponent is an integer E in units of 2^(-f):
//     w * kappa(k) = sign(w) * 2^(E/2^f)
//                  = sign(w) * (LUT[E mod 2^f] << (E div 2^f))      (Eq. 17)
// where LUT holds the 2^f fractional powers 2^(i/2^f) in fixed point. The PE
// therefore needs one small adder, a 2^f-entry LUT and a barrel shifter —
// this class reproduces that datapath with integer arithmetic so tests can
// bound its error against the float reference and check the quantized
// simulator's kernels against it add for add.
#pragma once

#include <cstdint>
#include <vector>

#include "snn/kernel.h"

namespace ttfs::cat {

struct LogPeConfig {
  int p = 2;             // tau = 2^p (paper: tau = 4 -> p = 2)
  int z = 1;             // weight log step = 2^-z (paper: a_w = 2^-1/2 -> z = 1)
  int lut_bits = 12;       // fixed-point fractional bits of the 2^frac LUT
  int acc_frac_bits = 20;  // fractional bits of the membrane accumulator
  int acc_int_bits = 12;   // integer bits; the accumulator saturates at
                           // +-2^acc_int_bits like the hardware's Vmem register

  int frac_bits() const { return p > z ? p : z; }  // f = max(p, z)
  int lut_entries() const { return 1 << frac_bits(); }
};

// One PE lane: accumulates sign * (LUT[frac] << int_part) into a fixed-point
// membrane register.
class LogPe {
 public:
  explicit LogPe(LogPeConfig config);

  // Exponent code of a weight |w| = 2^(q * 2^-z): E_w in units of 2^-f.
  std::int32_t weight_exponent_code(int q) const;
  // Exponent code of a spike at step k with kernel tau = 2^p.
  std::int32_t spike_exponent_code(int step) const;

  // Accumulates w * kappa(step) where the weight is (sign, q). Returns the
  // value added, in accumulator LSBs; a product past 2*limit - 1 (limit =
  // 2^(acc_int_bits + acc_frac_bits)) is capped there, since from any
  // register value it saturates to the same rail.
  std::int64_t accumulate(int sign, int q, int step);

  // Current membrane value converted back to double.
  double membrane() const;
  void reset() { acc_ = 0; }

  // The LUT contents (fixed point, lut_bits fractional bits).
  const std::vector<std::int64_t>& lut() const { return lut_; }
  const LogPeConfig& config() const { return config_; }

 private:
  LogPeConfig config_;
  std::vector<std::int64_t> lut_;
  std::int64_t acc_ = 0;
};

}  // namespace ttfs::cat
