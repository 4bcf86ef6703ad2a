#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "cat/logpe.h"
#include "cat/logquant.h"
#include "util/rng.h"

namespace ttfs::cat {
namespace {

TEST(LogQuant, ConfigDerivedQuantities) {
  LogQuantConfig c;
  c.bits = 5;
  c.z = 1;
  EXPECT_DOUBLE_EQ(c.step(), 0.5);
  EXPECT_EQ(c.magnitude_levels(), 15);
  c.z = 0;
  EXPECT_DOUBLE_EQ(c.step(), 1.0);
  c.bits = 4;
  EXPECT_EQ(c.magnitude_levels(), 7);
}

TEST(LogQuant, ValuesSnapToPowerGrid) {
  LogQuantConfig c;
  c.bits = 5;
  c.z = 1;
  // fsr = 1.0: levels are 2^(q/2) for q in [-14, 0].
  EXPECT_DOUBLE_EQ(log_quantize_value(1.0, 1.0, c), 1.0);
  EXPECT_DOUBLE_EQ(log_quantize_value(0.5, 1.0, c), 0.5);
  const double v = log_quantize_value(0.6, 1.0, c);
  const double expected = std::exp2(std::lround(std::log2(0.6) / 0.5) * 0.5);
  EXPECT_DOUBLE_EQ(v, expected);
  // Sign preserved.
  EXPECT_DOUBLE_EQ(log_quantize_value(-0.5, 1.0, c), -0.5);
  EXPECT_DOUBLE_EQ(log_quantize_value(0.0, 1.0, c), 0.0);
}

TEST(LogQuant, UnderflowToZeroCode) {
  LogQuantConfig c;
  c.bits = 4;  // 7 levels
  c.z = 0;     // octave steps: levels 2^0 .. 2^-6 around fsr=1
  EXPECT_DOUBLE_EQ(log_quantize_value(1.0, 1.0, c), 1.0);
  EXPECT_DOUBLE_EQ(log_quantize_value(std::exp2(-6), 1.0, c), std::exp2(-6));
  EXPECT_DOUBLE_EQ(log_quantize_value(1e-4, 1.0, c), 0.0);
}

TEST(LogQuant, ClampsAboveFsr) {
  LogQuantConfig c;
  c.bits = 5;
  c.z = 1;
  // Values above FSR snap to at most one rounding step above the top code.
  const double q = log_quantize_value(3.0, 1.0, c);
  EXPECT_LE(q, 1.0 + 1e-12);
}

class QuantSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QuantSweep, RelativeErrorBounded) {
  const auto [bits, z] = GetParam();
  LogQuantConfig c;
  c.bits = bits;
  c.z = z;
  Rng rng{static_cast<std::uint64_t>(bits * 10 + z)};
  // Values within the representable dynamic range get bounded relative error:
  // a half-step in log2 domain = factor 2^(step/2).
  const double max_rel = std::exp2(c.step() / 2.0) - 1.0;
  const double dyn_range = std::exp2(-(c.magnitude_levels() - 1) * c.step());
  for (int i = 0; i < 2000; ++i) {
    const double w = rng.uniform(dyn_range * 2.0, 1.0);
    const double q = log_quantize_value(w, 1.0, c);
    ASSERT_NE(q, 0.0) << "w=" << w;
    EXPECT_LE(std::fabs(q - w) / w, max_rel + 1e-9) << "w=" << w;
  }
}

TEST_P(QuantSweep, CodeCountRespectsBitwidth) {
  const auto [bits, z] = GetParam();
  LogQuantConfig c;
  c.bits = bits;
  c.z = z;
  Rng rng{static_cast<std::uint64_t>(bits * 77 + z)};
  std::set<double> magnitudes;
  for (int i = 0; i < 5000; ++i) {
    const double q = std::fabs(log_quantize_value(rng.uniform(-1.0, 1.0), 1.0, c));
    if (q != 0.0) magnitudes.insert(q);
  }
  EXPECT_LE(static_cast<int>(magnitudes.size()), c.magnitude_levels());
}

INSTANTIATE_TEST_SUITE_P(BitwidthLogBase, QuantSweep,
                         ::testing::Combine(::testing::Values(4, 5, 6, 7, 8),
                                            ::testing::Values(0, 1, 2)));

TEST(LogQuant, TensorStats) {
  Tensor w{{4}, {0.8F, -0.4F, 1e-6F, 0.0F}};
  LogQuantConfig c;
  c.bits = 5;
  c.z = 1;
  const LayerQuantInfo info = log_quantize_tensor(w, c);
  EXPECT_EQ(info.weights, 4);
  EXPECT_EQ(info.zeroed, 1);  // the 1e-6 underflows; exact 0 is not "zeroed"
  EXPECT_NEAR(info.fsr, 0.8, 1e-6);
  EXPECT_GE(info.mse, 0.0);
  // All surviving weights are powers of sqrt(2) scaled by sign.
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    if (w[i] == 0.0F) continue;
    const double l2 = std::log2(std::fabs(static_cast<double>(w[i]))) / 0.5;
    EXPECT_NEAR(l2, std::round(l2), 1e-5);
  }
}

TEST(LogQuant, CeilAnchorNeverShrinksTopWeights) {
  // The code window must cover max|w|: the largest weights quantize to a
  // value >= themselves / one half-step — never systematically down by a full
  // clamp. This is the per-layer scale-preservation property (see logquant.cpp).
  Rng rng{61};
  LogQuantConfig c;
  c.bits = 5;
  c.z = 1;
  for (int trial = 0; trial < 200; ++trial) {
    const double fsr = rng.uniform(0.1, 4.0);
    const double q = log_quantize_value(fsr, fsr, c);
    EXPECT_GE(q, fsr / std::exp2(c.step() / 2.0) - 1e-12) << "fsr=" << fsr;
    EXPECT_LE(q, fsr * std::exp2(c.step()) + 1e-12) << "fsr=" << fsr;
  }
}

TEST(LogPe, LutContents) {
  LogPeConfig cfg;
  cfg.p = 2;
  cfg.z = 1;
  cfg.lut_bits = 12;
  const LogPe pe{cfg};
  EXPECT_EQ(cfg.frac_bits(), 2);
  ASSERT_EQ(pe.lut().size(), 4U);
  // LUT[i] ~= 2^(i/4) in 12-bit fixed point.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(pe.lut()[static_cast<std::size_t>(i)]),
                std::exp2(i / 4.0) * 4096.0, 1.0);
  }
}

TEST(LogPe, ExponentCodes) {
  LogPeConfig cfg;
  cfg.p = 2;  // tau = 4
  cfg.z = 1;  // a_w = 2^-1/2
  const LogPe pe{cfg};
  // f = 2: weight exponent q (units 1/2) -> 2q (units 1/4).
  EXPECT_EQ(pe.weight_exponent_code(-3), -6);
  // spike at step k: -k/4 -> code -k.
  EXPECT_EQ(pe.spike_exponent_code(5), -5);
}

TEST(LogPe, SingleProductMatchesFloat) {
  LogPeConfig cfg;
  cfg.p = 2;
  cfg.z = 1;
  LogPe pe{cfg};
  const snn::Base2Kernel kernel{24, 4.0, 1.0};
  // w = -2^(q/2), spike step k: product = -2^(q/2) * 2^(-k/4).
  for (int q = -10; q <= 0; ++q) {
    for (int k = 0; k < 24; k += 3) {
      pe.reset();
      pe.accumulate(-1, q, k);
      const double expect = -std::exp2(q * 0.5) * kernel.level(k);
      EXPECT_NEAR(pe.membrane(), expect, std::fabs(expect) * 1e-3 + 1e-7)
          << "q=" << q << " k=" << k;
    }
  }
}

TEST(LogPe, AccumulationMatchesFloatSum) {
  LogPeConfig cfg;
  cfg.p = 2;
  cfg.z = 1;
  LogPe pe{cfg};
  const snn::Base2Kernel kernel{24, 4.0, 1.0};
  Rng rng{60};
  double reference = 0.0;
  for (int i = 0; i < 300; ++i) {
    const int sign = rng.bernoulli(0.5) ? 1 : -1;
    const int q = static_cast<int>(rng.uniform_int(-12, 0));
    const int k = static_cast<int>(rng.uniform_int(0, 23));
    pe.accumulate(sign, q, k);
    reference += sign * std::exp2(q * 0.5) * kernel.level(k);
  }
  // Fixed-point accumulation error stays bounded by LUT rounding.
  EXPECT_NEAR(pe.membrane(), reference, 0.01);
}

TEST(LogPe, ZeroSignIsNoop) {
  LogPe pe{LogPeConfig{}};
  EXPECT_EQ(pe.accumulate(0, -3, 5), 0);
  EXPECT_DOUBLE_EQ(pe.membrane(), 0.0);
}

TEST(LogPe, AccumulatorSaturates) {
  LogPeConfig cfg;
  cfg.acc_int_bits = 4;  // saturate at +-16
  LogPe pe{cfg};
  for (int i = 0; i < 64; ++i) pe.accumulate(1, 0, 0);  // +1 each
  EXPECT_NEAR(pe.membrane(), 16.0, 1e-6);
  pe.reset();
  for (int i = 0; i < 64; ++i) pe.accumulate(-1, 0, 0);
  EXPECT_NEAR(pe.membrane(), -16.0, 1e-6);
}

TEST(LogPe, SaturationClampsToTwosComplementRegisterRange) {
  // An N-bit signed Vmem register holds [-2^(N-1), 2^(N-1) - 1] LSBs; the
  // positive rail is one LSB BELOW the power of two. The pre-fix clamp used
  // +limit on both rails, overshooting the representable maximum by one LSB.
  LogPeConfig cfg;
  cfg.acc_int_bits = 4;  // limit = 2^(4 + acc_frac_bits) LSBs = +-16.0
  LogPe pe{cfg};
  for (int i = 0; i < 64; ++i) pe.accumulate(1, 0, 0);
  // Exactly limit - 1 LSBs: 16.0 - 2^-acc_frac_bits, not 16.0.
  EXPECT_DOUBLE_EQ(pe.membrane(), 16.0 - std::exp2(-cfg.acc_frac_bits));
  pe.reset();
  for (int i = 0; i < 64; ++i) pe.accumulate(-1, 0, 0);
  // The negative rail is the full -limit.
  EXPECT_DOUBLE_EQ(pe.membrane(), -16.0);
}

TEST(LogPe, RejectsOverwideAccumulator) {
  // acc_int_bits + acc_frac_bits == 63 would shift 1 into the sign bit of the
  // int64 limit (undefined behaviour pre-fix); the config must be rejected
  // at construction, as must a zero-width integer part.
  LogPeConfig cfg;
  cfg.acc_int_bits = 43;
  cfg.acc_frac_bits = 20;  // 63 bits total
  EXPECT_THROW(LogPe{cfg}, std::invalid_argument);
  LogPeConfig cfg2;
  cfg2.acc_int_bits = 0;
  EXPECT_THROW(LogPe{cfg2}, std::invalid_argument);
  LogPeConfig ok;
  ok.acc_int_bits = 42;
  ok.acc_frac_bits = 20;  // 62 bits: the widest supported register
  EXPECT_NO_THROW(LogPe{ok});
}

TEST(LogPe, RejectsBadConfig) {
  LogPeConfig cfg;
  cfg.p = -1;
  EXPECT_THROW(LogPe{cfg}, std::invalid_argument);
  LogPeConfig cfg2;
  cfg2.p = 9;  // frac_bits > 8 unsupported
  cfg2.z = 9;
  EXPECT_THROW(LogPe{cfg2}, std::invalid_argument);
}

}  // namespace
}  // namespace ttfs::cat
