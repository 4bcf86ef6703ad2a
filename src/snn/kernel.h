// TTFS kernels: the paper's base-2 kernel (Eq. 9) and the T2FSNN base-e
// kernel (Eq. 5) it replaces.
//
// Canonical semantics (DESIGN.md Sec. 4): during a fire phase of T integer
// steps k = 0..T-1 the dynamic threshold is theta(k) = theta0 * kernel(k);
// a neuron with final membrane u emits its single spike at the first step
// where u >= theta(k). The downstream layer decodes a spike at step k back to
// theta0 * kernel(k). fire_step()/decode() are shared verbatim by the ANN
// TTFS activation, the SNN simulator and the hardware encoder model, which is
// what makes CAT's "zero representation error" claim hold bit-exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace ttfs::snn {

// Marker for "neuron never fires inside the window".
constexpr int kNoSpike = -1;

// Base-2 kernel kappa(t) = 2^(-t/tau), shared by all layers (paper Eq. 9).
// tau must be a power of two for the logarithmic hardware path (Eq. 18), but
// the class itself accepts any tau > 0 so ablations can break the constraint.
class Base2Kernel {
 public:
  Base2Kernel(int window, double tau, double theta0 = 1.0)
      : window_{window}, tau_{tau}, theta0_{theta0} {
    TTFS_CHECK_MSG(window > 0 && tau > 0.0 && theta0 > 0.0,
                   "bad kernel params T=" << window << " tau=" << tau << " theta0=" << theta0);
  }

  int window() const { return window_; }
  double tau() const { return tau_; }
  double theta0() const { return theta0_; }

  // Quantization level at step k: theta0 * 2^(-k/tau), rounded to float.
  // Rounding through float makes every level an exact fixed point of the
  // float tensor pipeline: decode(k) stored in a float tensor re-encodes to
  // exactly k, which the SNN<->ANN bit-exactness tests rely on.
  double level(int k) const {
    return static_cast<float>(theta0_ * std::exp2(-static_cast<double>(k) / tau_));
  }

  // Smallest representable non-zero value: level(T-1).
  double min_level() const { return level(window_ - 1); }

  // First step k in [0, T-1] with u >= level(k); kNoSpike if none (u too
  // small, zero or negative). Robust at exact grid points: the log-domain
  // estimate is refined with direct comparisons so level(k) inputs round-trip.
  int fire_step(double u) const {
    if (u < min_level() || u <= 0.0) return kNoSpike;
    if (u >= theta0_) return 0;
    int k = static_cast<int>(std::ceil(-tau_ * std::log2(u / theta0_)));
    if (k < 0) k = 0;
    if (k > window_ - 1) k = window_ - 1;
    while (k > 0 && u >= level(k - 1)) --k;
    while (k <= window_ - 1 && u < level(k)) ++k;
    return k <= window_ - 1 ? k : kNoSpike;
  }

  // phi_TTFS(u): the value the SNN will reconstruct for membrane u — exactly
  // decode(fire_step(u)), 0 when no spike is emitted.
  double quantize(double u) const {
    const int k = fire_step(u);
    return k == kNoSpike ? 0.0 : level(k);
  }

  // All representable non-zero levels, descending (threshold LUT contents).
  std::vector<double> levels() const {
    std::vector<double> out(static_cast<std::size_t>(window_));
    for (int k = 0; k < window_; ++k) out[static_cast<std::size_t>(k)] = level(k);
    return out;
  }

 private:
  int window_;
  double tau_;
  double theta0_;
};

// Base-e kernel eps(t) = exp(-(t - td)/tau) with per-layer delay td and time
// constant tau (T2FSNN, paper Eq. 5). Same fire/decode contract as
// Base2Kernel. The threshold at step k is theta0 * exp(-(k - td)/tau); td>0
// raises early thresholds so large membranes are spread over more steps.
class BaseEKernel {
 public:
  BaseEKernel(int window, double tau, double td, double theta0 = 1.0)
      : window_{window}, tau_{tau}, td_{td}, theta0_{theta0} {
    TTFS_CHECK(window > 0 && tau > 0.0 && theta0 > 0.0);
  }

  int window() const { return window_; }
  double tau() const { return tau_; }
  double td() const { return td_; }
  double theta0() const { return theta0_; }

  // Float-rounded for the same fixed-point property as Base2Kernel::level.
  double level(int k) const {
    return static_cast<float>(theta0_ * std::exp(-(static_cast<double>(k) - td_) / tau_));
  }
  double min_level() const { return level(window_ - 1); }

  int fire_step(double u) const {
    if (u <= 0.0 || u < min_level()) return kNoSpike;
    if (u >= level(0)) return 0;
    // The closed form k = ceil(td - tau*ln(u/theta0)) can be off by one in
    // floating point; clamp then refine by direct comparison.
    int k = static_cast<int>(std::ceil(td_ - tau_ * std::log(u / theta0_)));
    if (k < 0) k = 0;
    if (k > window_ - 1) k = window_ - 1;
    while (k > 0 && u >= level(k - 1)) --k;
    while (k <= window_ - 1 && u < level(k)) ++k;
    return k <= window_ - 1 ? k : kNoSpike;
  }

  double quantize(double u) const {
    const int k = fire_step(u);
    return k == kNoSpike ? 0.0 : level(k);
  }

 private:
  int window_;
  double tau_;
  double td_;
  double theta0_;
};

// Precomputed threshold LUT over one kernel's window: the descending level
// sequence theta(0..T-1), materialized once so the per-event hot paths (the
// simulator's integration and fire phases, T2FSNN kernel tuning) replace a
// transcendental per call with an array read plus an O(log T) search.
//
// fire_step() is bit-identical to Kernel::fire_step by construction: levels
// are float-rounded through Kernel::level, so the sequence is non-increasing
// and the predicate "u < level(k)" is monotone in k — partition_point finds
// the same first step the refinement loop does, ties included (asserted
// exhaustively in tests).
//
// The LUT also keeps the levels as floats for the comparator-bank fire kernel
// (simd.h: fire_steps), which counts the levels a float membrane lies below
// instead of searching. The constructor checks the three facts that make the
// count equal fire_step for every float u: the levels are positive, do not
// increase, and are exactly representable as floats. (Base2Kernel's step-0
// boundary top_ is its unrounded theta0, but no float lies in
// [theta0, float(theta0)), so the count cannot tell them apart.)
class ThresholdLut {
 public:
  // The step-0 short circuit differs per kernel family — Base2Kernel compares
  // against the *unrounded* theta0, BaseEKernel against the rounded level(0) —
  // so each constructor captures its kernel's exact boundary in top_.
  explicit ThresholdLut(const Base2Kernel& kernel) { init(kernel, kernel.theta0()); }
  explicit ThresholdLut(const BaseEKernel& kernel) { init(kernel, kernel.level(0)); }

  int window() const { return static_cast<int>(levels_.size()); }
  double level(int k) const { return levels_[static_cast<std::size_t>(k)]; }
  const std::vector<double>& levels() const { return levels_; }
  // The same levels as floats (exact), for the float fire kernel.
  const float* float_levels() const { return float_levels_.data(); }

  // First step k with u >= level(k); kNoSpike when u can't reach any level.
  int fire_step(double u) const {
    if (u <= 0.0 || u < levels_.back()) return kNoSpike;
    if (u >= top_) return 0;
    const auto it = std::partition_point(levels_.begin(), levels_.end(),
                                         [u](double lv) { return u < lv; });
    return static_cast<int>(it - levels_.begin());
  }

  // decode(fire_step(u)): the value the spike reconstructs, 0 when silent.
  double quantize(double u) const {
    const int k = fire_step(u);
    return k == kNoSpike ? 0.0 : levels_[static_cast<std::size_t>(k)];
  }

 private:
  template <typename Kernel>
  void init(const Kernel& kernel, double top) {
    levels_.resize(static_cast<std::size_t>(kernel.window()));
    float_levels_.resize(levels_.size());
    for (int k = 0; k < kernel.window(); ++k) {
      const double lv = kernel.level(k);
      const auto flv = static_cast<float>(lv);
      TTFS_CHECK_MSG(static_cast<double>(flv) == lv && lv > 0.0 &&
                         (k == 0 || lv <= levels_[static_cast<std::size_t>(k - 1)]),
                     "threshold level " << k << " = " << lv
                                        << " is not a positive, non-increasing float");
      levels_[static_cast<std::size_t>(k)] = lv;
      float_levels_[static_cast<std::size_t>(k)] = flv;
    }
    top_ = top;
  }

  std::vector<double> levels_;       // descending; size == window
  std::vector<float> float_levels_;  // levels_, exactly, as floats
  double top_ = 0.0;                 // u >= top_ always fires at step 0
};

}  // namespace ttfs::snn
