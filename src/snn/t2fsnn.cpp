#include "snn/t2fsnn.h"

#include <cmath>

#include "util/check.h"
#include "util/logging.h"

namespace ttfs::snn {
namespace {

// Materialize the kernel's levels once per tensor pass: quantize() through
// the LUT replaces two transcendentals per element with an O(log T) search,
// which is what makes tune_kernels' (td, tau) grid sweep affordable.
Tensor quantize_with(const BaseEKernel& kernel, const Tensor& membrane) {
  const ThresholdLut lut{kernel};
  Tensor out{membrane.shape()};
  for (std::int64_t i = 0; i < membrane.numel(); ++i) {
    out[i] = static_cast<float>(lut.quantize(membrane[i]));
  }
  return out;
}

}  // namespace

double coding_error(const BaseEKernel& kernel, const Tensor& values) {
  const ThresholdLut lut{kernel};
  double se = 0.0;
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < values.numel(); ++i) {
    const double v = values[i];
    if (v <= 0.0) continue;
    const double err = lut.quantize(v) - v;
    se += err * err;
    ++count;
  }
  return count == 0 ? 0.0 : se / static_cast<double>(count);
}

T2fsnnNetwork::T2fsnnNetwork(T2fsnnConfig config, std::vector<SnnLayer> layers)
    : config_{config}, layers_{std::move(layers)} {
  TTFS_CHECK(config.window > 0 && config.tau > 0.0);
  const std::size_t weighted = weighted_layer_count();
  TTFS_CHECK_MSG(weighted >= 1, "empty T2FSNN");
  // Input encoder + one fire kernel per hidden weighted layer.
  for (std::size_t i = 0; i + 1 < weighted + 1; ++i) {
    kernels_.emplace_back(config.window, config.tau, config.td, config.theta0);
  }
}

int T2fsnnNetwork::latency_timesteps() const {
  const int base = (1 + static_cast<int>(weighted_layer_count())) * config_.window;
  return config_.early_firing ? base / 2 : base;
}

Tensor T2fsnnNetwork::forward(const Tensor& images) const {
  TTFS_CHECK(images.rank() == 4);
  return membranes_for_kernel(images, weighted_layer_count());
}

Tensor T2fsnnNetwork::membranes_for_kernel(const Tensor& images, std::size_t stop_at) const {
  return dense_walk(layers_, images, stop_at, [this](std::size_t k, const Tensor& membrane) {
    return quantize_with(kernels_[k], membrane);
  });
}

void T2fsnnNetwork::tune_kernels(const Tensor& calibration_images, int rounds) {
  TTFS_CHECK(calibration_images.rank() == 4 && rounds >= 1);
  const int window = config_.window;

  for (int round = 0; round < rounds; ++round) {
    for (std::size_t ki = 0; ki < kernels_.size(); ++ki) {
      // Membranes this kernel encodes, under the *current* upstream kernels.
      const Tensor membranes = membranes_for_kernel(calibration_images, ki);

      BaseEKernel best = kernels_[ki];
      double best_err = coding_error(best, membranes);
      // Coordinate grid around the current operating point: td spreads the
      // threshold start, tau the decay speed.
      const int td_hi = window / 3;
      const int td_step = std::max(1, window / 24);
      for (int td = 0; td <= td_hi; td += td_step) {
        for (int ti = 0; ti < 8; ++ti) {
          const double tau =
              window / 16.0 + (window / 2.0 - window / 16.0) * ti / 7.0;
          const BaseEKernel cand{window, tau, static_cast<double>(td), config_.theta0};
          const double err = coding_error(cand, membranes);
          if (err < best_err) {
            best_err = err;
            best = cand;
          }
        }
      }
      kernels_[ki] = best;
      TTFS_LOG_DEBUG("t2fsnn kernel " << ki << " round " << round << ": td=" << best.td()
                                      << " tau=" << best.tau() << " mse=" << best_err);
    }
  }
}

}  // namespace ttfs::snn
