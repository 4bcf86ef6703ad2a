#include "nn/init.h"

#include <cmath>

namespace ttfs::nn {

void kaiming_normal(Tensor& w, std::int64_t fan_in, Rng& rng) {
  TTFS_CHECK(fan_in > 0);
  const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0.0F, stddev);
}

}  // namespace ttfs::nn
