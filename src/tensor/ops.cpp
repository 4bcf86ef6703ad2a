#include "tensor/ops.h"

namespace ttfs {

float sum(const Tensor& t) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) acc += t[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& t) {
  TTFS_CHECK(t.numel() > 0);
  return sum(t) / static_cast<float>(t.numel());
}

std::int64_t argmax_row(const Tensor& t, std::int64_t row) {
  TTFS_CHECK(t.rank() == 2);
  const std::int64_t n = t.dim(1);
  std::int64_t best = 0;
  float best_v = t.at(row, 0);
  for (std::int64_t j = 1; j < n; ++j) {
    if (t.at(row, j) > best_v) {
      best_v = t.at(row, j);
      best = j;
    }
  }
  return best;
}

}  // namespace ttfs
