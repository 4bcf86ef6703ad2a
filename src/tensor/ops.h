// Elementwise and reduction helpers shared across the library.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace ttfs {

float sum(const Tensor& t);
float mean(const Tensor& t);

// Index of the maximum element in row `row` of a 2-D tensor.
std::int64_t argmax_row(const Tensor& t, std::int64_t row);

}  // namespace ttfs
