// Weight initialization.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace ttfs::nn {

// He/Kaiming normal init for conv/linear weights: N(0, sqrt(2/fan_in)).
void kaiming_normal(Tensor& w, std::int64_t fan_in, Rng& rng);

}  // namespace ttfs::nn
