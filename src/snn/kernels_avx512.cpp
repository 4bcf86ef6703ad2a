// The AVX-512F tier of the float event kernels: kernels_tier.inc built with
// -mavx512f (src/CMakeLists.txt). Exports kAvx512Kernels, which kernels.cpp
// dispatches to only on a CPU that reports AVX-512F and AVX2.
#define TTFS_KERNEL_TIER 2
#include "snn/kernels_tier.inc"
