// The AVX2 tier of the float event kernels: kernels_tier.inc built with
// -mavx2 -mfma (src/CMakeLists.txt). Exports kAvx2Kernels, which kernels.cpp
// dispatches to only on a CPU that reports AVX2.
#define TTFS_KERNEL_TIER 1
#include "snn/kernels_tier.inc"
