// The portable tier of the float event kernels: kernels_tier.inc built with
// no ISA flag (src/CMakeLists.txt), so it runs on any CPU the compiler
// targets. Exports kPortableKernels.
#define TTFS_KERNEL_TIER 0
#include "snn/kernels_tier.inc"
