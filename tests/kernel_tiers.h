// Shared by the kernel conformance suites: the float-kernel tiers this build
// and CPU run (snn/simd.h), and a scoped dispatch cap, so one test binary
// asserts every tier against the same oracle.
#pragma once

#include <vector>

#include "snn/simd.h"

namespace ttfs::kernel_test {

// Every tier from the portable one up to supported_tier(), lowest first.
inline std::vector<snn::kernels::Tier> runnable_tiers() {
  using snn::kernels::Tier;
  std::vector<Tier> tiers;
  for (const Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (t <= snn::kernels::supported_tier()) tiers.push_back(t);
  }
  return tiers;
}

// RAII: run no kernel tier above `max` for one scope; lift the cap on exit.
struct ScopedTier {
  explicit ScopedTier(snn::kernels::Tier max) { snn::kernels::cap_tier(max); }
  ~ScopedTier() { snn::kernels::cap_tier(snn::kernels::Tier::kAvx512); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
};

}  // namespace ttfs::kernel_test
