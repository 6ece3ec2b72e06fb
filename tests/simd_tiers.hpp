#pragma once
// The SIMD tiers a test can repeat a check on, one simd::TierOverride at a
// time.

#include <vector>

#include "simd/kernels.hpp"

namespace bayesft::testing {

/// Every tier this build and CPU can run (kScalar always).
inline std::vector<simd::Tier> runnable_tiers() {
    std::vector<simd::Tier> tiers;
    for (const simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2,
                               simd::Tier::kAvx512, simd::Tier::kNeon}) {
        if (simd::tier_available(t)) tiers.push_back(t);
    }
    return tiers;
}

}  // namespace bayesft::testing
