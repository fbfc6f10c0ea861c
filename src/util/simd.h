#ifndef WSD_UTIL_SIMD_H_
#define WSD_UTIL_SIMD_H_

namespace wsd {
namespace simd {

/// The scan has one path, byte loops, and every host runs it (see
/// docs/ARCHITECTURE.md, "Why the scan runs byte loops only"). This
/// one-value stub exists only because perfbench/src/common.cc prints
/// TierName(ActiveTier()) in its environment header, and only a change
/// to the benchmark itself may edit perfbench/. Include it nowhere else.
enum class Tier : int { kScalar = 0 };

inline Tier ActiveTier() { return Tier::kScalar; }

inline const char* TierName(Tier) { return "scalar"; }

}  // namespace simd
}  // namespace wsd

#endif  // WSD_UTIL_SIMD_H_
