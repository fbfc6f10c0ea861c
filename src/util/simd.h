#ifndef WSD_UTIL_SIMD_H_
#define WSD_UTIL_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace wsd {
namespace simd {

/// Dispatch tiers for the vectorized scan kernels. Selection happens
/// once at startup from CPUID (util/cpu.h) plus the WSD_FORCE_SCALAR env
/// override, and is published as the `wsd.scan.simd_tier` gauge, whose
/// value is the enumerator's (0 scalar, 3 avx2).
///
///  - kScalar: the byte-at-a-time phone/ISBN/review-tokenizer loops and
///    the naive reference builders. Selected on CPUs without AVX2, or
///    via WSD_FORCE_SCALAR.
///  - kAvx2:   256-bit classifiers build the phone/ISBN candidate and
///    word-char planes the extractors walk.
///
/// HTML lexing (the tokenizer and visible-text extraction) runs the same
/// byte loops at both tiers. Both tiers produce bit-identical output
/// (enforced by simd_test, the kernel equivalence tests, and the
/// differential fuzzers); only the bytes/sec differ.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 3,
};

/// Short lower-case name for logs/benches: "scalar", "avx2".
const char* TierName(Tier tier);

/// The tier selected at startup (detection + env override). The first
/// call initializes dispatch, logs one line, and sets the
/// `wsd.scan.simd_tier` gauge; later calls are one relaxed atomic load.
Tier ActiveTier();

/// Every tier this machine can execute, in ascending order: kScalar,
/// plus kAvx2 when the CPU supports it. Tests iterate this to prove
/// per-tier equivalence.
std::vector<Tier> AvailableTiers();

/// Pure tier-selection policy, split out for unit testing: `best` is the
/// strongest tier the CPU supports; `force_scalar` mirrors
/// WSD_FORCE_SCALAR.
Tier ChooseTier(Tier best, bool force_scalar);

/// Temporarily repoints dispatch at `tier` (which must be in
/// AvailableTiers()), for tests and the bench ablation. Restores the
/// previous tier (and the gauge) on destruction. Install before spawning
/// worker threads and destroy after joining them; concurrent overrides
/// are not supported.
class ScopedTierOverride {
 public:
  explicit ScopedTierOverride(Tier tier);
  ~ScopedTierOverride();

  ScopedTierOverride(const ScopedTierOverride&) = delete;
  ScopedTierOverride& operator=(const ScopedTierOverride&) = delete;

 private:
  Tier prev_;
};

/// The per-tier kernel primitives. Each builder writes one bit per input
/// byte into `ceil(n / 64)` little-endian words (bit i of word i/64 is
/// byte i); tail bits past n are zero. Intrinsics live only in
/// util/simd.cc (enforced by wsd_lint's [simd-confinement] rule).
struct ScanOps {
  // bit set iff a phone parse may start at s[i]: digit, '(' or '+',
  // minus digits preceded by a digit (mid-run positions never match).
  void (*build_phone_candidates)(const char* s, size_t n, uint64_t* bits);
  // bit set iff an ISBN run may start at s[i]: a digit not preceded by
  // an ISBN body char (digit, '-', 'X', 'x').
  void (*build_isbn_candidates)(const char* s, size_t n, uint64_t* bits);
  // bit set iff s[i] is a classification word char (alnum or '\'').
  void (*build_word_chars)(const char* s, size_t n, uint64_t* bits);
};

/// Primitive table for the active tier / an explicit tier. OpsForTier
/// of kScalar returns the naive per-byte reference implementations,
/// which double as the oracle in simd_test.
const ScanOps& Ops();
const ScanOps& OpsForTier(Tier tier);

/// One bit per input byte, with capacity reuse across Build calls: a
/// plane grows to its watermark within the first few pages of a scan and
/// allocates nothing afterwards (part of the kernel's steady-state
/// zero-allocation contract).
class BitPlane {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Prepares the plane for `n` input bytes. Word contents are left
  /// stale; a builder overwrites every word including zeroed tail bits.
  void Resize(size_t n) {
    size_ = n;
    const size_t words = (n + 63) / 64;
    if (words > words_.size()) words_.resize(words);
  }

  uint64_t* words() { return words_.data(); }
  size_t size() const { return size_; }

  /// Index of the first set bit at/after `from`, or npos.
  size_t NextSet(size_t from) const {
    const size_t nwords = (size_ + 63) / 64;
    size_t w = from >> 6;
    if (w >= nwords) return npos;
    uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w >= nwords) return npos;
      word = words_[w];
    }
    return (w << 6) + static_cast<size_t>(std::countr_zero(word));
  }

  /// Index of the first clear bit at/after `from`, clamped to size()
  /// (i.e. returns size() when bits are set through the end). Requires
  /// from <= size().
  size_t NextClear(size_t from) const {
    const size_t nwords = (size_ + 63) / 64;
    size_t w = from >> 6;
    if (w >= nwords) return size_;
    uint64_t word = ~words_[w] & (~uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w >= nwords) return size_;
      word = ~words_[w];
    }
    const size_t pos = (w << 6) + static_cast<size_t>(std::countr_zero(word));
    return pos < size_ ? pos : size_;
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// Dispatching wrappers over Ops(). Each Resizes the plane to s.size()
/// first.
inline void BuildPhoneCandidates(std::string_view s, BitPlane* bits) {
  bits->Resize(s.size());
  Ops().build_phone_candidates(s.data(), s.size(), bits->words());
}

inline void BuildIsbnCandidates(std::string_view s, BitPlane* bits) {
  bits->Resize(s.size());
  Ops().build_isbn_candidates(s.data(), s.size(), bits->words());
}

inline void BuildWordChars(std::string_view s, BitPlane* bits) {
  bits->Resize(s.size());
  Ops().build_word_chars(s.data(), s.size(), bits->words());
}

}  // namespace simd
}  // namespace wsd

#endif  // WSD_UTIL_SIMD_H_
