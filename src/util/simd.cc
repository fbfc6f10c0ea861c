// The scalar and AVX2 implementations of the scan-kernel primitives and
// the runtime dispatch that selects between them. This is the only
// translation unit in the library allowed to use <immintrin.h> / vector
// intrinsics (enforced by wsd_lint's [simd-confinement] rule); the AVX2
// functions carry per-function target attributes — never -march=native —
// so one binary carries both tiers and CPUID picks at startup.
//
// All builders share one contract (see ScanOps in simd.h): one bit per
// input byte, 64-byte blocks map to one output word, tail bits past n
// are zero, and the AVX2 tier is bit-identical to the kScalar reference
// (simd_test proves it per primitive; the kernel equivalence tests and
// differential fuzzers prove it end to end).

#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/cpu.h"
#include "util/mutex.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

#if defined(__x86_64__) || defined(__i386__)
#define WSD_SIMD_X86 1
#include <immintrin.h>
#endif

namespace wsd {
namespace simd {

namespace {

bool IsIsbnBody(char c) {
  return IsDigit(c) || c == '-' || c == 'X' || c == 'x';
}

// --------------------------------------------------------------------
// Scalar tier: naive per-byte builders. These double as the reference
// oracle for the AVX2 tier in simd_test, so keep them obvious.
// --------------------------------------------------------------------

void BuildPhoneCandidatesScalar(const char* s, size_t n, uint64_t* bits) {
  const size_t nwords = (n + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t len = n - base < 64 ? n - base : 64;
    uint64_t b = 0;
    for (size_t i = 0; i < len; ++i) {
      const size_t pos = base + i;
      const char c = s[pos];
      const bool cand =
          (IsDigit(c) || c == '(' || c == '+') &&
          !(IsDigit(c) && pos != 0 && IsDigit(s[pos - 1]));
      if (cand) b |= uint64_t{1} << i;
    }
    bits[w] = b;
  }
}

void BuildIsbnCandidatesScalar(const char* s, size_t n, uint64_t* bits) {
  const size_t nwords = (n + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t len = n - base < 64 ? n - base : 64;
    uint64_t b = 0;
    for (size_t i = 0; i < len; ++i) {
      const size_t pos = base + i;
      const bool cand = IsDigit(s[pos]) &&
                        !(pos > 0 && IsIsbnBody(s[pos - 1]));
      if (cand) b |= uint64_t{1} << i;
    }
    bits[w] = b;
  }
}

void BuildWordCharsScalar(const char* s, size_t n, uint64_t* bits) {
  const size_t nwords = (n + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t len = n - base < 64 ? n - base : 64;
    uint64_t b = 0;
    for (size_t i = 0; i < len; ++i) {
      const char c = s[base + i];
      if (IsAlnum(c) || c == '\'') b |= uint64_t{1} << i;
    }
    bits[w] = b;
  }
}

#if WSD_SIMD_X86

// --------------------------------------------------------------------
// AVX2 tier: 32 bytes per load, two loads per 64-byte block. Range
// classes (digits, letters) use saturating subtraction, which is exact
// for all byte values including >= 0x80 (UTF-8 continuation bytes).
//
// Per-block helpers carry the same target attribute as their callers
// (required: GCC only inlines a target-attributed callee into a caller
// whose target is a superset). Lambdas do NOT inherit target
// attributes, so block loops are written out per builder with a
// zero-padded tail block — zero bytes classify as nothing, keeping tail
// bits clear.
// --------------------------------------------------------------------

__attribute__((target("avx2"), always_inline)) inline uint64_t Mask32(
    __m256i m) {
  return static_cast<uint64_t>(
      static_cast<uint32_t>(_mm256_movemask_epi8(m)));
}

__attribute__((target("avx2"), always_inline)) inline __m256i InRange32(
    __m256i x, char lo, char hi) {
  const __m256i zero = _mm256_setzero_si256();
  return _mm256_and_si256(
      _mm256_cmpeq_epi8(_mm256_subs_epu8(x, _mm256_set1_epi8(hi)), zero),
      _mm256_cmpeq_epi8(_mm256_subs_epu8(_mm256_set1_epi8(lo), x), zero));
}

__attribute__((target("avx2"), always_inline)) inline void
PhoneBlockAvx2(const char* p, uint64_t* carry, uint64_t* out) {
  const __m256i vparen = _mm256_set1_epi8('(');
  const __m256i vplus = _mm256_set1_epi8('+');
  const __m256i x0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i x1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  const uint64_t digits = Mask32(InRange32(x0, '0', '9')) |
                          Mask32(InRange32(x1, '0', '9')) << 32;
  const uint64_t starts =
      Mask32(_mm256_or_si256(_mm256_cmpeq_epi8(x0, vparen),
                             _mm256_cmpeq_epi8(x0, vplus))) |
      Mask32(_mm256_or_si256(_mm256_cmpeq_epi8(x1, vparen),
                             _mm256_cmpeq_epi8(x1, vplus)))
          << 32;
  *out = (digits & ~((digits << 1) | *carry)) | starts;
  *carry = digits >> 63;
}

__attribute__((target("avx2"))) void BuildPhoneCandidatesAvx2(
    const char* s, size_t n, uint64_t* bits) {
  const size_t full = n / 64;
  uint64_t carry = 0;
  for (size_t w = 0; w < full; ++w) {
    PhoneBlockAvx2(s + w * 64, &carry, &bits[w]);
  }
  if (n % 64 != 0) {
    char buf[64] = {};
    std::memcpy(buf, s + full * 64, n % 64);
    PhoneBlockAvx2(buf, &carry, &bits[full]);
  }
}

__attribute__((target("avx2"), always_inline)) inline void
IsbnBlockAvx2(const char* p, uint64_t* carry, uint64_t* out) {
  const __m256i vdash = _mm256_set1_epi8('-');
  const __m256i vxu = _mm256_set1_epi8('X');
  const __m256i vxl = _mm256_set1_epi8('x');
  uint64_t digits = 0, body = 0;
  for (int k = 0; k < 2; ++k) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k));
    const __m256i d = InRange32(x, '0', '9');
    const __m256i b = _mm256_or_si256(
        _mm256_or_si256(d, _mm256_cmpeq_epi8(x, vdash)),
        _mm256_or_si256(_mm256_cmpeq_epi8(x, vxu),
                        _mm256_cmpeq_epi8(x, vxl)));
    digits |= Mask32(d) << (32 * k);
    body |= Mask32(b) << (32 * k);
  }
  *out = digits & ~((body << 1) | *carry);
  *carry = body >> 63;
}

__attribute__((target("avx2"))) void BuildIsbnCandidatesAvx2(
    const char* s, size_t n, uint64_t* bits) {
  const size_t full = n / 64;
  uint64_t carry = 0;
  for (size_t w = 0; w < full; ++w) {
    IsbnBlockAvx2(s + w * 64, &carry, &bits[w]);
  }
  if (n % 64 != 0) {
    char buf[64] = {};
    std::memcpy(buf, s + full * 64, n % 64);
    IsbnBlockAvx2(buf, &carry, &bits[full]);
  }
}

__attribute__((target("avx2"), always_inline)) inline uint64_t
WordCharBlockAvx2(const char* p) {
  const __m256i vapos = _mm256_set1_epi8('\'');
  uint64_t b = 0;
  for (int k = 0; k < 2; ++k) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k));
    const __m256i word_char = _mm256_or_si256(
        _mm256_or_si256(InRange32(x, '0', '9'), InRange32(x, 'a', 'z')),
        _mm256_or_si256(InRange32(x, 'A', 'Z'),
                        _mm256_cmpeq_epi8(x, vapos)));
    b |= Mask32(word_char) << (32 * k);
  }
  return b;
}

__attribute__((target("avx2"))) void BuildWordCharsAvx2(const char* s,
                                                        size_t n,
                                                        uint64_t* bits) {
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    bits[w] = WordCharBlockAvx2(s + w * 64);
  }
  if (n % 64 != 0) {
    char buf[64] = {};
    std::memcpy(buf, s + full * 64, n % 64);
    bits[full] = WordCharBlockAvx2(buf);
  }
}

#endif  // WSD_SIMD_X86

// --------------------------------------------------------------------
// Dispatch tables and tier selection.
// --------------------------------------------------------------------

constexpr ScanOps kScalarOps = {
    BuildPhoneCandidatesScalar,
    BuildIsbnCandidatesScalar,
    BuildWordCharsScalar,
};

#if WSD_SIMD_X86
constexpr ScanOps kAvx2Ops = {
    BuildPhoneCandidatesAvx2,
    BuildIsbnCandidatesAvx2,
    BuildWordCharsAvx2,
};
#endif

const ScanOps* TierTable(Tier tier) {
#if WSD_SIMD_X86
  if (tier == Tier::kAvx2) return &kAvx2Ops;
#else
  (void)tier;  // AvailableTiers() never offers kAvx2 off x86
#endif
  return &kScalarOps;
}

std::atomic<int> g_tier{-1};
std::atomic<const ScanOps*> g_ops{&kScalarOps};
OnceFlag g_init_once;

// Env-flag convention shared with WSD_LEGACY_SCAN (core/study.cc): set
// and not "0" means on.
bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

Tier DetectBestTier() {
  return CpuHasAvx2() ? Tier::kAvx2 : Tier::kScalar;
}

void SetTier(Tier tier) {
  g_ops.store(TierTable(tier), std::memory_order_relaxed);
  g_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
  MetricsRegistry::Global()
      .GetGauge("wsd.scan.simd_tier")
      .Set(static_cast<double>(static_cast<int>(tier)));
}

void InitDispatch() {
  const bool force_scalar = EnvFlagSet("WSD_FORCE_SCALAR");
  const Tier chosen = ChooseTier(DetectBestTier(), force_scalar);
  SetTier(chosen);
  WSD_LOG(kInfo) << "simd dispatch: tier=" << TierName(chosen)
                 << " (cpu avx2: " << (CpuHasAvx2() ? "yes" : "no") << ")"
                 << (force_scalar ? " [forced via WSD_FORCE_SCALAR]" : "");
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier ChooseTier(Tier best, bool force_scalar) {
  return force_scalar ? Tier::kScalar : best;
}

Tier ActiveTier() {
  const int tier = g_tier.load(std::memory_order_relaxed);
  if (tier >= 0) return static_cast<Tier>(tier);
  CallOnce(g_init_once, InitDispatch);
  return static_cast<Tier>(g_tier.load(std::memory_order_relaxed));
}

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (CpuHasAvx2()) tiers.push_back(Tier::kAvx2);
  return tiers;
}

const ScanOps& Ops() {
  (void)ActiveTier();
  return *g_ops.load(std::memory_order_relaxed);
}

const ScanOps& OpsForTier(Tier tier) { return *TierTable(tier); }

ScopedTierOverride::ScopedTierOverride(Tier tier) : prev_(ActiveTier()) {
  SetTier(tier);
}

ScopedTierOverride::~ScopedTierOverride() { SetTier(prev_); }

}  // namespace simd
}  // namespace wsd
