#include "core/nearest_scan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define AUTH_SIMD_X86 1
#include <immintrin.h>
#else
#define AUTH_SIMD_X86 0
#endif

namespace authenticache::core {

namespace {

/** Kernels only run when every distance fits a signed 32-bit lane. */
constexpr std::uint32_t kCoordLimit = 1u << 29;

void
distancesScalar(const std::uint32_t *sets, const std::uint32_t *ways,
                std::size_t n, const std::uint32_t *qsets,
                const std::uint32_t *qways, std::size_t m,
                std::uint32_t *out_d)
{
    for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t qs = qsets[j];
        const std::uint32_t qw = qways[j];
        std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t dx = sets[i] > qs ? sets[i] - qs : qs - sets[i];
            std::uint32_t dy = ways[i] > qw ? ways[i] - qw : qw - ways[i];
            best = std::min(best, dx + dy);
        }
        out_d[j] = best;
    }
}

#if AUTH_SIMD_X86

/**
 * Run @p block over the queries @p width at a time; it stores the
 * per-query minima. The last partial block is padded with copies of
 * the final query and only its live lanes are stored, so every tail
 * length goes through the vector body.
 */
template <std::size_t width, typename Block>
inline void
forEachQueryBlock(const std::uint32_t *qsets,
                  const std::uint32_t *qways, std::size_t m,
                  std::uint32_t *out_d, Block block)
{
    std::size_t j = 0;
    for (; j + width <= m; j += width)
        block(qsets + j, qways + j, out_d + j);
    if (j == m)
        return;
    std::uint32_t qs[width];
    std::uint32_t qw[width];
    std::uint32_t d[width];
    for (std::size_t lane = 0; lane < width; ++lane) {
        const std::size_t k = std::min(j + lane, m - 1);
        qs[lane] = qsets[k];
        qw[lane] = qways[k];
    }
    block(qs, qw, d);
    std::copy(d, d + (m - j), out_d + j);
}

/** Lane-wise |es - qs| + |ew - qw| (SSE2 has no pabsd). */
inline __m128i
laneDistanceSse2(__m128i es, __m128i ew, __m128i qs, __m128i qw)
{
    // |v| = (v ^ s) - s with s = v >> 31 (coordinates < 2^29, so the
    // differences and their sum fit a signed lane).
    __m128i dx = _mm_sub_epi32(es, qs);
    __m128i dy = _mm_sub_epi32(ew, qw);
    __m128i sx = _mm_srai_epi32(dx, 31);
    __m128i sy = _mm_srai_epi32(dy, 31);
    return _mm_add_epi32(_mm_sub_epi32(_mm_xor_si128(dx, sx), sx),
                         _mm_sub_epi32(_mm_xor_si128(dy, sy), sy));
}

/** Signed lane-wise minimum (SSE2 has no pminsd). */
inline __m128i
minSse2(__m128i a, __m128i b)
{
    __m128i lt = _mm_cmplt_epi32(a, b);
    return _mm_or_si128(_mm_and_si128(lt, a), _mm_andnot_si128(lt, b));
}

/**
 * Two SSE2 vectors (8 queries) against the whole error stream; each
 * broadcast error point feeds both, and the two running minima are
 * independent dependency chains.
 */
inline void
distancesBlockSse2(const std::uint32_t *sets, const std::uint32_t *ways,
                   std::size_t n, const std::uint32_t *qs,
                   const std::uint32_t *qw, std::uint32_t *out)
{
    auto load = [](const std::uint32_t *p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    };
    const __m128i qs0 = load(qs), qs1 = load(qs + 4);
    const __m128i qw0 = load(qw), qw1 = load(qw + 4);
    __m128i best0 =
        _mm_set1_epi32(std::numeric_limits<std::int32_t>::max());
    __m128i best1 = best0;
    for (std::size_t i = 0; i < n; ++i) {
        const __m128i es = _mm_set1_epi32(static_cast<int>(sets[i]));
        const __m128i ew = _mm_set1_epi32(static_cast<int>(ways[i]));
        best0 = minSse2(laneDistanceSse2(es, ew, qs0, qw0), best0);
        best1 = minSse2(laneDistanceSse2(es, ew, qs1, qw1), best1);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), best0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 4), best1);
}

void
distancesSse2(const std::uint32_t *sets, const std::uint32_t *ways,
              std::size_t n, const std::uint32_t *qsets,
              const std::uint32_t *qways, std::size_t m,
              std::uint32_t *out_d)
{
    forEachQueryBlock<8>(
        qsets, qways, m, out_d,
        [&](const std::uint32_t *qs, const std::uint32_t *qw,
            std::uint32_t *out) {
            distancesBlockSse2(sets, ways, n, qs, qw, out);
        });
}

/** Two AVX2 vectors (16 queries); see distancesBlockSse2. */
__attribute__((target("avx2"))) inline void
distancesBlockAvx2(const std::uint32_t *sets, const std::uint32_t *ways,
                   std::size_t n, const std::uint32_t *qs,
                   const std::uint32_t *qw, std::uint32_t *out)
{
    const __m256i qs0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(qs));
    const __m256i qs1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(qs + 8));
    const __m256i qw0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(qw));
    const __m256i qw1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(qw + 8));
    __m256i best0 = _mm256_set1_epi32(-1); // UINT32_MAX, unsigned min.
    __m256i best1 = best0;
    for (std::size_t i = 0; i < n; ++i) {
        const __m256i es = _mm256_set1_epi32(static_cast<int>(sets[i]));
        const __m256i ew = _mm256_set1_epi32(static_cast<int>(ways[i]));
        best0 = _mm256_min_epu32(
            best0,
            _mm256_add_epi32(_mm256_abs_epi32(_mm256_sub_epi32(es, qs0)),
                             _mm256_abs_epi32(_mm256_sub_epi32(ew, qw0))));
        best1 = _mm256_min_epu32(
            best1,
            _mm256_add_epi32(_mm256_abs_epi32(_mm256_sub_epi32(es, qs1)),
                             _mm256_abs_epi32(_mm256_sub_epi32(ew, qw1))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), best0);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 8), best1);
}

__attribute__((target("avx2"))) void
distancesAvx2(const std::uint32_t *sets, const std::uint32_t *ways,
              std::size_t n, const std::uint32_t *qsets,
              const std::uint32_t *qways, std::size_t m,
              std::uint32_t *out_d)
{
    forEachQueryBlock<16>(
        qsets, qways, m, out_d,
        [&](const std::uint32_t *qs, const std::uint32_t *qw,
            std::uint32_t *out) {
            distancesBlockAvx2(sets, ways, n, qs, qw, out);
        });
}

#endif // AUTH_SIMD_X86

} // namespace

void
nearestDistancesSoA(const std::uint32_t *sets,
                    const std::uint32_t *ways, std::size_t n,
                    const std::uint32_t *qsets,
                    const std::uint32_t *qways, std::size_t m,
                    std::uint32_t *out_d, util::SimdLevel level)
{
    if (n == 0) {
        std::fill(out_d, out_d + m,
                  std::numeric_limits<std::uint32_t>::max());
        return;
    }
    // The vector bodies assume distances fit signed 32-bit lanes;
    // wider coordinates take the scalar path (no realistic geometry
    // has them). Every coordinate is checked, errors and queries
    // alike, so neither stream needs any order. The limit is a power
    // of two, so the OR of all coordinates reaches it exactly when
    // one of them does.
    std::uint32_t any = 0;
    for (std::size_t i = 0; i < n; ++i)
        any |= sets[i] | ways[i];
    for (std::size_t j = 0; j < m; ++j)
        any |= qsets[j] | qways[j];
    if (any >= kCoordLimit)
        level = util::SimdLevel::Scalar;
    switch (std::min(level, util::detectedSimdLevel())) {
#if AUTH_SIMD_X86
    case util::SimdLevel::Avx2:
        distancesAvx2(sets, ways, n, qsets, qways, m, out_d);
        return;
    case util::SimdLevel::Sse2:
        distancesSse2(sets, ways, n, qsets, qways, m, out_d);
        return;
#endif
    default:
        distancesScalar(sets, ways, n, qsets, qways, m, out_d);
        return;
    }
}

void
nearestDistancesLines(std::span<const std::uint32_t> lines,
                      std::uint32_t ways, const std::uint32_t *qsets,
                      const std::uint32_t *qways, std::size_t m,
                      std::uint32_t *out_d, util::SimdLevel level)
{
    // Planes hold tens of errors: the scratch lives on the stack up to
    // kStackErrors of them.
    constexpr std::size_t kStackErrors = 256;
    const std::size_t n = lines.size();
    std::array<std::uint32_t, 2 * kStackErrors> stack;
    std::vector<std::uint32_t> heap;
    std::uint32_t *sets = stack.data();
    if (n > kStackErrors) {
        heap.resize(2 * n);
        sets = heap.data();
    }
    std::uint32_t *wayOf = sets + n;
    const std::uint32_t *src = lines.data();
    std::size_t i = 0;
    if ((ways & (ways - 1)) == 0) {
        // A power-of-two way count (every shipped geometry; ways >= 1):
        // shift and mask, four lines per SSE2 step where there is one.
        const int shift = std::countr_zero(ways);
#if AUTH_SIMD_X86
        const __m128i count = _mm_cvtsi32_si128(shift);
        const __m128i mask = _mm_set1_epi32(static_cast<int>(ways - 1));
        for (; i + 4 <= n; i += 4) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + i));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(sets + i),
                             _mm_srl_epi32(v, count));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(wayOf + i),
                             _mm_and_si128(v, mask));
        }
#endif
        for (; i < n; ++i) {
            const std::uint32_t line = src[i];
            sets[i] = line >> shift;
            wayOf[i] = line & (ways - 1);
        }
    } else {
        for (; i < n; ++i) {
            const std::uint32_t line = src[i];
            sets[i] = line / ways;
            wayOf[i] = line % ways;
        }
    }
    nearestDistancesSoA(sets, wayOf, n, qsets, qways, m, out_d, level);
}

} // namespace authenticache::core
