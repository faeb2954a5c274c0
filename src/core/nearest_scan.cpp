#include "core/nearest_scan.hpp"

#include <algorithm>
#include <limits>

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

struct ScanHit
{
    std::uint32_t distance = std::numeric_limits<std::uint32_t>::max();
    std::size_t index = 0;
    bool found = false;
};

ScanHit
scanScalar(const std::uint32_t *sets, const std::uint32_t *ways,
           std::size_t n, std::uint32_t qs, std::uint32_t qw)
{
    ScanHit hit;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t dx = sets[i] > qs ? sets[i] - qs : qs - sets[i];
        std::uint32_t dy = ways[i] > qw ? ways[i] - qw : qw - ways[i];
        std::uint32_t d = dx + dy;
        // Strict less keeps the earliest index on ties; with the SoA
        // stream sorted by (set, way) that is exactly the brute
        // reference's lexicographic tie rule.
        if (!hit.found || d < hit.distance) {
            hit.found = true;
            hit.distance = d;
            hit.index = i;
        }
    }
    return hit;
}

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
 * Merge one lane-wise (distance, index) partial into the running
 * scalar best. Lane distances are INT32_MAX when never updated; real
 * distances stay below it (kCoordLimit), so the sentinel never wins.
 */
inline void
mergeLane(ScanHit &hit, std::uint32_t d, std::uint32_t i)
{
    if (d == static_cast<std::uint32_t>(
                 std::numeric_limits<std::int32_t>::max()))
        return;
    if (!hit.found || d < hit.distance ||
        (d == hit.distance && i < hit.index)) {
        hit.found = true;
        hit.distance = d;
        hit.index = i;
    }
}

ScanHit
scanSse2(const std::uint32_t *sets, const std::uint32_t *ways,
         std::size_t n, std::uint32_t qs, std::uint32_t qw)
{
    const __m128i vqs = _mm_set1_epi32(static_cast<int>(qs));
    const __m128i vqw = _mm_set1_epi32(static_cast<int>(qw));
    __m128i best_d =
        _mm_set1_epi32(std::numeric_limits<std::int32_t>::max());
    __m128i best_i = _mm_setzero_si128();
    __m128i idx = _mm_setr_epi32(0, 1, 2, 3);
    const __m128i step = _mm_set1_epi32(4);

    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128i vs = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(sets + i));
        __m128i vw = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(ways + i));
        // |a - b| via a signed compare (coordinates < 2^29).
        __m128i gtx = _mm_cmpgt_epi32(vs, vqs);
        __m128i dx = _mm_or_si128(
            _mm_and_si128(gtx, _mm_sub_epi32(vs, vqs)),
            _mm_andnot_si128(gtx, _mm_sub_epi32(vqs, vs)));
        __m128i gty = _mm_cmpgt_epi32(vw, vqw);
        __m128i dy = _mm_or_si128(
            _mm_and_si128(gty, _mm_sub_epi32(vw, vqw)),
            _mm_andnot_si128(gty, _mm_sub_epi32(vqw, vw)));
        __m128i d = _mm_add_epi32(dx, dy);
        // Strict less per lane keeps each lane's earliest index.
        __m128i lt = _mm_cmpgt_epi32(best_d, d);
        best_d = _mm_or_si128(_mm_and_si128(lt, d),
                              _mm_andnot_si128(lt, best_d));
        best_i = _mm_or_si128(_mm_and_si128(lt, idx),
                              _mm_andnot_si128(lt, best_i));
        idx = _mm_add_epi32(idx, step);
    }

    alignas(16) std::uint32_t ds[4];
    alignas(16) std::uint32_t is[4];
    _mm_store_si128(reinterpret_cast<__m128i *>(ds), best_d);
    _mm_store_si128(reinterpret_cast<__m128i *>(is), best_i);
    ScanHit hit;
    for (int lane = 0; lane < 4; ++lane)
        mergeLane(hit, ds[lane], is[lane]);

    // Tail elements carry indices above every vector index, so a tie
    // never displaces the incumbent; strict less is sufficient.
    for (; i < n; ++i) {
        std::uint32_t dx = sets[i] > qs ? sets[i] - qs : qs - sets[i];
        std::uint32_t dy = ways[i] > qw ? ways[i] - qw : qw - ways[i];
        std::uint32_t d = dx + dy;
        if (!hit.found || d < hit.distance) {
            hit.found = true;
            hit.distance = d;
            hit.index = i;
        }
    }
    return hit;
}

__attribute__((target("avx2"))) ScanHit
scanAvx2(const std::uint32_t *sets, const std::uint32_t *ways,
         std::size_t n, std::uint32_t qs, std::uint32_t qw)
{
    const __m256i vqs = _mm256_set1_epi32(static_cast<int>(qs));
    const __m256i vqw = _mm256_set1_epi32(static_cast<int>(qw));
    __m256i best_d =
        _mm256_set1_epi32(std::numeric_limits<std::int32_t>::max());
    __m256i best_i = _mm256_setzero_si256();
    __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i step = _mm256_set1_epi32(8);

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i vs = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(sets + i));
        __m256i vw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ways + i));
        __m256i dx = _mm256_sub_epi32(_mm256_max_epu32(vs, vqs),
                                      _mm256_min_epu32(vs, vqs));
        __m256i dy = _mm256_sub_epi32(_mm256_max_epu32(vw, vqw),
                                      _mm256_min_epu32(vw, vqw));
        __m256i d = _mm256_add_epi32(dx, dy);
        __m256i lt = _mm256_cmpgt_epi32(best_d, d);
        best_d = _mm256_blendv_epi8(best_d, d, lt);
        best_i = _mm256_blendv_epi8(best_i, idx, lt);
        idx = _mm256_add_epi32(idx, step);
    }

    alignas(32) std::uint32_t ds[8];
    alignas(32) std::uint32_t is[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(ds), best_d);
    _mm256_store_si256(reinterpret_cast<__m256i *>(is), best_i);
    ScanHit hit;
    for (int lane = 0; lane < 8; ++lane)
        mergeLane(hit, ds[lane], is[lane]);

    for (; i < n; ++i) {
        std::uint32_t dx = sets[i] > qs ? sets[i] - qs : qs - sets[i];
        std::uint32_t dy = ways[i] > qw ? ways[i] - qw : qw - ways[i];
        std::uint32_t d = dx + dy;
        if (!hit.found || d < hit.distance) {
            hit.found = true;
            hit.distance = d;
            hit.index = i;
        }
    }
    return hit;
}

void
manhattanScalar(const std::uint32_t *sets, const std::uint32_t *ways,
                std::size_t n, std::uint32_t qs, std::uint32_t qw,
                std::uint32_t *out_d, std::size_t from_index)
{
    for (std::size_t i = from_index; i < n; ++i) {
        std::uint32_t dx = sets[i] > qs ? sets[i] - qs : qs - sets[i];
        std::uint32_t dy = ways[i] > qw ? ways[i] - qw : qw - ways[i];
        out_d[i] = dx + dy;
    }
}

void
manhattanSse2(const std::uint32_t *sets, const std::uint32_t *ways,
              std::size_t n, std::uint32_t qs, std::uint32_t qw,
              std::uint32_t *out_d)
{
    const __m128i vqs = _mm_set1_epi32(static_cast<int>(qs));
    const __m128i vqw = _mm_set1_epi32(static_cast<int>(qw));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128i vs = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(sets + i));
        __m128i vw = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(ways + i));
        __m128i gtx = _mm_cmpgt_epi32(vs, vqs);
        __m128i dx = _mm_or_si128(
            _mm_and_si128(gtx, _mm_sub_epi32(vs, vqs)),
            _mm_andnot_si128(gtx, _mm_sub_epi32(vqs, vs)));
        __m128i gty = _mm_cmpgt_epi32(vw, vqw);
        __m128i dy = _mm_or_si128(
            _mm_and_si128(gty, _mm_sub_epi32(vw, vqw)),
            _mm_andnot_si128(gty, _mm_sub_epi32(vqw, vw)));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out_d + i),
                         _mm_add_epi32(dx, dy));
    }
    manhattanScalar(sets, ways, n, qs, qw, out_d, i);
}

__attribute__((target("avx2"))) void
manhattanAvx2(const std::uint32_t *sets, const std::uint32_t *ways,
              std::size_t n, std::uint32_t qs, std::uint32_t qw,
              std::uint32_t *out_d)
{
    const __m256i vqs = _mm256_set1_epi32(static_cast<int>(qs));
    const __m256i vqw = _mm256_set1_epi32(static_cast<int>(qw));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i vs = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(sets + i));
        __m256i vw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ways + i));
        __m256i dx = _mm256_sub_epi32(_mm256_max_epu32(vs, vqs),
                                      _mm256_min_epu32(vs, vqs));
        __m256i dy = _mm256_sub_epi32(_mm256_max_epu32(vw, vqw),
                                      _mm256_min_epu32(vw, vqw));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out_d + i),
                            _mm256_add_epi32(dx, dy));
    }
    manhattanScalar(sets, ways, n, qs, qw, out_d, i);
}

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

util::SimdLevel
clampLevel(util::SimdLevel level, const LinePoint &from,
           std::uint32_t max_coord)
{
    level = std::min(level, util::detectedSimdLevel());
    // Kernels assume distances fit signed 32-bit lanes; planes that
    // could overflow take the scalar path (no realistic geometry
    // does).
    if (from.set >= kCoordLimit || from.way >= kCoordLimit ||
        max_coord >= kCoordLimit)
        return util::SimdLevel::Scalar;
    return level;
}

} // namespace

NearestResult
nearestScanSoA(const std::uint32_t *sets, const std::uint32_t *ways,
               std::size_t n, const LinePoint &from,
               util::SimdLevel level)
{
    NearestResult out;
    out.cellsExamined = n;
    if (n == 0)
        return out;

    // The stream is sorted by (set, way): sets[n-1] bounds the set
    // coordinates. Way coordinates are bounded by the same geometry
    // ways() limit every producer of a SoA stream enforces, and are
    // far below any overflow concern for real cache shapes; the
    // per-element guard would cost a second pass for nothing.
    level = clampLevel(level, from, sets[n - 1]);
    ScanHit hit;
    switch (level) {
#if AUTH_SIMD_X86
    case util::SimdLevel::Avx2:
        hit = scanAvx2(sets, ways, n, from.set, from.way);
        break;
    case util::SimdLevel::Sse2:
        hit = scanSse2(sets, ways, n, from.set, from.way);
        break;
#endif
    default:
        hit = scanScalar(sets, ways, n, from.set, from.way);
        break;
    }
    out.found = hit.found;
    out.distance = hit.distance;
    out.at = LinePoint{sets[hit.index], ways[hit.index]};
    return out;
}

NearestResult
nearestErrorScan(const ErrorPlane &plane, const LinePoint &from,
                 util::SimdLevel level)
{
    return nearestScanSoA(plane.errorSets().data(),
                          plane.errorWays().data(),
                          plane.errorCount(), from, level);
}

NearestResult
nearestErrorScan(const ErrorPlane &plane, const LinePoint &from)
{
    return nearestErrorScan(plane, from, util::simdLevel());
}

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
    // sets[n-1] bounds the error stream as in nearestScanSoA; the
    // queries are few and unsorted, so they are bounded directly.
    LinePoint qmax;
    for (std::size_t j = 0; j < m; ++j) {
        qmax.set = std::max(qmax.set, qsets[j]);
        qmax.way = std::max(qmax.way, qways[j]);
    }
    switch (clampLevel(level, qmax, sets[n - 1])) {
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
manhattanBatch(const std::uint32_t *sets, const std::uint32_t *ways,
               std::size_t n, const LinePoint &from,
               std::uint32_t *out_d, util::SimdLevel level)
{
    std::uint32_t max_coord = 0;
    // The candidate list is small and unsorted; bounding it costs one
    // cheap pass and keeps the signed-lane contract checked.
    for (std::size_t i = 0; i < n; ++i)
        max_coord = std::max(max_coord, std::max(sets[i], ways[i]));
    level = clampLevel(level, from, max_coord);
    switch (level) {
#if AUTH_SIMD_X86
    case util::SimdLevel::Avx2:
        manhattanAvx2(sets, ways, n, from.set, from.way, out_d);
        return;
    case util::SimdLevel::Sse2:
        manhattanSse2(sets, ways, n, from.set, from.way, out_d);
        return;
#endif
    default:
        manhattanScalar(sets, ways, n, from.set, from.way, out_d, 0);
        return;
    }
}

} // namespace authenticache::core
