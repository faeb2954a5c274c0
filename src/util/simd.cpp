#include "util/simd.hpp"

#include <cstdlib>
#include <iostream>

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#endif

namespace authenticache::util {

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Sse2:
        return "sse2";
    case SimdLevel::Avx2:
        return "avx2";
    }
    return "scalar";
}

SimdLevel
detectedSimdLevel()
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
    // SSE2 is architecturally guaranteed on x86-64.
    return SimdLevel::Sse2;
#else
    return SimdLevel::Scalar;
#endif
}

namespace {

struct CpuExtensions
{
    bool pclmul = false;
    bool sha = false;
};

// CPUID can trap to a hypervisor, so the bits are read once.
const CpuExtensions &
cpuExtensions()
{
    static const CpuExtensions ext = [] {
        CpuExtensions e;
#if defined(__x86_64__) && defined(__GNUC__)
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (__get_cpuid(1, &a, &b, &c, &d))
            e.pclmul = (c & bit_PCLMUL) != 0;
        if (__get_cpuid_count(7, 0, &a, &b, &c, &d))
            e.sha = (b & bit_SHA) != 0;
#endif
        return e;
    }();
    return ext;
}

} // namespace

bool
cpuHasPclmul()
{
    return cpuExtensions().pclmul;
}

bool
cpuHasSha()
{
    return cpuExtensions().sha;
}

namespace detail {

SimdLevel
resolveSimdLevel(const char *override_name, SimdLevel detected,
                 bool *clamped, bool *unrecognized)
{
    if (clamped)
        *clamped = false;
    if (unrecognized)
        *unrecognized = false;
    if (override_name == nullptr || override_name[0] == '\0')
        return detected;

    const std::string name(override_name);
    SimdLevel requested;
    if (name == "scalar")
        requested = SimdLevel::Scalar;
    else if (name == "sse2")
        requested = SimdLevel::Sse2;
    else if (name == "avx2")
        requested = SimdLevel::Avx2;
    else {
        if (unrecognized)
            *unrecognized = true;
        return detected;
    }

    if (requested > detected) {
        if (clamped)
            *clamped = true;
        return detected;
    }
    return requested;
}

} // namespace detail

SimdLevel
simdLevel()
{
    static const SimdLevel chosen = [] {
        const char *env = std::getenv("AUTHENTICACHE_SIMD");
        bool clamped = false;
        bool unrecognized = false;
        SimdLevel level = detail::resolveSimdLevel(
            env, detectedSimdLevel(), &clamped, &unrecognized);
        if (unrecognized) {
            std::cerr << "[authenticache] AUTHENTICACHE_SIMD=\"" << env
                      << "\" is not one of scalar/sse2/avx2; using "
                      << simdLevelName(level) << "\n";
        } else if (clamped) {
            std::cerr << "[authenticache] AUTHENTICACHE_SIMD=\"" << env
                      << "\" is not supported by this CPU; clamped to "
                      << simdLevelName(level) << "\n";
        }
        return level;
    }();
    return chosen;
}

std::vector<SimdLevel>
supportedSimdLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    SimdLevel widest = detectedSimdLevel();
    if (widest >= SimdLevel::Sse2)
        levels.push_back(SimdLevel::Sse2);
    if (widest >= SimdLevel::Avx2)
        levels.push_back(SimdLevel::Avx2);
    return levels;
}

} // namespace authenticache::util
