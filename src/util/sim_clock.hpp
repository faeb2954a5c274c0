/**
 * @file
 * Simulated step clock shared by the reliability layer.
 *
 * All protocol timing (transport delivery delays, client retry timeouts
 * and backoff, server session deadlines) is expressed in abstract
 * *steps* of one shared SimClock rather than wall-clock time, so every
 * fault schedule and retry interleaving is replayable bit-for-bit and
 * tests never sleep. A step corresponds to one iteration of the
 * exchange driver loop (see net::runExchangeSteps).
 */

#ifndef AUTH_UTIL_SIM_CLOCK_HPP
#define AUTH_UTIL_SIM_CLOCK_HPP

#include <cstdint>

namespace authenticache::util {

/** Monotonic step counter; the only time source of the protocol. */
class SimClock
{
  public:
    std::uint64_t now() const { return tick; }

    void advance(std::uint64_t steps = 1) { tick += steps; }

  private:
    std::uint64_t tick = 0;
};

} // namespace authenticache::util

#endif // AUTH_UTIL_SIM_CLOCK_HPP
