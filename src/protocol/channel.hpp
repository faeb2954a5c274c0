/**
 * @file
 * The vocabulary of a simulated wire: the transcript tap modeling a
 * passive eavesdropper -- the observation surface of the paper's
 * threat model (Sec 4.4) and of the model-building attack study
 * (Sec 6.7) -- the deterministic fault schedule (drop, duplicate,
 * reorder, delay, corrupt), and ReplySink, where the server's batch
 * front end sends each frame's replies.
 *
 * net::LoopbackTransport applies both the tap and the faults to the
 * message payloads it carries. Faults are keyed on the global send
 * ordinal and delays run on a shared util::SimClock, so any fault
 * schedule is replayable bit-for-bit (no wall-clock anywhere).
 */

#ifndef AUTH_PROTOCOL_CHANNEL_HPP
#define AUTH_PROTOCOL_CHANNEL_HPP

#include <cstdint>
#include <vector>

#include "protocol/messages.hpp"

namespace authenticache::protocol {

/** Which way a frame travelled. */
enum class Direction
{
    ClientToServer,
    ServerToClient,
};

/** One captured frame, as an eavesdropper would see it. */
struct TranscriptEntry
{
    Direction direction;
    std::vector<std::uint8_t> frame;
};

/** Passive wiretap recording every frame crossing the channel. */
class Transcript
{
  public:
    void record(Direction d, const std::vector<std::uint8_t> &frame);

    const std::vector<TranscriptEntry> &entries() const
    {
        return log;
    }

    std::size_t size() const { return log.size(); }
    void clear() { log.clear(); }

    /**
     * Decode all observed (challenge, response) pairs by matching
     * nonces -- exactly what a model-building attacker extracts.
     */
    std::vector<std::pair<core::Challenge, util::BitVec>>
    observedCrps() const;

  private:
    std::vector<TranscriptEntry> log;
};

/** Fault applied to one scheduled frame. */
enum class FaultType : std::uint8_t
{
    None,
    Drop,      ///< Frame silently discarded.
    Duplicate, ///< Frame enqueued twice back-to-back.
    Reorder,   ///< Frame jumps ahead of anything already queued.
    Delay,     ///< Frame held for delaySteps clock steps.
    Corrupt,   ///< One seeded-random byte XORed with a nonzero mask.
};

/** One scheduled fault, addressed by global send ordinal. */
struct FaultSpec
{
    FaultType type = FaultType::None;
    std::uint64_t frameIndex = 0; ///< 0-based send ordinal (either way).
    std::uint64_t delaySteps = 0; ///< Delay only.
};

/**
 * A replayable fault schedule: a set of FaultSpecs plus the seed that
 * drives corruption byte/mask choices. The same plan against the same
 * exchange produces bit-identical delivery.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::uint64_t corruption_seed)
        : rngSeed(corruption_seed)
    {
    }

    FaultPlan &
    add(const FaultSpec &spec)
    {
        specs.push_back(spec);
        return *this;
    }

    /** The fault scheduled for a send ordinal, if any. */
    const FaultSpec *at(std::uint64_t frame_index) const;

    std::uint64_t seed() const { return rngSeed; }
    bool empty() const { return specs.empty(); }

  private:
    std::uint64_t rngSeed = 0xFA017;
    std::vector<FaultSpec> specs;
};

/** Tally of faults the transport actually applied. */
struct FaultCounters
{
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reorders = 0;
    std::uint64_t delays = 0;
    std::uint64_t corruptions = 0;
};

/**
 * Where replies go. The batch front end addresses each frame's
 * replies through this interface: a wire-transport stream
 * (net::TransportCore's per-stream sinks, over a socket or the
 * loopback), or a benchmark's capture buffer.
 */
class ReplySink
{
  public:
    virtual ~ReplySink() = default;

    /** Deliver one protocol message to the peer. */
    virtual void send(const Message &m) = 0;
};

} // namespace authenticache::protocol

#endif // AUTH_PROTOCOL_CHANNEL_HPP
