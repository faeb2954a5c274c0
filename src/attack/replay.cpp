#include "attack/replay.hpp"

namespace authenticache::attack {

namespace {

std::optional<std::vector<std::uint8_t>>
lastFrameOfType(const protocol::Transcript &transcript,
                protocol::MessageType wanted)
{
    const auto &entries = transcript.entries();
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        try {
            auto m = protocol::decodeMessage(it->frame);
            if (protocol::messageType(m) == wanted)
                return it->frame;
        } catch (const protocol::DecodeError &) {
            continue;
        }
    }
    return std::nullopt;
}

} // namespace

std::optional<std::vector<std::uint8_t>>
ReplayAttacker::lastResponseFrame() const
{
    return lastFrameOfType(transcript,
                           protocol::MessageType::ResponseMsg);
}

std::optional<std::vector<std::uint8_t>>
ReplayAttacker::lastRequestFrame() const
{
    return lastFrameOfType(transcript,
                           protocol::MessageType::AuthRequest);
}

} // namespace authenticache::attack
