#include "protocol/channel.hpp"

namespace authenticache::protocol {

void
Transcript::record(Direction d, const std::vector<std::uint8_t> &frame)
{
    log.push_back({d, frame});
}

std::vector<std::pair<core::Challenge, util::BitVec>>
Transcript::observedCrps() const
{
    // Index challenges by nonce, then match responses.
    std::vector<std::pair<std::uint64_t, core::Challenge>> challenges;
    std::vector<std::pair<std::uint64_t, util::BitVec>> responses;

    for (const auto &entry : log) {
        Message m;
        try {
            m = decodeMessage(entry.frame);
        } catch (const DecodeError &) {
            continue; // Corrupted frames are invisible to the attacker.
        }
        if (auto *ch = std::get_if<ChallengeMsg>(&m))
            challenges.emplace_back(ch->nonce, ch->challenge);
        else if (auto *resp = std::get_if<ResponseMsg>(&m))
            responses.emplace_back(resp->nonce, resp->response);
    }

    std::vector<std::pair<core::Challenge, util::BitVec>> out;
    for (const auto &[nonce, challenge] : challenges) {
        for (const auto &[rnonce, response] : responses) {
            if (rnonce == nonce &&
                response.size() == challenge.size()) {
                out.emplace_back(challenge, response);
                break;
            }
        }
    }
    return out;
}

const FaultSpec *
FaultPlan::at(std::uint64_t frame_index) const
{
    for (const auto &spec : specs) {
        if (spec.frameIndex == frame_index &&
            spec.type != FaultType::None)
            return &spec;
    }
    return nullptr;
}

} // namespace authenticache::protocol
