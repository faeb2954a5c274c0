/**
 * @file
 * Replay attacker (paper Sec 4.4 threat model): picks captured frames
 * off a wiretap so they can be re-injected later (written on a
 * loopback client, net::LoopbackTransport::Client::sendPayload),
 * attempting to reuse an old response to win an authentication.
 * Against Authenticache the response's nonce is spent, so the server
 * rejects it.
 */

#ifndef AUTH_ATTACK_REPLAY_HPP
#define AUTH_ATTACK_REPLAY_HPP

#include <optional>
#include <vector>

#include "protocol/channel.hpp"

namespace authenticache::attack {

class ReplayAttacker
{
  public:
    explicit ReplayAttacker(const protocol::Transcript &wiretap)
        : transcript(wiretap)
    {
    }

    /** Most recent response frame seen on the wire, if any. */
    std::optional<std::vector<std::uint8_t>> lastResponseFrame() const;

    /** Most recent client auth request frame, if any. */
    std::optional<std::vector<std::uint8_t>> lastRequestFrame() const;

  private:
    const protocol::Transcript &transcript;
};

} // namespace authenticache::attack

#endif // AUTH_ATTACK_REPLAY_HPP
