#include "protocol/messages.hpp"

#include <algorithm>

#include "util/crc32.hpp"
#include "util/endian.hpp"

namespace authenticache::protocol {

namespace {

/** Wire bytes per challenge bit: two points of three u32 each. */
constexpr std::size_t kChallengeBitBytes = 24;

/** Bound on the fixed fields of any type plus the frame overhead. */
constexpr std::size_t kFixedBytesBound = 64;

} // namespace

void
encodeChallenge(ByteWriter &w, const core::Challenge &c)
{
    std::uint8_t *p = w.grow(4 + kChallengeBitBytes * c.size());
    util::storeLe32(p, static_cast<std::uint32_t>(c.size()));
    p += 4;
    for (const auto &bit : c.bits) {
        util::storeLe32(p, bit.a.line.set);
        util::storeLe32(p + 4, bit.a.line.way);
        util::storeLe32(p + 8, bit.a.vddMv);
        util::storeLe32(p + 12, bit.b.line.set);
        util::storeLe32(p + 16, bit.b.line.way);
        util::storeLe32(p + 20, bit.b.vddMv);
        p += kChallengeBitBytes;
    }
}

core::Challenge
decodeChallenge(ByteReader &r)
{
    const std::uint32_t n = r.getU32();
    if (n > 1u << 20)
        throw DecodeError("challenge unreasonably large");
    // Bounds-check the whole block before sizing bits: a hostile count
    // costs a throw, not an allocation.
    const std::uint8_t *p = r.take(kChallengeBitBytes * n);
    core::Challenge c;
    c.bits.resize(n);
    for (auto &bit : c.bits) {
        bit.a.line.set = util::loadLe32(p);
        bit.a.line.way = util::loadLe32(p + 4);
        bit.a.vddMv = util::loadLe32(p + 8);
        bit.b.line.set = util::loadLe32(p + 12);
        bit.b.line.way = util::loadLe32(p + 16);
        bit.b.vddMv = util::loadLe32(p + 20);
        p += kChallengeBitBytes;
    }
    return c;
}

void
encodeBitVec(ByteWriter &w, const util::BitVec &v)
{
    const auto &words = v.words();
    std::uint8_t *p = w.grow(8 + 8 * words.size());
    util::storeLe64(p, v.size());
    for (std::size_t i = 0; i < words.size(); ++i)
        util::storeLe64(p + 8 + 8 * i, words[i]);
}

util::BitVec
decodeBitVec(ByteReader &r)
{
    const std::uint64_t nbits = r.getU64();
    if (nbits > 1u << 24)
        throw DecodeError("bit vector unreasonably large");
    const std::size_t nwords = (nbits + 63) / 64;
    const std::uint8_t *p = r.take(8 * nwords);
    std::vector<std::uint64_t> words(nwords);
    for (auto &word : words) {
        word = util::loadLe64(p);
        p += 8;
    }
    return util::BitVec::fromWords(std::move(words), nbits);
}

MessageType
messageType(const Message &m)
{
    return std::visit(
        [](const auto &v) -> MessageType {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, AuthRequest>)
                return MessageType::AuthRequest;
            else if constexpr (std::is_same_v<T, ChallengeMsg>)
                return MessageType::ChallengeMsg;
            else if constexpr (std::is_same_v<T, ResponseMsg>)
                return MessageType::ResponseMsg;
            else if constexpr (std::is_same_v<T, AuthDecision>)
                return MessageType::AuthDecision;
            else if constexpr (std::is_same_v<T, RemapRequest>)
                return MessageType::RemapRequest;
            else if constexpr (std::is_same_v<T, RemapAck>)
                return MessageType::RemapAck;
            else if constexpr (std::is_same_v<T, RemapCommit>)
                return MessageType::RemapCommit;
            else if constexpr (std::is_same_v<T, Heartbeat>)
                return MessageType::Heartbeat;
            else if constexpr (std::is_same_v<T, HeartbeatProof>)
                return MessageType::HeartbeatProof;
            else if constexpr (std::is_same_v<T, TrustUpdate>)
                return MessageType::TrustUpdate;
            else if constexpr (std::is_same_v<T, Revoke>)
                return MessageType::Revoke;
            else
                return MessageType::ErrorMsg;
        },
        m);
}

std::optional<MessageType>
peekMessageType(std::span<const std::uint8_t> frame)
{
    if (frame.size() < 5)
        return std::nullopt;
    const std::uint8_t tag = frame[4]; // After the u32 payload length.
    if (tag < static_cast<std::uint8_t>(MessageType::AuthRequest) ||
        tag > static_cast<std::uint8_t>(MessageType::Revoke))
        return std::nullopt;
    return static_cast<MessageType>(tag);
}

namespace {

void
encodePayload(ByteWriter &w, const Message &m)
{
    std::visit(
        [&](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, AuthRequest>) {
                w.putU64(v.deviceId);
            } else if constexpr (std::is_same_v<T, ChallengeMsg>) {
                w.putU64(v.nonce);
                encodeChallenge(w, v.challenge);
            } else if constexpr (std::is_same_v<T, ResponseMsg>) {
                w.putU64(v.nonce);
                encodeBitVec(w, v.response);
            } else if constexpr (std::is_same_v<T, AuthDecision>) {
                w.putU64(v.nonce);
                w.putU8(v.accepted ? 1 : 0);
                w.putU32(v.hammingDistance);
            } else if constexpr (std::is_same_v<T, RemapRequest>) {
                w.putU64(v.nonce);
                encodeChallenge(w, v.challenge);
                encodeBitVec(w, v.helper);
                w.putU32(v.repetition);
            } else if constexpr (std::is_same_v<T, RemapAck>) {
                w.putU64(v.nonce);
                w.putU8(v.success ? 1 : 0);
                w.putBytes(v.confirmation);
            } else if constexpr (std::is_same_v<T, RemapCommit>) {
                w.putU64(v.nonce);
                w.putU8(v.committed ? 1 : 0);
            } else if constexpr (std::is_same_v<T, Heartbeat>) {
                w.putU64(v.nonce);
                w.putU64(v.seq);
                encodeChallenge(w, v.challenge);
            } else if constexpr (std::is_same_v<T, HeartbeatProof>) {
                w.putU64(v.nonce);
                encodeBitVec(w, v.response);
            } else if constexpr (std::is_same_v<T, TrustUpdate>) {
                w.putU64(v.nonce);
                w.putU32(v.trust);
                w.putU8(v.tier);
                w.putU8(v.accepted ? 1 : 0);
                w.putU32(v.hammingDistance);
            } else if constexpr (std::is_same_v<T, Revoke>) {
                w.putU64(v.deviceId);
                w.putString(v.reason);
            } else {
                w.putString(v.reason);
            }
        },
        m);
}

Message
decodePayload(MessageType type, ByteReader &r)
{
    switch (type) {
      case MessageType::AuthRequest: {
        AuthRequest m;
        m.deviceId = r.getU64();
        return m;
      }
      case MessageType::ChallengeMsg: {
        ChallengeMsg m;
        m.nonce = r.getU64();
        m.challenge = decodeChallenge(r);
        return m;
      }
      case MessageType::ResponseMsg: {
        ResponseMsg m;
        m.nonce = r.getU64();
        m.response = decodeBitVec(r);
        return m;
      }
      case MessageType::AuthDecision: {
        AuthDecision m;
        m.nonce = r.getU64();
        m.accepted = r.getU8() != 0;
        m.hammingDistance = r.getU32();
        return m;
      }
      case MessageType::RemapRequest: {
        RemapRequest m;
        m.nonce = r.getU64();
        m.challenge = decodeChallenge(r);
        m.helper = decodeBitVec(r);
        m.repetition = r.getU32();
        return m;
      }
      case MessageType::RemapAck: {
        RemapAck m;
        m.nonce = r.getU64();
        m.success = r.getU8() != 0;
        const std::uint8_t *p = r.take(m.confirmation.size());
        std::copy_n(p, m.confirmation.size(), m.confirmation.begin());
        return m;
      }
      case MessageType::ErrorMsg: {
        ErrorMsg m;
        m.reason = r.getString();
        return m;
      }
      case MessageType::RemapCommit: {
        RemapCommit m;
        m.nonce = r.getU64();
        m.committed = r.getU8() != 0;
        return m;
      }
      case MessageType::Heartbeat: {
        Heartbeat m;
        m.nonce = r.getU64();
        m.seq = r.getU64();
        m.challenge = decodeChallenge(r);
        return m;
      }
      case MessageType::HeartbeatProof: {
        HeartbeatProof m;
        m.nonce = r.getU64();
        m.response = decodeBitVec(r);
        return m;
      }
      case MessageType::TrustUpdate: {
        TrustUpdate m;
        m.nonce = r.getU64();
        m.trust = r.getU32();
        m.tier = r.getU8();
        m.accepted = r.getU8() != 0;
        m.hammingDistance = r.getU32();
        return m;
      }
      case MessageType::Revoke: {
        Revoke m;
        m.deviceId = r.getU64();
        m.reason = r.getString();
        return m;
      }
    }
    throw DecodeError("unknown message type");
}

} // namespace

std::size_t
encodedSizeBound(const Message &m)
{
    return std::visit(
        [](const auto &v) {
            std::size_t n = kFixedBytesBound;
            if constexpr (requires { v.challenge; })
                n += 4 + kChallengeBitBytes * v.challenge.size();
            if constexpr (requires { v.response; })
                n += 8 + 8 * v.response.words().size();
            if constexpr (requires { v.helper; })
                n += 8 + 8 * v.helper.words().size();
            if constexpr (requires { v.reason; })
                n += 4 + v.reason.size();
            return n;
        },
        m);
}

void
appendMessage(ByteWriter &w, const Message &m)
{
    const std::size_t at = w.size();
    w.putU32(0); // Payload length, patched below.
    w.putU8(static_cast<std::uint8_t>(messageType(m)));
    encodePayload(w, m);
    const std::size_t len = w.size() - at - 4;
    w.patchU32(at, static_cast<std::uint32_t>(len));
    w.putU32(util::crc32(
        std::span<const std::uint8_t>(w.bytes()).subspan(at + 4, len)));
}

std::vector<std::uint8_t>
encodeMessage(const Message &m)
{
    ByteWriter w;
    w.reserve(encodedSizeBound(m));
    appendMessage(w, m);
    return w.take();
}

Message
decodeMessage(std::span<const std::uint8_t> frame)
{
    ByteReader r(frame);
    const std::uint32_t len = r.getU32();
    const std::span<const std::uint8_t> payload(r.take(len), len);
    const std::uint32_t crc = r.getU32();
    r.expectEnd();
    if (util::crc32(payload) != crc)
        throw DecodeError("CRC mismatch");

    ByteReader pr(payload);
    auto raw_type = pr.getU8();
    if (raw_type < 1 ||
        raw_type > static_cast<std::uint8_t>(MessageType::Revoke))
        throw DecodeError("unknown message type");
    Message m = decodePayload(static_cast<MessageType>(raw_type), pr);
    pr.expectEnd();
    return m;
}

} // namespace authenticache::protocol
