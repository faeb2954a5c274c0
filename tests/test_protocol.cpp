/**
 * @file
 * Tests for serialization, protocol messages (round trips, framing,
 * corruption detection), and message delivery over the loopback
 * transport with transcript and fault injection.
 */

#include <gtest/gtest.h>

#include "net/loopback.hpp"
#include "protocol/channel.hpp"
#include "protocol/messages.hpp"
#include "protocol/serialize.hpp"
#include "server/server.hpp"
#include "util/crc32.hpp"

namespace p = authenticache::protocol;
namespace core = authenticache::core;
namespace net = authenticache::net;
namespace srv = authenticache::server;
using authenticache::util::BitVec;
using authenticache::util::ThreadPool;

TEST(Serialize, ScalarRoundTrip)
{
    p::ByteWriter w;
    w.putU8(0xAB);
    w.putU16(0x1234);
    w.putU32(0xDEADBEEF);
    w.putU64(0x0123456789ABCDEFull);
    w.putString("hello");

    p::ByteReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 0xAB);
    EXPECT_EQ(r.getU16(), 0x1234);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getString(), "hello");
    EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TruncationThrows)
{
    p::ByteWriter w;
    w.putU16(7);
    p::ByteReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 7);
    EXPECT_THROW(r.getU32(), p::DecodeError);
}

TEST(Serialize, ExpectEndCatchesTrailing)
{
    p::ByteWriter w;
    w.putU32(1);
    p::ByteReader r(w.bytes());
    r.getU16();
    EXPECT_THROW(r.expectEnd(), p::DecodeError);
}

namespace {

core::Challenge
sampleChallenge()
{
    core::Challenge c;
    c.bits.push_back({{{10, 2}, 680}, {{300, 5}, 680}});
    c.bits.push_back({{{77, 0}, 690}, {{1, 7}, 680}});
    return c;
}

} // namespace

TEST(Messages, ChallengeRoundTrip)
{
    p::ChallengeMsg msg;
    msg.nonce = 0xC0FFEE;
    msg.challenge = sampleChallenge();

    auto frame = p::encodeMessage(msg);
    auto decoded = p::decodeMessage(frame);
    auto *out = std::get_if<p::ChallengeMsg>(&decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->nonce, 0xC0FFEEu);
    ASSERT_EQ(out->challenge.size(), 2u);
    EXPECT_EQ(out->challenge.bits[0].a.line.set, 10u);
    EXPECT_EQ(out->challenge.bits[0].b.vddMv, 680u);
    EXPECT_EQ(out->challenge.bits[1].b.line.way, 7u);
}

TEST(Messages, AllTypesRoundTrip)
{
    BitVec resp = BitVec::fromString("1011001110001011");

    std::vector<p::Message> messages{
        p::AuthRequest{42},
        p::ChallengeMsg{7, sampleChallenge()},
        p::ResponseMsg{7, resp},
        p::AuthDecision{7, true, 3},
        p::RemapRequest{9, sampleChallenge(), resp, 5},
        p::RemapAck{9, true},
        p::ErrorMsg{"something failed"},
    };

    for (const auto &msg : messages) {
        auto frame = p::encodeMessage(msg);
        auto decoded = p::decodeMessage(frame);
        EXPECT_EQ(p::messageType(decoded), p::messageType(msg));
    }

    // Spot-check payload fidelity.
    auto decoded =
        p::decodeMessage(p::encodeMessage(p::ResponseMsg{7, resp}));
    EXPECT_EQ(std::get<p::ResponseMsg>(decoded).response, resp);

    auto err = p::decodeMessage(
        p::encodeMessage(p::ErrorMsg{"something failed"}));
    EXPECT_EQ(std::get<p::ErrorMsg>(err).reason, "something failed");
}

TEST(Messages, CorruptionDetectedByCrc)
{
    auto frame = p::encodeMessage(p::AuthRequest{1});
    // Flip a payload byte (after the 4-byte length prefix).
    frame[5] ^= 0x01;
    EXPECT_THROW(p::decodeMessage(frame), p::DecodeError);
}

TEST(Messages, TruncatedFrameThrows)
{
    auto frame = p::encodeMessage(p::AuthRequest{1});
    frame.resize(frame.size() - 3);
    EXPECT_THROW(p::decodeMessage(frame), p::DecodeError);
}

TEST(Messages, TrailingBytesThrow)
{
    auto frame = p::encodeMessage(p::AuthRequest{1});
    frame.push_back(0);
    EXPECT_THROW(p::decodeMessage(frame), p::DecodeError);
}

TEST(Messages, UnknownTypeRejected)
{
    // Hand-build a frame with type tag 99 and a valid CRC.
    p::ByteWriter payload;
    payload.putU8(99);
    p::ByteWriter frame;
    frame.putU32(static_cast<std::uint32_t>(payload.size()));
    frame.putBytes(payload.bytes());
    frame.putU32(
        authenticache::util::crc32(payload.bytes()));
    EXPECT_THROW(p::decodeMessage(frame.bytes()), p::DecodeError);
}

namespace {

/**
 * An empty server behind a loopback transport: every AuthRequest
 * (no device is enrolled) is answered with an ErrorMsg on its own
 * stream, and sink() pushes server messages to the client.
 */
struct Wire
{
    srv::AuthenticationServer server{srv::ServerConfig{}, 1};
    net::LoopbackTransport transport{server.frontEnd(),
                                     net::TransportConfig{}};
    net::LoopbackTransport::Client *client = transport.connect();
    ThreadPool pool{1};

    void pump() { transport.pumpUntilIdle(pool); }
};

} // namespace

TEST(Channel, FifoBothDirections)
{
    Wire w;
    w.client->sendMessage(1, p::AuthRequest{1});
    w.client->sendMessage(2, p::AuthRequest{2});
    w.pump();
    auto replies = w.client->readMessages();
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0].first, 1u);
    EXPECT_EQ(replies[1].first, 2u);
    EXPECT_EQ(w.transport.counters().framesIn, 2u);

    w.client->sink(3).send(p::AuthDecision{5, true, 0});
    auto m3 = w.client->receive();
    ASSERT_TRUE(m3);
    EXPECT_TRUE(std::get<p::AuthDecision>(*m3).accepted);
    EXPECT_FALSE(w.client->receive().has_value());
}

TEST(Channel, DropInjection)
{
    Wire w;
    w.transport.setFaultPlan(
        p::FaultPlan().add({p::FaultType::Drop, 0, 0}));
    w.client->sendMessage(1, p::AuthRequest{1});
    w.pump();
    EXPECT_EQ(w.transport.counters().framesIn, 0u);
    EXPECT_FALSE(w.client->receive().has_value());
    w.client->sendMessage(2, p::AuthRequest{2});
    w.pump();
    auto replies = w.client->readMessages();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].first, 2u);
}

TEST(Channel, CorruptionInjection)
{
    Wire w;
    w.transport.setFaultPlan(
        p::FaultPlan().add({p::FaultType::Corrupt, 0, 0}));
    w.client->sink(1).send(p::AuthDecision{5, true, 0});
    EXPECT_THROW(w.client->receive(), p::DecodeError);
}

TEST(Transcript, RecordsAndDecodesCrps)
{
    Wire w;
    p::Transcript transcript;
    w.transport.attachTranscript(&transcript);

    BitVec resp = BitVec::fromString("01");
    w.client->sink(11).send(p::ChallengeMsg{11, sampleChallenge()});
    w.client->sendMessage(11, p::ResponseMsg{11, resp});
    // A second, unmatched challenge must not produce a pair.
    w.client->sink(12).send(p::ChallengeMsg{12, sampleChallenge()});
    (void)w.client->readMessages();

    ASSERT_EQ(transcript.size(), 3u);
    EXPECT_EQ(transcript.entries()[0].direction,
              p::Direction::ServerToClient);
    EXPECT_EQ(transcript.entries()[1].direction,
              p::Direction::ClientToServer);
    auto crps = transcript.observedCrps();
    ASSERT_EQ(crps.size(), 1u);
    EXPECT_EQ(crps[0].first.size(), 2u);
    EXPECT_EQ(crps[0].second, resp);
}

TEST(Transcript, ClearEmpties)
{
    Wire w;
    p::Transcript transcript;
    w.transport.attachTranscript(&transcript);
    w.client->sendMessage(1, p::AuthRequest{1});
    EXPECT_EQ(transcript.size(), 1u);
    transcript.clear();
    EXPECT_EQ(transcript.size(), 0u);
}
