// Wire protocol robustness: randomized round-trip properties plus a
// corpus of hostile inputs (truncations, bit flips, forged lengths) that
// must all land in kMalformed/kNeedMore — never a bogus kOk, never an
// out-of-bounds read (the unit tier runs under ASan in CI).
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "image/image.hpp"
#include "simd/dispatch.hpp"
#include "wire/crc32.hpp"
#include "wire/protocol.hpp"

namespace lumichat::wire {
namespace {

image::Image random_image(std::size_t w, std::size_t h, common::Rng& rng) {
  image::Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = image::Pixel{rng.uniform(0.0, 255.0),
                                  rng.uniform(0.0, 255.0),
                                  rng.uniform(0.0, 255.0)};
    }
  }
  return img;
}

/// Encodes one randomized message of the given type into `buf`.
std::size_t encode_random(MsgType type, common::Rng& rng,
                          std::vector<std::uint8_t>& buf) {
  const auto token = rng.uniform_int(0, ~0ull);
  const auto stream = static_cast<std::uint32_t>(rng.uniform_int(0, ~0u));
  switch (type) {
    case MsgType::kHello: {
      HelloMsg m;
      m.frame_width = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
      m.frame_height = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
      m.client_nonce = rng.uniform_int(0, ~0ull);
      return encode_hello(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kHelloAck: {
      HelloAckMsg m;
      m.assigned_session = rng.uniform_int(0, ~0ull);
      m.status = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
      m.shard = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
      return encode_hello_ack(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kFrame: {
      common::Rng img_rng(rng.uniform_int(0, ~0ull));
      const std::size_t w = rng.uniform_int(1, 16);
      const std::size_t h = rng.uniform_int(1, 16);
      const image::Image tx = random_image(w, h, img_rng);
      const image::Image rx = random_image(w, h, img_rng);
      return encode_frame(buf.data(), buf.size(), token, stream,
                          static_cast<std::uint32_t>(rng.uniform_int(0, 999)),
                          rng.uniform_int(0, ~0ull), tx, rx);
    }
    case MsgType::kVerdict: {
      VerdictMsg m;
      m.window_index = static_cast<std::uint32_t>(rng.uniform_int(0, 99));
      m.verdict = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
      m.is_attacker = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
      m.lof_score = rng.uniform(-5.0, 5.0);
      m.push_to_verdict_s = rng.uniform(0.0, 1.0);
      return encode_verdict(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kHeartbeat: {
      HeartbeatMsg m;
      m.t_us = rng.uniform_int(0, ~0ull);
      return encode_heartbeat(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kBye: {
      ByeMsg m;
      m.reason = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      return encode_bye(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kStatsRequest: {
      StatsRequestMsg m;
      m.format = static_cast<std::uint32_t>(rng.uniform_int(0, 1));
      return encode_stats_request(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kStatsReply: {
      std::string text(rng.uniform_int(0, 64), 'x');
      for (char& c : text) {
        c = static_cast<char>('a' + rng.uniform_int(0, 25));
      }
      return encode_stats_reply(buf.data(), buf.size(), token, stream,
                                StatsFormat::kJson, text);
    }
  }
  return 0;
}

constexpr MsgType kAllTypes[] = {
    MsgType::kHello,     MsgType::kHelloAck,     MsgType::kFrame,
    MsgType::kVerdict,   MsgType::kHeartbeat,    MsgType::kBye,
    MsgType::kStatsRequest, MsgType::kStatsReply};

TEST(WireProtocol, RandomizedMessagesRoundTrip) {
  common::Rng rng(2024);
  std::vector<std::uint8_t> buf(frame_wire_size(16, 16));
  for (int iter = 0; iter < 200; ++iter) {
    for (const MsgType type : kAllTypes) {
      const std::size_t n = encode_random(type, rng, buf);
      ASSERT_GT(n, 0u);
      MessageView view;
      ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
      EXPECT_EQ(view.header.type, type);
      EXPECT_EQ(view.wire_size, n);
      EXPECT_EQ(view.header.version, kProtocolVersion);
    }
  }
}

TEST(WireProtocol, HelloFieldsSurviveRoundTrip) {
  std::vector<std::uint8_t> buf(256);
  HelloMsg in;
  in.frame_width = 37;
  in.frame_height = 21;
  in.client_nonce = 0xDEADBEEFCAFEull;
  const std::size_t n = encode_hello(buf.data(), buf.size(), 77, 5, in);
  ASSERT_GT(n, 0u);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.session_token, 77u);
  EXPECT_EQ(view.header.stream_id, 5u);
  HelloMsg out;
  ASSERT_TRUE(parse_hello(view, &out));
  EXPECT_EQ(out.frame_width, in.frame_width);
  EXPECT_EQ(out.frame_height, in.frame_height);
  EXPECT_EQ(out.client_nonce, in.client_nonce);
}

TEST(WireProtocol, VerdictDoublesAreBitExact) {
  std::vector<std::uint8_t> buf(256);
  VerdictMsg in;
  in.window_index = 3;
  in.verdict = 1;
  in.is_attacker = 1;
  in.lof_score = 1.6180339887498949;  // not representable in float
  in.push_to_verdict_s = 2.2250738585072014e-308;  // near-subnormal
  const std::size_t n = encode_verdict(buf.data(), buf.size(), 1, 1, in);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  VerdictMsg out;
  ASSERT_TRUE(parse_verdict(view, &out));
  EXPECT_EQ(std::memcmp(&out.lof_score, &in.lof_score, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&out.push_to_verdict_s, &in.push_to_verdict_s,
                        sizeof(double)),
            0);
}

TEST(WireProtocol, FramePixelsRoundTripBitIdentical) {
  common::Rng rng(9);
  const image::Image tx = random_image(11, 7, rng);
  const image::Image rx = random_image(11, 7, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(11, 7));
  const std::size_t n =
      encode_frame(buf.data(), buf.size(), 42, 1, 17, 123456, tx, rx);
  ASSERT_EQ(n, buf.size());

  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  FrameMsg frame;
  ASSERT_TRUE(parse_frame(view, &frame));
  EXPECT_EQ(frame.frame_seq, 17u);
  EXPECT_EQ(frame.timestamp_us, 123456u);

  image::Image tx2, rx2;
  frame_pixels_to_images(frame, &tx2, &rx2);
  ASSERT_EQ(tx2.width(), tx.width());
  ASSERT_EQ(tx2.height(), tx.height());
  EXPECT_EQ(std::memcmp(tx2.pixels().data(), tx.pixels().data(),
                        tx.pixels().size() * sizeof(image::Pixel)),
            0);
  EXPECT_EQ(std::memcmp(rx2.pixels().data(), rx.pixels().data(),
                        rx.pixels().size() * sizeof(image::Pixel)),
            0);
}

/// A w x h image from a SplitMix64 stream: unlike common::Rng's std::
/// distributions, the pixel bits do not depend on the standard library.
image::Image seeded_image(std::size_t w, std::size_t h, std::uint64_t& s) {
  const auto next = [&s] {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return 255.0 * (static_cast<double>(z >> 11) * 0x1.0p-53);
  };
  image::Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const double r = next();
      const double g = next();
      const double b = next();
      img.at(x, y) = image::Pixel{r, g, b};
    }
  }
  return img;
}

TEST(WireProtocol, FrameCrcIsPinned) {
  // The sealed CRC of one fixed 96x72 frame pair, as emitted by the
  // byte-at-a-time table loop the dispatched kernels replaced: the bytes on
  // the wire must not change with the checksum's implementation, under
  // either kernel table.
  constexpr std::uint32_t kPinnedCrc = 0x122B4009u;
  std::uint64_t s = 9672;
  const image::Image tx = seeded_image(96, 72, s);
  const image::Image rx = seeded_image(96, 72, s);
  std::vector<std::uint8_t> buf(frame_wire_size(96, 72));
  ASSERT_EQ(encode_frame(buf.data(), buf.size(), 0x0123456789abcdefull, 7, 42,
                         4200000, tx, rx, 0xfeedfacecafebeefull),
            331832u);
  std::uint32_t sealed = 0;
  std::memcpy(&sealed, buf.data() + 20, sizeof(sealed));
  EXPECT_EQ(sealed, kPinnedCrc);

  std::vector<const simd::Kernels*> tables{&simd::scalar_kernels()};
  if (const simd::Kernels* avx2 = simd::avx2_kernels()) tables.push_back(avx2);
  for (const simd::Kernels* k : tables) {
    const std::uint32_t crc = crc32_final(k->crc32_update(
        k->crc32_update(kCrc32Init, buf.data(), 20), buf.data() + kHeaderSize,
        buf.size() - kHeaderSize));
    EXPECT_EQ(crc, kPinnedCrc) << k->name;
  }
}

TEST(WireProtocol, EncodeRefusesUndersizedBuffer) {
  std::vector<std::uint8_t> buf(kHeaderSize + kHelloPayloadSize - 1);
  EXPECT_EQ(encode_hello(buf.data(), buf.size(), 1, 1, HelloMsg{}), 0u);
  common::Rng rng(1);
  const image::Image img = random_image(8, 8, rng);
  std::vector<std::uint8_t> small(frame_wire_size(8, 8) - 1);
  EXPECT_EQ(encode_frame(small.data(), small.size(), 1, 1, 0, 0, img, img),
            0u);
}

TEST(WireProtocol, EncodeFrameRejectsMismatchedOrOversizedImages) {
  common::Rng rng(2);
  std::vector<std::uint8_t> buf(1 << 20);
  const image::Image a = random_image(8, 8, rng);
  const image::Image b = random_image(8, 9, rng);
  EXPECT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, a, b), 0u);
  const image::Image empty;
  EXPECT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, empty, empty),
            0u);
}

// --- Hostile-input corpus -------------------------------------------------

TEST(WireProtocolCorpus, EveryTruncationIsNeverOk) {
  common::Rng rng(77);
  std::vector<std::uint8_t> buf(frame_wire_size(16, 16));
  for (const MsgType type : kAllTypes) {
    const std::size_t n = encode_random(type, rng, buf);
    ASSERT_GT(n, 0u);
    for (std::size_t len = 0; len < n; ++len) {
      MessageView view;
      const DecodeStatus st = decode_message(buf.data(), len, &view);
      // A strict prefix of a valid message can never decode as complete;
      // it is kNeedMore until enough bytes arrive to prove corruption.
      EXPECT_NE(st, DecodeStatus::kOk) << "type " << static_cast<int>(type)
                                       << " truncated at " << len;
    }
  }
}

TEST(WireProtocolCorpus, EverySingleBitFlipIsNeverOk) {
  common::Rng rng(78);
  std::vector<std::uint8_t> buf(frame_wire_size(4, 4));
  for (const MsgType type : kAllTypes) {
    const std::size_t n = encode_random(type, rng, buf);
    ASSERT_GT(n, 0u);
    for (std::size_t byte = 0; byte < n; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        buf[byte] ^= static_cast<std::uint8_t>(1 << bit);
        MessageView view;
        const DecodeStatus st = decode_message(buf.data(), n, &view);
        // The CRC covers header and payload, so any flip either breaks the
        // CRC (kMalformed) or inflates payload_len (kNeedMore) — it can
        // never pass as a valid message.
        EXPECT_NE(st, DecodeStatus::kOk)
            << "type " << static_cast<int>(type) << " bit " << bit
            << " of byte " << byte;
        buf[byte] ^= static_cast<std::uint8_t>(1 << bit);
      }
    }
  }
}

TEST(WireProtocolCorpus, OversizedLengthRejectedFromFirstFourBytes) {
  std::uint8_t buf[kHeaderSize]{};
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(buf, &huge, sizeof(huge));
  MessageView view;
  // Rejected even before a full header arrives — a hostile length must not
  // make the server buffer toward a bound it will never accept.
  EXPECT_EQ(decode_message(buf, 4, &view), DecodeStatus::kMalformed);
  buf[4] = kProtocolVersion;
  buf[5] = static_cast<std::uint8_t>(MsgType::kHeartbeat);
  EXPECT_EQ(decode_message(buf, kHeaderSize, &view), DecodeStatus::kMalformed);
}

TEST(WireProtocolCorpus, BadVersionTypeOrFlagsRejected) {
  std::vector<std::uint8_t> buf(256);
  const std::size_t n =
      encode_heartbeat(buf.data(), buf.size(), 1, 1, HeartbeatMsg{});
  MessageView view;

  const auto prefix_end =
      buf.begin() + static_cast<std::ptrdiff_t>(n);
  std::vector<std::uint8_t> tampered(buf.begin(), prefix_end);
  tampered[4] = kProtocolVersion + 1;  // version
  EXPECT_EQ(decode_message(tampered.data(), 5, &view),
            DecodeStatus::kMalformed);

  tampered.assign(buf.begin(), prefix_end);
  tampered[5] = 99;  // unknown type, caught from the 6-byte prefix on
  EXPECT_EQ(decode_message(tampered.data(), 6, &view),
            DecodeStatus::kMalformed);
}

TEST(WireProtocolCorpus, ForgedFrameDimensionsFailParse) {
  common::Rng rng(5);
  const image::Image img = random_image(8, 8, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(8, 8));
  ASSERT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, img, img),
            buf.size());

  // Forge width 9 and re-seal the CRC: the framing layer accepts the
  // message (CRC is consistent), but parse_frame must reject it because
  // 9 x 8 does not account for the payload bytes.
  const std::uint32_t forged_w = 9;
  std::memcpy(buf.data() + kHeaderSize + 16, &forged_w, sizeof(forged_w));
  const std::uint32_t crc = crc32_final(
      crc32_update(crc32_update(kCrc32Init, buf.data(), 20),
                   buf.data() + kHeaderSize, buf.size() - kHeaderSize));
  std::memcpy(buf.data() + 20, &crc, sizeof(crc));

  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), buf.size(), &view), DecodeStatus::kOk);
  FrameMsg frame;
  EXPECT_FALSE(parse_frame(view, &frame));
}

TEST(WireProtocolCorpus, WrongPayloadSizeFailsTypedParse) {
  std::vector<std::uint8_t> buf(256);
  const std::size_t n =
      encode_heartbeat(buf.data(), buf.size(), 1, 1, HeartbeatMsg{});
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  HelloMsg hello;
  EXPECT_FALSE(parse_hello(view, &hello));  // wrong type
  VerdictMsg verdict;
  EXPECT_FALSE(parse_verdict(view, &verdict));
}

TEST(WireProtocolCorpus, RandomGarbageNeverDecodesOk) {
  common::Rng rng(123);
  std::vector<std::uint8_t> junk(512);
  for (int iter = 0; iter < 500; ++iter) {
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    MessageView view;
    const DecodeStatus st = decode_message(junk.data(), junk.size(), &view);
    // Random bytes passing the version/type/flags checks still have to
    // clear a 32-bit CRC; treat a kOk here as the vanishing-probability
    // event it is and fail loudly.
    EXPECT_NE(st, DecodeStatus::kOk) << "iteration " << iter;
  }
}

// --- Version 1 interop and version 2 additions ----------------------------

TEST(WireProtocolV2, FrameTraceIdRoundTrips) {
  common::Rng rng(31);
  const image::Image img = random_image(6, 5, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(6, 5));
  const std::uint64_t trace = 0x0123456789ABCDEFull;
  const std::size_t n =
      encode_frame(buf.data(), buf.size(), 9, 2, 4, 777, img, img, trace);
  ASSERT_EQ(n, buf.size());
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.version, 2);
  FrameMsg frame;
  ASSERT_TRUE(parse_frame(view, &frame));
  EXPECT_EQ(frame.trace_id, trace);
}

TEST(WireProtocolV2, VerdictTraceIdRoundTrips) {
  std::vector<std::uint8_t> buf(256);
  VerdictMsg in;
  in.window_index = 7;
  in.trace_id = 0xFEEDFACEull;
  const std::size_t n = encode_verdict(buf.data(), buf.size(), 1, 1, in);
  ASSERT_EQ(n, kHeaderSize + kVerdictPayloadSizeV2);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  VerdictMsg out;
  ASSERT_TRUE(parse_verdict(view, &out));
  EXPECT_EQ(out.trace_id, in.trace_id);
}

TEST(WireProtocolV1, MessagesKeepLegacyLayoutAndDropTraceIds) {
  common::Rng rng(32);
  const image::Image img = random_image(4, 4, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(4, 4, 2));

  // A v1 frame is 8 bytes shorter (no trace_id) and decodes trace_id == 0
  // even when the encoder was handed one.
  const std::size_t n = encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, img,
                                     img, /*trace_id=*/55, /*version=*/1);
  ASSERT_EQ(n, frame_wire_size(4, 4, 1));
  EXPECT_EQ(n + 8, frame_wire_size(4, 4, 2));
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.version, 1);
  FrameMsg frame;
  ASSERT_TRUE(parse_frame(view, &frame));
  EXPECT_EQ(frame.trace_id, 0u);

  VerdictMsg v;
  v.trace_id = 99;
  const std::size_t vn =
      encode_verdict(buf.data(), buf.size(), 1, 1, v, /*version=*/1);
  ASSERT_EQ(vn, kHeaderSize + kVerdictPayloadSize);
  ASSERT_EQ(decode_message(buf.data(), vn, &view), DecodeStatus::kOk);
  VerdictMsg out;
  ASSERT_TRUE(parse_verdict(view, &out));
  EXPECT_EQ(out.trace_id, 0u);
}

TEST(WireProtocolV1, FlagsAndStatsTypesDoNotExist) {
  std::vector<std::uint8_t> buf(256);
  // v1 has no flag vocabulary: a flagged v1 heartbeat cannot be encoded.
  EXPECT_EQ(encode_heartbeat(buf.data(), buf.size(), 1, 1, HeartbeatMsg{},
                             /*version=*/1, kFlagEcho),
            0u);
  // Stats messages are v2-only at the encoder...
  const std::size_t n = encode_stats_request(buf.data(), buf.size(), 1, 1,
                                             StatsRequestMsg{});
  ASSERT_GT(n, 0u);
  // ...and a type-7 message under a v1 header is rejected from the prefix:
  // re-stamp version 1 and watch the 6-byte prefix check fire before CRC.
  buf[4] = 1;
  MessageView view;
  EXPECT_EQ(decode_message(buf.data(), 6, &view), DecodeStatus::kMalformed);
}

TEST(WireProtocolV2, UnknownFlagBitsAreMalformed) {
  std::vector<std::uint8_t> buf(256);
  const std::size_t n =
      encode_heartbeat(buf.data(), buf.size(), 1, 1, HeartbeatMsg{},
                       kProtocolVersion, kFlagEcho);
  ASSERT_GT(n, 0u);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.flags, kFlagEcho);
  // Set a flag bit outside kKnownFlags: rejected from the 8-byte prefix,
  // before the CRC would catch it anyway.
  buf[6] |= 0x2;
  EXPECT_EQ(decode_message(buf.data(), kHeaderSize, &view),
            DecodeStatus::kMalformed);
}

TEST(WireProtocolV2, StatsReplyTextRoundTripsAndTruncationRejected) {
  const std::string text = "{\"counters\":{\"wire.frames_in\":42}}";
  std::vector<std::uint8_t> buf(stats_reply_wire_size(text.size()));
  const std::size_t n = encode_stats_reply(buf.data(), buf.size(), 3, 1,
                                           StatsFormat::kPrometheus, text);
  ASSERT_EQ(n, buf.size());
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  StatsReplyMsg reply;
  ASSERT_TRUE(parse_stats_reply(view, &reply));
  EXPECT_EQ(reply.format,
            static_cast<std::uint32_t>(StatsFormat::kPrometheus));
  ASSERT_EQ(reply.text_len, text.size());
  EXPECT_EQ(std::memcmp(reply.text, text.data(), text.size()), 0);

  // Every strict prefix stays kNeedMore/kMalformed (never a bogus kOk).
  for (std::size_t len = 0; len < n; ++len) {
    EXPECT_NE(decode_message(buf.data(), len, &view), DecodeStatus::kOk);
  }
}

TEST(WireProtocolV2, EmptyStatsReplyIsValid) {
  std::vector<std::uint8_t> buf(stats_reply_wire_size(0));
  const std::size_t n = encode_stats_reply(buf.data(), buf.size(), 1, 1,
                                           StatsFormat::kJson, {});
  ASSERT_EQ(n, buf.size());
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  StatsReplyMsg reply;
  ASSERT_TRUE(parse_stats_reply(view, &reply));
  EXPECT_EQ(reply.text_len, 0u);
}

TEST(WireProtocolV1, RoundTripsStillDecode) {
  common::Rng rng(33);
  std::vector<std::uint8_t> buf(256);
  const std::size_t hn = encode_hello(buf.data(), buf.size(), 5, 9, HelloMsg{},
                                      /*version=*/1);
  ASSERT_GT(hn, 0u);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), hn, &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.version, 1);
  EXPECT_EQ(view.header.flags, 0);

  // Out-of-range versions encode nothing at all.
  EXPECT_EQ(encode_hello(buf.data(), buf.size(), 5, 9, HelloMsg{},
                         /*version=*/0),
            0u);
  EXPECT_EQ(encode_hello(buf.data(), buf.size(), 5, 9, HelloMsg{},
                         static_cast<std::uint8_t>(kProtocolVersion + 1)),
            0u);
}

}  // namespace
}  // namespace lumichat::wire
