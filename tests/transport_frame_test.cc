#include "transport/frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "transport/cluster_config.h"
#include "util/random.h"

namespace dash {
namespace {

Message MakeMessage() {
  Message msg;
  msg.from = 2;
  msg.to = 5;
  msg.tag = MessageTag::kMaskedValue;
  msg.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
  return msg;
}

TEST(FrameTest, HeaderRoundTrip) {
  const Message msg = MakeMessage();
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + msg.payload.size());

  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->tag, static_cast<uint32_t>(MessageTag::kMaskedValue));
  EXPECT_EQ(header->from, 2);
  EXPECT_EQ(header->to, 5);
  EXPECT_EQ(header->payload_len, msg.payload.size());

  const std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                     frame.end());
  EXPECT_TRUE(CheckFramePayload(header.value(), payload).ok());
  EXPECT_EQ(payload, msg.payload);
}

TEST(FrameTest, EmptyPayload) {
  Message msg = MakeMessage();
  msg.payload.clear();
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  ASSERT_EQ(frame.size(), static_cast<size_t>(kFrameHeaderBytes));
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->payload_len, 0u);
  EXPECT_TRUE(CheckFramePayload(header.value(), {}).ok());
}

TEST(FrameTest, CrcCatchesCorruption) {
  const Message msg = MakeMessage();
  std::vector<uint8_t> frame = EncodeFrame(msg);
  frame[kFrameHeaderBytes + 3] ^= 0x01;  // flip one payload bit
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok());
  const std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                     frame.end());
  const Status s = CheckFramePayload(header.value(), payload);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(FrameTest, RejectsBadMagic) {
  std::vector<uint8_t> frame = EncodeFrame(MakeMessage());
  frame[0] ^= 0xFF;
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, RejectsUnknownVersion) {
  std::vector<uint8_t> frame = EncodeFrame(MakeMessage());
  frame[4] = 0x7F;  // version low byte
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, RejectsOversizedPayloadLength) {
  std::vector<uint8_t> frame = EncodeFrame(MakeMessage());
  // payload_len lives at offset 16 (little-endian); claim 2 GiB.
  frame[16] = 0;
  frame[17] = 0;
  frame[18] = 0;
  frame[19] = 0x80;
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, RejectsTruncatedHeader) {
  const std::vector<uint8_t> frame = EncodeFrame(MakeMessage());
  const auto header = DecodeFrameHeader(frame.data(), kFrameHeaderBytes - 1);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, Crc32KnownVector) {
  // IEEE 802.3 CRC of "123456789" is 0xCBF43926.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
}

// Bit-at-a-time CRC-32 (reflected 0xEDB88320): no tables, so it checks
// the slice-by-8 tables as well as the loop around them.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.NextU64() >> 56);
  return out;
}

TEST(FrameTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every length through eight 8-byte steps plus every tail length, at
  // every alignment of the start.
  const std::vector<uint8_t> buf = RandomBytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
  const std::vector<uint8_t> big = RandomBytes(size_t{1} << 20, 2);
  EXPECT_EQ(Crc32(big.data(), big.size()),
            ReferenceCrc32(big.data(), big.size()));
}

TEST(ClusterConfigTest, ParsesPlainAndCommentedLines) {
  const auto config = ParseClusterConfig(
      "# cluster\n"
      "127.0.0.1:7001\n"
      "\n"
      "node-b:7002   # second party\n");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->num_parties(), 2);
  EXPECT_EQ(config->endpoints[0].host, "127.0.0.1");
  EXPECT_EQ(config->endpoints[0].port, 7001);
  EXPECT_EQ(config->endpoints[1].host, "node-b");
  EXPECT_EQ(config->endpoints[1].port, 7002);
}

TEST(ClusterConfigTest, AcceptsValidatedPartyIndexPrefix) {
  const auto config = ParseClusterConfig("0 a:1\n1 b:2\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->num_parties(), 2);

  const auto wrong = ParseClusterConfig("0 a:1\n5 b:2\n");
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterConfigTest, RejectsMalformedEndpoints) {
  EXPECT_FALSE(ParseClusterConfig("not-an-endpoint\n").ok());
  EXPECT_FALSE(ParseClusterConfig("host:\n").ok());
  EXPECT_FALSE(ParseClusterConfig(":7000\n").ok());
  EXPECT_FALSE(ParseClusterConfig("host:99999\n").ok());
  EXPECT_FALSE(ParseClusterConfig("# only comments\n").ok());
}

TEST(ClusterConfigTest, ToStringRoundTrips) {
  const ClusterConfig original = LoopbackCluster(3, 9100);
  const auto reparsed = ParseClusterConfig(original.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(reparsed->num_parties(), 3);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(reparsed->endpoints[static_cast<size_t>(p)].host, "127.0.0.1");
    EXPECT_EQ(reparsed->endpoints[static_cast<size_t>(p)].port, 9100 + p);
  }
}

TEST(ClusterConfigTest, ParsesCompactList) {
  const auto config = ParseClusterList("a:1, b:2 ,c:3");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->num_parties(), 3);
  EXPECT_EQ(config->endpoints[1].host, "b");
  EXPECT_EQ(config->endpoints[2].port, 3);
}

}  // namespace
}  // namespace dash
