// Adversarial inputs for the wire framing layer (transport/frame.h) and
// the TcpTransport receive path: truncated headers, corrupted CRCs,
// oversized length fields, and a deterministic mutation corpus. Run
// under ASan/UBSan in CI, these double as memory-safety probes — the
// decoder must return Status errors, never read out of bounds or crash.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/serialization.h"
#include "transport/cluster_config.h"
#include "transport/frame.h"
#include "transport/session_mux.h"
#include "transport/tcp_transport.h"
#include "util/random.h"

namespace dash {
namespace {

Message MakeMessage(size_t payload_bytes) {
  Message msg;
  msg.from = 1;
  msg.to = 0;
  msg.tag = MessageTag::kPlainStats;
  msg.payload.resize(payload_bytes);
  for (size_t i = 0; i < payload_bytes; ++i) {
    msg.payload[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  return msg;
}

// ---------------------------------------------------------------------
// Header decoding: every truncation length must be rejected cleanly.

TEST(FrameAdversarialTest, EveryTruncatedHeaderLengthIsRejected) {
  const std::vector<uint8_t> frame = EncodeFrame(MakeMessage(32));
  for (size_t len = 0; len < kFrameHeaderBytes; ++len) {
    const auto header = DecodeFrameHeader(frame.data(), len);
    ASSERT_FALSE(header.ok()) << "accepted a " << len << "-byte header";
    EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrameAdversarialTest, OversizedLengthFieldsAreRejected) {
  // Each of these payload_len values exceeds the 1 GiB corruption
  // guard; none may survive header validation.
  const std::vector<uint32_t> evil_lengths = {
      kFrameMaxPayloadBytes + 1, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu};
  for (const uint32_t evil : evil_lengths) {
    std::vector<uint8_t> frame = EncodeFrame(MakeMessage(8));
    for (int i = 0; i < 4; ++i) {
      frame[16 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(evil >> (8 * i));
    }
    const auto header = DecodeFrameHeader(frame.data(), frame.size());
    ASSERT_FALSE(header.ok()) << "accepted payload_len " << evil;
    EXPECT_EQ(header.status().code(), StatusCode::kDataLoss);
  }
}

TEST(FrameAdversarialTest, EverySingleByteCorruptionOfPayloadIsCaught) {
  const Message msg = MakeMessage(64);
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok()) << header.status();
  for (size_t i = 0; i < msg.payload.size(); ++i) {
    std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                 frame.end());
    payload[i] ^= 0x40;
    const Status s = CheckFramePayload(header.value(), payload);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "corruption at payload byte " << i << " went undetected";
  }
}

TEST(FrameAdversarialTest, PayloadLengthMismatchIsCaught) {
  const Message msg = MakeMessage(16);
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok());
  std::vector<uint8_t> short_payload(frame.begin() + kFrameHeaderBytes,
                                     frame.end() - 1);
  EXPECT_EQ(CheckFramePayload(header.value(), short_payload).code(),
            StatusCode::kDataLoss);
  std::vector<uint8_t> long_payload(frame.begin() + kFrameHeaderBytes,
                                    frame.end());
  long_payload.push_back(0);
  EXPECT_EQ(CheckFramePayload(header.value(), long_payload).code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------
// Deterministic mutation corpus. A fixed-seed Rng drives byte flips,
// truncations and length rewrites over valid frames; the decoder must
// always either parse or fail with a Status — any OOB read trips ASan.

TEST(FrameAdversarialTest, MutationCorpusNeverCrashesTheDecoder) {
  Rng rng(0xDA5Cu);  // fixed seed: the corpus is reproducible
  const std::vector<size_t> payload_sizes = {0, 1, 7, 24, 255, 4096};
  int parsed = 0;
  int rejected = 0;
  for (const size_t payload_size : payload_sizes) {
    const std::vector<uint8_t> pristine = EncodeFrame(MakeMessage(payload_size));
    for (int round = 0; round < 400; ++round) {
      std::vector<uint8_t> frame = pristine;
      // 1-4 mutations per round.
      const int mutations = 1 + static_cast<int>(rng.UniformInt(4));
      for (int m = 0; m < mutations; ++m) {
        switch (rng.UniformInt(3)) {
          case 0: {  // flip a random byte anywhere in the frame
            if (frame.empty()) break;  // an earlier truncation emptied it
            const size_t pos = static_cast<size_t>(
                rng.UniformInt(static_cast<uint64_t>(frame.size())));
            frame[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
            break;
          }
          case 1: {  // truncate to a random prefix
            const size_t keep = static_cast<size_t>(
                rng.UniformInt(static_cast<uint64_t>(frame.size() + 1)));
            frame.resize(keep);
            break;
          }
          default: {  // rewrite the length field with random bytes
            for (size_t i = 16; i < 20 && i < frame.size(); ++i) {
              frame[i] = static_cast<uint8_t>(rng.UniformInt(256));
            }
            break;
          }
        }
      }
      const auto header = DecodeFrameHeader(frame.data(), frame.size());
      if (!header.ok()) {
        ++rejected;
        continue;
      }
      // Header survived (mutations may only have hit the payload): the
      // CRC check runs against whatever payload bytes are present.
      const size_t have =
          frame.size() > kFrameHeaderBytes ? frame.size() - kFrameHeaderBytes
                                           : 0;
      const std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                         frame.begin() +
                                             static_cast<ptrdiff_t>(
                                                 kFrameHeaderBytes + have));
      const Status s = CheckFramePayload(header.value(), payload);
      if (s.ok()) {
        ++parsed;
      } else {
        ++rejected;
      }
    }
  }
  // The corpus must exercise both outcomes to mean anything.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------
// Live transport: a malicious peer completes the handshake, then feeds
// the socket garbage. The victim's Receive must fail with a Status, not
// desynchronize or crash.

// Minimal raw-socket "party 1": performs the dialer's half of the
// handshake against a real TcpTransport listening as party 0.
class RawPeer {
 public:
  bool ConnectAndHandshake(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (attempt == 199) return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Dialer speaks first: hello(from=1, to=0, parties=2).
    std::vector<uint8_t> payload;
    for (const uint32_t v : {1u, 2u}) {
      for (int i = 0; i < 4; ++i) {
        payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
      }
    }
    FrameHeader hello;
    hello.tag = kFrameHelloTag;
    hello.from = 1;
    hello.to = 0;
    hello.payload_len = static_cast<uint32_t>(payload.size());
    hello.crc32 = Crc32(payload.data(), payload.size());
    std::vector<uint8_t> wire;
    EncodeFrameHeader(hello, &wire);
    wire.insert(wire.end(), payload.begin(), payload.end());
    if (!SendRaw(wire)) return false;
    // Read the hello reply (header + 8 payload bytes) and discard it.
    std::vector<uint8_t> reply(kFrameHeaderBytes + 8);
    size_t off = 0;
    while (off < reply.size()) {
      const ssize_t n =
          ::recv(fd_, reply.data() + off, reply.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendRaw(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~RawPeer() { Close(); }

 private:
  int fd_ = -1;
};

uint16_t FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(
      ::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(
      ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

std::unique_ptr<TcpTransport> ConnectVictim(uint16_t victim_port,
                                            uint16_t peer_port, RawPeer* peer,
                                            int receive_timeout_ms = 2000) {
  ClusterConfig cluster;
  cluster.endpoints.push_back({"127.0.0.1", victim_port});
  cluster.endpoints.push_back({"127.0.0.1", peer_port});
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;
  options.receive_timeout_ms = receive_timeout_ms;

  std::unique_ptr<TcpTransport> victim;
  std::thread dial([&] {
    EXPECT_TRUE(peer->ConnectAndHandshake(victim_port));
  });
  auto r = TcpTransport::Connect(cluster, 0, options);
  dial.join();
  EXPECT_TRUE(r.ok()) << r.status();
  if (r.ok()) victim = std::move(r).value();
  return victim;
}

TEST(TcpAdversarialTest, GarbageBytesAfterHandshakeFailReceive) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);

  // 64 bytes of garbage that cannot start a valid frame.
  std::vector<uint8_t> garbage(64, 0x5A);
  ASSERT_TRUE(peer.SendRaw(garbage));

  const auto msg = victim->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kDataLoss);
}

TEST(TcpAdversarialTest, CorruptedCrcOnTheWireFailsReceive) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);

  Message msg = MakeMessage(32);
  std::vector<uint8_t> frame = EncodeFrame(msg);
  frame[kFrameHeaderBytes + 5] ^= 0x01;  // payload no longer matches CRC
  ASSERT_TRUE(peer.SendRaw(frame));

  const auto received = victim->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
}

TEST(TcpAdversarialTest, HelloTagAfterHandshakeFailsReceive) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);

  // A second hello is a protocol violation once data flows.
  FrameHeader hello;
  hello.tag = kFrameHelloTag;
  hello.from = 1;
  hello.to = 0;
  hello.payload_len = 0;
  hello.crc32 = Crc32(nullptr, 0);
  std::vector<uint8_t> wire;
  EncodeFrameHeader(hello, &wire);
  ASSERT_TRUE(peer.SendRaw(wire));

  const auto received = victim->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
}

// A peer dying BETWEEN frames is a disconnect; a peer dying INSIDE a
// frame is a disconnect that also cost us data. Both must surface as
// Unavailable (not DeadlineExceeded — the link is gone, retrying is
// pointless), and the mid-frame case must say so.

TEST(TcpAdversarialTest, CleanCloseBetweenFramesIsUnavailable) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);

  peer.Close();

  const auto received = victim->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable)
      << received.status();
  EXPECT_NE(received.status().message().find("disconnected"),
            std::string::npos)
      << received.status();
  EXPECT_EQ(received.status().message().find("mid-frame"), std::string::npos)
      << received.status();
}

TEST(TcpAdversarialTest, KillBetweenHeaderAndPayloadIsMidFrameUnavailable) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);

  // A complete header promising 64 payload bytes, then only 10 of them,
  // then the sender dies.
  Message msg = MakeMessage(64);
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  const std::vector<uint8_t> partial(
      frame.begin(), frame.begin() + kFrameHeaderBytes + 10);
  ASSERT_TRUE(peer.SendRaw(partial));
  peer.Close();

  const auto received = victim->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable)
      << received.status();
  EXPECT_NE(received.status().message().find("mid-frame"), std::string::npos)
      << received.status();
}

TEST(TcpAdversarialTest, MutationCorpusOnTheWireNeverCrashesTheVictim) {
  Rng rng(0xF00Du);  // fixed seed: deterministic corpus
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  // Short receive deadline: a mutated length field can leave the victim
  // waiting for bytes that never come, and that must bound the test.
  auto victim =
      ConnectVictim(victim_port, FreePort(), &peer, /*receive_timeout_ms=*/300);
  ASSERT_NE(victim, nullptr);

  // One corrupted frame per round: send, require a clean Status (parse
  // error, CRC error or deadline — never an abort or OOB read).
  const std::vector<uint8_t> pristine = EncodeFrame(MakeMessage(48));
  int failures = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<uint8_t> frame = pristine;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(frame.size())));
    frame[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
    if (!peer.SendRaw(frame)) break;  // victim may have dropped the link
    const auto received = victim->Receive(0, 1, MessageTag::kPlainStats);
    if (!received.ok()) ++failures;
  }
  // Single-byte corruption must never slip a frame through unnoticed.
  EXPECT_GT(failures, 0);
}

// ---------------------------------------------------------------------
// Session layer adversarial cases: hostile, unknown and duplicate
// session ids on the wire, cross-session reordering, and truncation at
// the session field (header offset 6).

Message MakeSessionMessage(uint32_t session, uint8_t fill) {
  Message msg = MakeMessage(8);
  msg.session = session;
  for (auto& b : msg.payload) b = fill;
  return msg;
}

TEST(SessionAdversarialTest, TruncationInsideTheSessionFieldIsRejected) {
  // The session id is the u16 at header bytes [6, 8): a header cut
  // mid-field must be an InvalidArgument parse error, never a read of
  // the missing byte.
  const std::vector<uint8_t> frame = EncodeFrame(MakeSessionMessage(513, 1));
  for (const size_t len : {size_t{6}, size_t{7}}) {
    const auto header = DecodeFrameHeader(frame.data(), len);
    ASSERT_FALSE(header.ok()) << "accepted a header cut at byte " << len;
    EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
  }
  // The full header round-trips the id unchanged.
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header.value().session, 513u);
}

TEST(SessionAdversarialTest, SessionFrameOnTheSessionlessPathIsDesync) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);

  // A hostile (or misconfigured) peer stamps a session id while the
  // victim reads the sessionless stream: hard protocol error, because
  // silently dropping the id would splice another session's traffic
  // into this scan.
  ASSERT_TRUE(peer.SendRaw(EncodeFrame(MakeSessionMessage(5, 0xEE))));
  const auto received = victim->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(received.status().message().find("session"), std::string::npos)
      << received.status();
}

TEST(SessionAdversarialTest, CrossSessionReorderingIsInvisible) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);
  SessionMux mux(victim.get());
  auto five = mux.OpenSession(5);
  auto nine = mux.OpenSession(9);
  ASSERT_TRUE(five.ok() && nine.ok());

  // The wire interleaves sessions 9, 5, 9: each channel still sees its
  // own frames alone, in its own order.
  ASSERT_TRUE(peer.SendRaw(EncodeFrame(MakeSessionMessage(9, 0x91))));
  ASSERT_TRUE(peer.SendRaw(EncodeFrame(MakeSessionMessage(5, 0x55))));
  ASSERT_TRUE(peer.SendRaw(EncodeFrame(MakeSessionMessage(9, 0x92))));

  const auto on_five = five.value()->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_TRUE(on_five.ok()) << on_five.status();
  EXPECT_EQ(on_five.value().payload[0], 0x55);
  const auto first_nine =
      nine.value()->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_TRUE(first_nine.ok()) << first_nine.status();
  EXPECT_EQ(first_nine.value().payload[0], 0x91);
  const auto second_nine =
      nine.value()->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_TRUE(second_nine.ok()) << second_nine.status();
  EXPECT_EQ(second_nine.value().payload[0], 0x92);
}

TEST(SessionAdversarialTest, HostileSessionlessFrameOnAMuxIsRejected) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);
  SessionMux mux(victim.get());
  auto channel = mux.OpenSession(5);
  ASSERT_TRUE(channel.ok());

  // Session-0 frames have no business on a muxed link; they are dropped
  // and counted, and the open session never sees them.
  ASSERT_TRUE(peer.SendRaw(EncodeFrame(MakeSessionMessage(0, 0x00))));
  bool rejected = false;
  for (int i = 0; i < 400 && !rejected; ++i) {
    rejected = mux.stats().hostile_rejects >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(rejected);
  EXPECT_FALSE(channel.value()->HasPending(0, 1));
}

TEST(SessionAdversarialTest, UnknownSessionFloodIsBoundedByTheOrphanCap) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);
  SessionMuxOptions options;
  options.max_orphan_messages = 16;
  options.receive_timeout_ms = 500;
  SessionMux mux(victim.get(), options);

  // A hostile peer sprays frames across 48 sessions nobody opened. The
  // orphan buffer must cap at 16 and drop the rest — bounded memory, no
  // crash, no effect on a live session.
  for (uint32_t s = 100; s < 148; ++s) {
    ASSERT_TRUE(peer.SendRaw(EncodeFrame(MakeSessionMessage(s, 0x77))));
  }
  bool capped = false;
  for (int i = 0; i < 400 && !capped; ++i) {
    const SessionMuxStats stats = mux.stats();
    capped = stats.dropped_orphans >= 32 && stats.orphaned_messages >= 48;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const SessionMuxStats stats = mux.stats();
  EXPECT_TRUE(capped) << "orphaned=" << stats.orphaned_messages
                      << " dropped=" << stats.dropped_orphans;

  // Beyond the cap the lowest orphaned session id loses its oldest
  // frame first, and the flood arrives in ascending order: sessions
  // 100..131 are evicted and 132..147 survive.
  // An evicted session opened afterwards times out cleanly...
  auto evicted = mux.OpenSession(120);
  ASSERT_TRUE(evicted.ok());
  const auto lost = evicted.value()->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kDeadlineExceeded)
      << lost.status();
  // ...and a surviving one adopts its own frame on the same link.
  auto survivor = mux.OpenSession(147);
  ASSERT_TRUE(survivor.ok());
  const auto adopted =
      survivor.value()->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_EQ(adopted.value().session, 147u);
  EXPECT_EQ(adopted.value().payload[0], 0x77);
}

TEST(SessionAdversarialTest, DuplicateFramesInsideASessionAreDelivered) {
  RawPeer peer;
  const uint16_t victim_port = FreePort();
  auto victim = ConnectVictim(victim_port, FreePort(), &peer);
  ASSERT_NE(victim, nullptr);
  SessionMux mux(victim.get());
  auto channel = mux.OpenSession(5);
  ASSERT_TRUE(channel.ok());

  // The mux does not deduplicate: a replayed frame reaches the session
  // twice, and it is the protocol's commit checksum that catches real
  // replay attacks. Both copies arrive, in order, nowhere else.
  const std::vector<uint8_t> frame = EncodeFrame(MakeSessionMessage(5, 0xAA));
  ASSERT_TRUE(peer.SendRaw(frame));
  ASSERT_TRUE(peer.SendRaw(frame));
  for (int copy = 0; copy < 2; ++copy) {
    const auto msg = channel.value()->Receive(0, 1, MessageTag::kPlainStats);
    ASSERT_TRUE(msg.ok()) << "copy " << copy << ": " << msg.status();
    EXPECT_EQ(msg.value().payload[0], 0xAA);
  }
  EXPECT_FALSE(channel.value()->HasPending(0, 1));
}

// ---------------------------------------------------------------------
// Crc32 must be well-defined on edge inputs.

TEST(FrameAdversarialTest, CrcHandlesEmptyAndLargeBuffers) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  std::vector<uint8_t> big(1 << 20, 0xAB);
  const uint32_t a = Crc32(big.data(), big.size());
  big[big.size() - 1] ^= 1;
  const uint32_t b = Crc32(big.data(), big.size());
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace dash
