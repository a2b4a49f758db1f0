#include "transport/tcp_transport.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/scan_result.h"
#include "data/workloads.h"
#include "net/serialization.h"
#include "transport/cluster_config.h"
#include "transport/frame.h"
#include "transport/party_runner.h"

namespace dash {
namespace {

// Asks the kernel for free ephemeral ports. The sockets are closed
// before the transports bind, so a parallel process could in principle
// steal one, but loopback CI contention makes that vanishingly rare.
std::vector<uint16_t> FreePorts(int count) {
  std::vector<uint16_t> ports;
  std::vector<int> fds;
  for (int i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                            &len),
              0);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

ClusterConfig MakeCluster(const std::vector<uint16_t>& ports) {
  ClusterConfig cluster;
  for (const uint16_t port : ports) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  return cluster;
}

using TransportOrError = Result<std::unique_ptr<TcpTransport>>;

// Parties 0 and 1 of a two-party loopback mesh.
std::pair<std::unique_ptr<TcpTransport>, std::unique_ptr<TcpTransport>>
ConnectPair() {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;
  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    EXPECT_TRUE(r.ok()) << r.status();
    if (r.ok()) t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  EXPECT_TRUE(r0.ok()) << r0.status();
  if (!r0.ok()) return {nullptr, std::move(t1)};
  return {std::move(r0).value(), std::move(t1)};
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(TcpTransportTest, TwoPartyRoundTrip) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  std::unique_ptr<TcpTransport> t0 = std::move(r0).value();

  EXPECT_EQ(t0->local_party(), 0);
  EXPECT_EQ(t1->local_party(), 1);

  ASSERT_TRUE(t0->Send(0, 1, MessageTag::kPlainStats, {1, 2, 3}).ok());
  ASSERT_TRUE(t1->Send(1, 0, MessageTag::kMaskedValue, {9}).ok());

  auto m1 = t1->Receive(1, 0, MessageTag::kPlainStats);
  ASSERT_TRUE(m1.ok()) << m1.status();
  EXPECT_EQ(m1->payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(m1->from, 0);
  EXPECT_EQ(m1->to, 1);

  auto m0 = t0->Receive(0, 1, MessageTag::kMaskedValue);
  ASSERT_TRUE(m0.ok()) << m0.status();
  EXPECT_EQ(m0->payload, (std::vector<uint8_t>{9}));

  // Logical metrics count WireSize at the sender, like the in-process
  // backend; physical counters include the 24-byte frame headers.
  EXPECT_EQ(t0->metrics().total_messages(), 1);
  EXPECT_EQ(t0->metrics().total_bytes(),
            static_cast<int64_t>(3 + Message::kHeaderBytes));
  EXPECT_EQ(t0->wire_stats().bytes_sent,
            static_cast<int64_t>(3 + kFrameHeaderBytes));
  EXPECT_EQ(t0->wire_stats().frames_sent, 1);
  EXPECT_EQ(t0->wire_stats().frames_received, 1);
}

TEST(TcpTransportTest, LargePayloadSurvivesFraming) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  std::unique_ptr<TcpTransport> t0 = std::move(r0).value();

  // > 1 MiB, larger than any kernel socket buffer default, so the send
  // is forced through the partial-write/drain path.
  std::vector<uint64_t> values(200'000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 0x0123456789ABCDEFull ^ (static_cast<uint64_t>(i) * 0x9E37u);
  }
  ByteWriter w;
  w.PutU64Vector(values);
  const std::vector<uint8_t> payload = w.Take();
  ASSERT_GT(payload.size(), static_cast<size_t>(1) << 20);

  std::thread sender([&] {
    ASSERT_TRUE(t0->Send(0, 1, MessageTag::kAdditiveShare, payload).ok());
  });
  auto msg = t1->Receive(1, 0, MessageTag::kAdditiveShare);
  sender.join();
  ASSERT_TRUE(msg.ok()) << msg.status();
  ByteReader r(msg->payload);
  auto decoded = r.GetU64Vector();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), values);
}

TEST(TcpTransportTest, ToleratesAnyStartOrder) {
  const ClusterConfig cluster = MakeCluster(FreePorts(3));
  TcpTransportOptions options;
  options.connect_timeout_ms = 10000;
  options.backoff_initial_ms = 10;

  // Parties 1 and 2 dial party 0 long before it exists: their connects
  // fail and must retry with backoff until party 0's listener appears.
  std::vector<std::unique_ptr<TcpTransport>> transports(3);
  std::thread p1([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    transports[1] = std::move(r).value();
  });
  std::thread p2([&] {
    auto r = TcpTransport::Connect(cluster, 2, options);
    ASSERT_TRUE(r.ok()) << r.status();
    transports[2] = std::move(r).value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  p1.join();
  p2.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  transports[0] = std::move(r0).value();

  // Full-mesh sanity: everyone messages everyone.
  for (int from = 0; from < 3; ++from) {
    for (int to = 0; to < 3; ++to) {
      if (to == from) continue;
      ASSERT_TRUE(transports[static_cast<size_t>(from)]
                      ->Send(from, to, MessageTag::kPlainStats,
                             {static_cast<uint8_t>(from)})
                      .ok());
    }
  }
  for (int to = 0; to < 3; ++to) {
    for (int from = 0; from < 3; ++from) {
      if (to == from) continue;
      auto msg = transports[static_cast<size_t>(to)]->Receive(
          to, from, MessageTag::kPlainStats);
      ASSERT_TRUE(msg.ok()) << msg.status();
      EXPECT_EQ(msg->payload[0], static_cast<uint8_t>(from));
    }
  }
}

TEST(TcpTransportTest, AbsentPeerYieldsDeadlineExceeded) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 300;
  options.backoff_initial_ms = 10;

  // Party 1 dials party 0, which never starts.
  const auto dialer = TcpTransport::Connect(cluster, 1, options);
  ASSERT_FALSE(dialer.ok());
  EXPECT_EQ(dialer.status().code(), StatusCode::kDeadlineExceeded)
      << dialer.status();

  // Party 0 awaits party 1, which never dials.
  const auto acceptor = TcpTransport::Connect(cluster, 0, options);
  ASSERT_FALSE(acceptor.ok());
  EXPECT_EQ(acceptor.status().code(), StatusCode::kDeadlineExceeded)
      << acceptor.status();
}

TEST(TcpTransportTest, SurvivesPeerKilledMidHandshake) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 10000;
  options.backoff_initial_ms = 10;

  std::unique_ptr<TcpTransport> t0;
  std::thread acceptor([&] {
    auto r = TcpTransport::Connect(cluster, 0, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t0 = std::move(r).value();
  });

  // A "party" that connects and dies before sending its hello — exactly
  // what a kill -9 mid-handshake looks like to the acceptor.
  {
    int stale = -1;
    for (int attempt = 0; attempt < 200 && stale < 0; ++attempt) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      struct sockaddr_in addr = {};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(cluster.endpoints[0].port);
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        stale = fd;
      } else {
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_GE(stale, 0) << "could not reach party 0's listener";
    ::close(stale);  // die without a hello
  }

  // The restarted real party 1 must still be admitted.
  auto r1 = TcpTransport::Connect(cluster, 1, options);
  acceptor.join();
  ASSERT_TRUE(r1.ok()) << r1.status();
  std::unique_ptr<TcpTransport> t1 = std::move(r1).value();

  ASSERT_TRUE(t1->Send(1, 0, MessageTag::kPlainStats, {7}).ok());
  auto msg = t0->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{7}));
}

TEST(TcpTransportTest, ReceiveTimesOutCleanly) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;
  options.receive_timeout_ms = 200;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();

  const auto msg = r0.value()->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kDeadlineExceeded)
      << msg.status();
}

TEST(TcpTransportTest, TagMismatchIsFailedPrecondition) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();

  ASSERT_TRUE(t1->Send(1, 0, MessageTag::kTreeR, {1}).ok());
  const auto msg = r0.value()->Receive(0, 1, MessageTag::kRFactor);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TcpTransportTest, EnforcesPartyBinding) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;
  options.receive_timeout_ms = 200;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  std::unique_ptr<TcpTransport> t0 = std::move(r0).value();

  // A TCP endpoint can only speak and listen as itself.
  EXPECT_EQ(t0->Send(1, 0, MessageTag::kPlainStats, {1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t0->Send(0, 0, MessageTag::kPlainStats, {1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t0->Receive(1, 0, MessageTag::kPlainStats).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(t0->HasPending(1, 0));

  ASSERT_TRUE(t1->Send(1, 0, MessageTag::kPlainStats, {1}).ok());
  // Poll until the frame lands in party 0's inbox.
  bool pending = false;
  for (int i = 0; i < 100 && !pending; ++i) {
    pending = t0->HasPending(0, 1);
    if (!pending) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(pending);
}

TEST(TcpTransportTest, RejectsMismatchedClusterSizes) {
  const std::vector<uint16_t> ports = FreePorts(3);
  const ClusterConfig two = MakeCluster({ports[0], ports[1]});
  ClusterConfig three = MakeCluster(ports);
  TcpTransportOptions options;
  options.connect_timeout_ms = 2000;
  options.backoff_initial_ms = 10;

  // Party 1 believes the cluster has 3 parties; party 0 believes 2. The
  // hello exchange detects the disagreement instead of desyncing later.
  TransportOrError r1 = InvalidArgumentError("unset");
  std::thread peer([&] { r1 = TcpTransport::Connect(three, 1, options); });
  const auto r0 = TcpTransport::Connect(two, 0, options);
  peer.join();
  EXPECT_FALSE(r0.ok());
  EXPECT_FALSE(r1.ok());
}

TEST(TcpTransportTest, ConnectValidatesArguments) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  EXPECT_EQ(TcpTransport::Connect(cluster, -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TcpTransport::Connect(cluster, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TcpTransport::Connect(ClusterConfig{}, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpTransportTest, SinglePartyClusterNeedsNoNetwork) {
  ClusterConfig cluster;
  cluster.endpoints.push_back({"127.0.0.1", 1});  // never dialed
  auto r = TcpTransport::Connect(cluster, 0);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value()->num_parties(), 1);
}

TEST(TcpTransportTest, ScanOutputCarriesItsResultChecksum) {
  GwasWorkloadOptions workload_options;
  workload_options.party_sizes = {40, 60, 50};
  workload_options.num_variants = 20;
  workload_options.num_covariates = 3;
  workload_options.num_causal = 2;
  workload_options.seed = 9;
  const ScanWorkload workload = MakeGwasWorkload(workload_options).value();
  constexpr AggregationMode kModes[] = {AggregationMode::kPublicShare,
                                       AggregationMode::kAdditive,
                                       AggregationMode::kMasked};
  constexpr int kNumModes = 3;

  // P = 1 runs no commit round, yet the runner hashes its result once.
  ClusterConfig single;
  single.endpoints.push_back({"127.0.0.1", 1});  // never dialed
  auto alone = TcpTransport::Connect(single, 0);
  ASSERT_TRUE(alone.ok()) << alone.status();
  for (const AggregationMode mode : kModes) {
    SecureScanOptions options;
    options.aggregation = mode;
    const auto out = RunPartySecureScan(alone.value().get(),
                                        workload.parties[0], options);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->result_checksum, ScanResultChecksum(out->result))
        << AggregationModeName(mode);
  }

  // P = 3 over loopback, the three modes in turn on one mesh.
  const ClusterConfig cluster = MakeCluster(FreePorts(3));
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 5000;
  uint64_t carried[kNumModes][3] = {};
  uint64_t computed[kNumModes][3] = {};
  std::vector<std::thread> parties;
  for (int p = 0; p < 3; ++p) {
    parties.emplace_back([&, p] {
      auto transport = TcpTransport::Connect(cluster, p, tcp_options);
      ASSERT_TRUE(transport.ok()) << transport.status();
      for (int m = 0; m < kNumModes; ++m) {
        SecureScanOptions options;
        options.aggregation = kModes[m];
        const auto out =
            RunPartySecureScan(transport.value().get(),
                               workload.parties[static_cast<size_t>(p)],
                               options);
        ASSERT_TRUE(out.ok()) << "party " << p << ": " << out.status();
        carried[m][p] = out->result_checksum;
        computed[m][p] = ScanResultChecksum(out->result);
      }
    });
  }
  for (auto& t : parties) t.join();
  for (int m = 0; m < kNumModes; ++m) {
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(carried[m][p], computed[m][p])
          << AggregationModeName(kModes[m]) << " party " << p;
      EXPECT_EQ(carried[m][p], carried[m][0]);
    }
  }
}

// ---------------------------------------------------------------------
// The pump's doorbell (the SessionMux wake-up rules; "at once" is under
// 1 s against a 10 s PumpWait, so none of these is timing-sensitive).

TEST(TcpTransportWakeTest, OnlyPumpWaitConsumesTheDoorbell) {
  auto [t0, t1] = ConnectPair();
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  t0->WakePumpWait();
  // The intake's pumps (timeout 0) must leave the ring for PumpWait.
  EXPECT_FALSE(t0->HasPending(0, 1));
  EXPECT_EQ(t0->TryReceiveAny(0, 1).status().code(), StatusCode::kNotFound);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(t0->PumpWait(10000).ok());
  EXPECT_LT(SecondsSince(start), 1.0) << "a pump other than PumpWait "
                                         "consumed the doorbell";
}

TEST(TcpTransportWakeTest, PumpWaitReturnsAtOnceForAParsedFrame) {
  auto [t0, t1] = ConnectPair();
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  ASSERT_TRUE(t1->SendOnSession(3, 1, 0, MessageTag::kPlainStats, {7}).ok());
  // HasPending parses the frame into party 0's inbox; the socket it
  // came from is empty afterwards.
  bool pending = false;
  for (int i = 0; i < 2000 && !pending; ++i) {
    pending = t0->HasPending(0, 1);
    if (!pending) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pending);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(t0->PumpWait(10000).ok());
  EXPECT_LT(SecondsSince(start), 1.0)
      << "PumpWait slept with a deliverable frame in an inbox";
  const auto msg = t0->TryReceiveAny(0, 1);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().session, 3u);
  EXPECT_EQ(msg.value().payload, (std::vector<uint8_t>{7}));
}

TEST(TcpTransportWakeTest, PumpWaitWithNoOpenLinkBlocksOnTheDoorbell) {
  auto [t0, t1] = ConnectPair();
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  t1.reset();  // the only peer goes away
  for (int i = 0; i < 2000 && t0->LinkStatus(1).ok(); ++i) {
    t0->HasPending(0, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(t0->LinkStatus(1).ok());

  // No spin: with no link open, PumpWait still blocks for its timeout.
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(t0->PumpWait(300).ok());
  EXPECT_GE(SecondsSince(start), 0.2) << "PumpWait returned at once";

  // A ring from another thread ends the wait early.
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    t0->WakePumpWait();
  });
  start = std::chrono::steady_clock::now();
  const Status woken = t0->PumpWait(10000);
  const double waited = SecondsSince(start);
  waker.join();
  EXPECT_TRUE(woken.ok()) << woken;
  EXPECT_LT(waited, 1.0);
}

}  // namespace
}  // namespace dash
