// Runtime/static agreement for the protocol round model: when a party
// deviates from the choreography in tools/protocol_model.yaml, the
// runtime must detect exactly the desync the static model predicts —
// FailedPrecondition ("protocol desync") for a skipped or injected
// round, DataLoss ("result divergence") for a forged commit — and must
// NOT hang until DeadlineExceeded. dash_proto.py proves the happy path
// is deadlock-free statically; these tests pin down the failure-path
// semantics the model's abort round (kAbort, order 999) relies on.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/secure_scan.h"
#include "data/workloads.h"
#include "net/serialization.h"
#include "transport/cluster_config.h"
#include "transport/fault_transport.h"
#include "transport/party_runner.h"
#include "transport/tcp_transport.h"

namespace dash {
namespace {

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

ScanWorkload SmallWorkload() {
  GwasWorkloadOptions options;
  options.party_sizes = {20, 30, 25};
  options.num_variants = 10;
  options.num_covariates = 2;
  options.num_causal = 1;
  options.seed = 11;
  auto workload = MakeGwasWorkload(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

// Runs one TCP endpoint per thread; `per_party(i, transport)` drives
// party i and returns its outcome. The receive timeout is a backstop
// only: every assertion below distinguishes "detected the desync"
// (FailedPrecondition/DataLoss) from "waited it out" (DeadlineExceeded).
//
// Every transport stays alive until ALL threads have joined. A party
// that finishes (or aborts) early must not tear down its endpoint while
// peers still have its frames in flight — otherwise the peer reads EOF
// instead of the desynced frame and reports Unavailable, masking the
// FailedPrecondition these tests pin down.
std::vector<Result<SecureScanOutput>> RunParties(
    int p,
    const std::function<Result<SecureScanOutput>(int, Transport*)>&
        per_party) {
  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  tcp_options.receive_timeout_ms = 8000;
  std::vector<Result<SecureScanOutput>> outs(
      static_cast<size_t>(p), InvalidArgumentError("did not run"));
  std::vector<std::unique_ptr<Transport>> transports(
      static_cast<size_t>(p));
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      if (!transport.ok()) {
        outs[static_cast<size_t>(i)] = transport.status();
        return;
      }
      transports[static_cast<size_t>(i)] = std::move(transport).value();
      outs[static_cast<size_t>(i)] =
          per_party(i, transports[static_cast<size_t>(i)].get());
    });
  }
  for (auto& t : threads) t.join();
  return outs;
}

// A party that skips the commit round (model: phase4_commit, order 90)
// and immediately pushes the next scan's Phase-0 frame: party 2's
// outgoing commit frames are dropped, and only the first frame per link
// matches the rule, so the "scan 2" kSampleCount frame still goes out.
// Peers blocked in Receive(kCommit) must fail with FailedPrecondition
// ("protocol desync: expected tag ..."), not time out — the static
// model says a kSampleCount frame can never legally follow the share
// rounds without an intervening kCommit on this link.
TEST(ProtocolConformanceTest, SkippedCommitRoundIsDesyncNotHang) {
  ScanWorkload workload = SmallWorkload();
  const int p = static_cast<int>(workload.parties.size());
  // The commit round is the last round of a clean run.
  const auto clean = SecureAssociationScan().Run(workload.parties);
  ASSERT_TRUE(clean.ok()) << clean.status();
  FaultRule drop_commit;
  drop_commit.kind = FaultKind::kDrop;
  drop_commit.round = clean->metrics.rounds;
  drop_commit.from = 2;
  drop_commit.nth = 0;
  FaultPlan skip_commit;
  skip_commit.rules.push_back(drop_commit);
  auto outs = RunParties(p, [&](int i, Transport* transport) {
    SecureScanOptions options;
    if (i == 2) {
      FaultInjectingTransport faulty(transport, skip_commit);
      Result<SecureScanOutput> out = RunPartySecureScan(
          &faulty, workload.parties[static_cast<size_t>(i)], options);
      // The commit-less scan succeeds locally; eagerly begin "scan 2".
      EXPECT_TRUE(out.ok()) << out.status();
      ByteWriter w;
      w.PutI64(workload.parties[2].num_samples());
      const std::vector<uint8_t> payload = w.Take();
      for (int q = 0; q < p; ++q) {
        if (q == i) continue;
        (void)faulty.Send(i, q, MessageTag::kSampleCount, payload);
      }
      return out;
    }
    return RunPartySecureScan(
        transport, workload.parties[static_cast<size_t>(i)], options);
  });
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(outs[static_cast<size_t>(i)].ok()) << "party " << i;
    EXPECT_EQ(outs[static_cast<size_t>(i)].status().code(),
              StatusCode::kFailedPrecondition)
        << "party " << i << ": " << outs[static_cast<size_t>(i)].status();
  }
  EXPECT_TRUE(outs[2].ok()) << outs[2].status();
}

// A party that injects one frame with a tag outside the round model
// (kAggregate, declared non_round_tags in protocol_model.yaml) before
// the scan starts. Every party must terminate with the ORIGINATOR's
// FailedPrecondition via abort propagation — the injected frame sits
// first in the 2->0 and 2->1 link queues, so the very first Receive of
// the scan detects it deterministically.
TEST(ProtocolConformanceTest, InjectedFrameIsDesyncNotHang) {
  ScanWorkload workload = SmallWorkload();
  const int p = static_cast<int>(workload.parties.size());
  auto outs = RunParties(p, [&](int i, Transport* transport) {
    SecureScanOptions options;
    if (i == 2) {
      ByteWriter w;
      w.PutU64(0xdeadbeef);
      const std::vector<uint8_t> payload = w.Take();
      for (int q = 0; q < p; ++q) {
        if (q == i) continue;
        Status s =
            transport->Send(i, q, MessageTag::kAggregate, payload);
        EXPECT_TRUE(s.ok()) << s;
      }
    }
    return RunPartySecureScan(
        transport, workload.parties[static_cast<size_t>(i)], options);
  });
  for (int i = 0; i < p; ++i) {
    ASSERT_FALSE(outs[static_cast<size_t>(i)].ok()) << "party " << i;
    EXPECT_EQ(outs[static_cast<size_t>(i)].status().code(),
              StatusCode::kFailedPrecondition)
        << "party " << i << ": " << outs[static_cast<size_t>(i)].status();
  }
}

// A party whose revealed result silently diverges (here: a different
// fixed-point scale, so it decodes the shared ring total differently).
// The protocol flow is byte-for-byte conformant — same rounds, same
// tags, same sizes — so only the commit round (model: phase4_commit)
// can catch it, and it must: DataLoss ("result divergence") at every
// party, not a hang and not a silent success.
TEST(ProtocolConformanceTest, DivergentResultIsDataLossAtCommit) {
  ScanWorkload workload = SmallWorkload();
  const int p = static_cast<int>(workload.parties.size());
  auto outs = RunParties(p, [&](int i, Transport* transport) {
    SecureScanOptions options;
    options.aggregation = AggregationMode::kAdditive;
    if (i == 2) options.frac_bits = 12;  // peers use the default
    return RunPartySecureScan(
        transport, workload.parties[static_cast<size_t>(i)], options);
  });
  for (int i = 0; i < p; ++i) {
    ASSERT_FALSE(outs[static_cast<size_t>(i)].ok()) << "party " << i;
    EXPECT_EQ(outs[static_cast<size_t>(i)].status().code(),
              StatusCode::kDataLoss)
        << "party " << i << ": " << outs[static_cast<size_t>(i)].status();
  }
}

}  // namespace
}  // namespace dash
