// Chaos harness for the secure scan: every fault kind, in every
// protocol round, on both backends (the simulator's in-process mesh and
// real TCP), must end in exactly one of two outcomes — a clean non-OK
// Status at every party, or a revealed result bit-identical to the
// fault-free run. A hang, a crash, or a silently wrong result is the bug
// class this file exists to catch.
//
// The one principled exception is the final commit round: a fault there
// can strand SOME parties after OTHERS have already verified every
// commitment and returned (the Two Generals boundary), so those cells
// only assert the weak invariant — each party fails cleanly or holds
// the correct bits; nobody holds wrong bits and nobody hangs.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scan_result.h"
#include "core/secure_scan.h"
#include "data/workloads.h"
#include "net/network.h"
#include "transport/cluster_config.h"
#include "transport/fault_proxy.h"
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

ScanWorkload SmallWorkload(int num_parties = 3) {
  GwasWorkloadOptions options;
  options.party_sizes.assign(static_cast<size_t>(num_parties), 35);
  options.num_variants = 12;
  options.num_covariates = 3;
  options.num_causal = 1;
  options.seed = 11;
  auto workload = MakeGwasWorkload(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

SecureScanOptions BaseOptions() {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBroadcastStack;
  return options;
}

FaultPlan OneRule(FaultKind kind, int round) {
  FaultRule rule;
  rule.kind = kind;
  rule.round = round;
  rule.from = -1;  // first message of the round on EVERY link
  rule.to = -1;
  rule.nth = 0;
  rule.delay_ms = 700;
  rule.corrupt_xor = 0x40;
  if (kind == FaultKind::kDelay) {
    // A delay on every link shifts all parties in lockstep and times
    // nobody out; pin it to one link so the victim's receive timeout
    // (300ms < 700ms) actually expires.
    rule.from = 0;
    rule.to = 1;
  }
  FaultPlan plan;
  plan.rules.push_back(rule);
  return plan;
}

// One mesh endpoint per party thread, each wrapped in a decorator
// carrying the SAME plan, exactly like the TCP leg below.
std::vector<Result<SecureScanOutput>> RunInProcessWithPlan(
    const std::vector<PartyData>& parties, const SecureScanOptions& options,
    const FaultPlan& plan) {
  std::vector<Result<SecureScanOutput>> outs(
      parties.size(), InvalidArgumentError("did not run"));
  (void)RunPartiesInProcess(
      static_cast<int>(parties.size()), [&](Transport* endpoint) {
        const size_t i = static_cast<size_t>(endpoint->local_party());
        FaultInjectingTransport fault(endpoint, plan);
        outs[i] = RunPartySecureScan(&fault, parties[i], options);
        return outs[i].status();
      });
  return outs;
}

// One TCP endpoint per thread, each wrapped in a decorator carrying the
// SAME plan (the plan is global; each endpoint enforces its own side).
std::vector<Result<SecureScanOutput>> RunTcpWithPlan(
    const ScanWorkload& workload, const SecureScanOptions& options,
    const FaultPlan& plan, int receive_timeout_ms) {
  const int p = static_cast<int>(workload.parties.size());
  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  tcp_options.receive_timeout_ms = receive_timeout_ms;
  std::vector<Result<SecureScanOutput>> outs(
      static_cast<size_t>(p), InvalidArgumentError("did not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      if (!transport.ok()) {
        outs[static_cast<size_t>(i)] = transport.status();
        return;
      }
      FaultInjectingTransport fault(transport.value().get(), plan);
      outs[static_cast<size_t>(i)] = RunPartySecureScan(
          &fault, workload.parties[static_cast<size_t>(i)], options);
    });
  }
  for (auto& t : threads) t.join();
  return outs;
}

// The strong two-outcome check for faults in pre-commit rounds: either
// the fault never fired (all parties OK, bits identical to reference) or
// EVERY party failed, and — because the first failure is broadcast as an
// abort carrying the originator's Status — they all report one code.
void ExpectStrongOutcome(const std::vector<Result<SecureScanOutput>>& outs,
                         uint64_t reference_checksum,
                         const std::string& cell) {
  int ok_count = 0;
  for (const auto& out : outs) {
    if (out.ok()) ++ok_count;
  }
  if (ok_count == static_cast<int>(outs.size())) {
    for (const auto& out : outs) {
      EXPECT_EQ(ScanResultChecksum(out->result), reference_checksum) << cell;
    }
    return;
  }
  ASSERT_EQ(ok_count, 0) << cell << ": some parties returned OK while others "
                         << "failed before the commit round";
  const StatusCode first = outs[0].status().code();
  for (size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i].status().code(), first)
        << cell << ": party " << i << " reports '"
        << outs[i].status().ToString() << "' but party 0 reports '"
        << outs[0].status().ToString() << "'";
  }
}

// The weak invariant (commit-round faults, reorders): every party either
// fails cleanly or holds exactly the reference bits. Never a third
// outcome.
void ExpectWeakOutcome(const std::vector<Result<SecureScanOutput>>& outs,
                       uint64_t reference_checksum, const std::string& cell) {
  for (size_t i = 0; i < outs.size(); ++i) {
    if (outs[i].ok()) {
      EXPECT_EQ(ScanResultChecksum(outs[i]->result), reference_checksum)
          << cell << ": party " << i << " returned OK with WRONG bits";
    }
  }
}

StatusCode ExpectedCode(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
    case FaultKind::kDelay:
      return StatusCode::kDeadlineExceeded;
    case FaultKind::kCorrupt:
      return StatusCode::kDataLoss;
    case FaultKind::kDisconnect:
      return StatusCode::kUnavailable;
    default:
      return StatusCode::kInternal;  // not used for dup/reorder
  }
}

// ---------------------------------------------------------------------
// Decorator basics.

TEST(FaultInjectionTest, EmptyPlanIsTransparent) {
  const ScanWorkload workload = SmallWorkload();
  const SecureScanOptions options = BaseOptions();
  const auto reference = SecureAssociationScan(options).Run(workload.parties);
  ASSERT_TRUE(reference.ok()) << reference.status();

  const auto outs =
      RunInProcessWithPlan(workload.parties, options, FaultPlan{});
  int64_t total_bytes = 0;
  for (const auto& out : outs) {
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(ScanResultChecksum(out->result),
              ScanResultChecksum(reference->result));
    EXPECT_EQ(out->metrics.rounds, reference->metrics.rounds);
    total_bytes += out->metrics.total_bytes;
  }
  EXPECT_EQ(total_bytes, reference->metrics.total_bytes);
}

TEST(FaultInjectionTest, RandomPlansAreDeterministic) {
  FaultPlan::SweepOptions options;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    const FaultPlan a = FaultPlan::Random(seed, options);
    const FaultPlan b = FaultPlan::Random(seed, options);
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
    EXPECT_GE(a.rules.size(), static_cast<size_t>(options.min_rules));
    EXPECT_LE(a.rules.size(), static_cast<size_t>(options.max_rules));
  }
  EXPECT_NE(FaultPlan::Random(1, options).ToString(),
            FaultPlan::Random(2, options).ToString());
}

// ---------------------------------------------------------------------
// The table: every fault kind x every round, on both backends. Every
// party is wrapped in the same plan. Pre-commit rounds demand the strong
// outcome (unanimous failure with one Status code, thanks to the abort
// broadcast); the commit round itself gets the weak one.

using PlanRunner = std::vector<Result<SecureScanOutput>> (*)(
    const ScanWorkload&, const SecureScanOptions&, const FaultPlan&);

void CheckEveryFaultKindInEveryRound(const char* backend, PlanRunner run) {
  const ScanWorkload workload = SmallWorkload();
  const SecureScanOptions options = BaseOptions();
  const auto reference = SecureAssociationScan(options).Run(workload.parties);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const uint64_t ref_sum = ScanResultChecksum(reference->result);
  const int rounds = reference->metrics.rounds;
  ASSERT_GE(rounds, 4);

  for (int round = 1; round <= rounds; ++round) {
    for (const FaultKind kind :
         {FaultKind::kDrop, FaultKind::kDelay, FaultKind::kDuplicate,
          FaultKind::kReorder, FaultKind::kCorrupt, FaultKind::kDisconnect}) {
      const std::string cell = std::string(backend) + " round " +
                               std::to_string(round) + " " +
                               FaultKindName(kind);
      const auto outs = run(workload, options, OneRule(kind, round));
      if (kind == FaultKind::kDuplicate) {
        for (size_t i = 0; i < outs.size(); ++i) {
          ASSERT_TRUE(outs[i].ok())
              << cell << " party " << i << ": " << outs[i].status();
          EXPECT_EQ(ScanResultChecksum(outs[i]->result), ref_sum) << cell;
        }
      } else if (kind == FaultKind::kReorder || round == rounds) {
        ExpectWeakOutcome(outs, ref_sum, cell);
      } else {
        ExpectStrongOutcome(outs, ref_sum, cell);
        // Every pre-commit round of this scan is all-to-all, so a fault
        // on every link always fires; only the single-link delay can
        // run clean, which the strong outcome already validated. When a
        // fault fired, the code must be the right one.
        if (kind != FaultKind::kDelay) {
          EXPECT_FALSE(outs[0].ok()) << cell << ": fault went undetected";
        }
        if (!outs[0].ok()) {
          EXPECT_EQ(outs[0].status().code(), ExpectedCode(kind))
              << cell << ": " << outs[0].status();
        }
      }
    }
  }
}

std::vector<Result<SecureScanOutput>> RunMeshCell(
    const ScanWorkload& workload, const SecureScanOptions& options,
    const FaultPlan& plan) {
  return RunInProcessWithPlan(workload.parties, options, plan);
}

std::vector<Result<SecureScanOutput>> RunTcpCell(
    const ScanWorkload& workload, const SecureScanOptions& options,
    const FaultPlan& plan) {
  return RunTcpWithPlan(workload, options, plan, /*receive_timeout_ms=*/300);
}

TEST(FaultInjectionTest, EveryFaultKindInEveryRoundInProcess) {
  CheckEveryFaultKindInEveryRound("in-process", RunMeshCell);
}

TEST(FaultInjectionTest, EveryFaultKindInEveryRoundTcp) {
  CheckEveryFaultKindInEveryRound("tcp", RunTcpCell);
}

// ---------------------------------------------------------------------
// FaultProxy: byte-level faults under the REAL wire format. A 2-party
// mesh where party 1's config points party 0's endpoint at the proxy,
// so the dialed connection (party 1 -> party 0) crosses it. The forward
// stream starts with the 32-byte hello (24-byte header + 8-byte
// payload); protocol frames follow.

constexpr int64_t kHelloBytes = 32;

std::vector<Result<SecureScanOutput>> RunTwoPartyThroughProxy(
    const FaultProxyOptions& proxy_options, int receive_timeout_ms,
    StatusCode* party0_code) {
  const ScanWorkload workload = SmallWorkload(2);
  SecureScanOptions options = BaseOptions();
  options.aggregation = AggregationMode::kAdditive;

  const std::vector<uint16_t> ports = FreePorts(2);
  auto proxy = FaultProxy::Start("127.0.0.1", ports[0], proxy_options);
  EXPECT_TRUE(proxy.ok()) << proxy.status();

  ClusterConfig true_cluster;
  true_cluster.endpoints.push_back({"127.0.0.1", ports[0]});
  true_cluster.endpoints.push_back({"127.0.0.1", ports[1]});
  ClusterConfig proxied = true_cluster;
  proxied.endpoints[0].port = proxy.value()->listen_port();

  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  tcp_options.receive_timeout_ms = receive_timeout_ms;

  std::vector<Result<SecureScanOutput>> outs(
      2, InvalidArgumentError("did not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      const ClusterConfig& cluster = (i == 1) ? proxied : true_cluster;
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      if (!transport.ok()) {
        outs[static_cast<size_t>(i)] = transport.status();
        return;
      }
      outs[static_cast<size_t>(i)] = RunPartySecureScan(
          transport.value().get(), workload.parties[static_cast<size_t>(i)],
          options);
    });
  }
  for (auto& t : threads) t.join();
  *party0_code = outs[0].ok() ? StatusCode::kOk : outs[0].status().code();
  return outs;
}

TEST(FaultProxyTest, CleanRelayIsInvisible) {
  StatusCode code = StatusCode::kOk;
  const auto outs =
      RunTwoPartyThroughProxy(FaultProxyOptions{}, /*receive_timeout_ms=*/5000,
                              &code);
  ASSERT_TRUE(outs[0].ok()) << outs[0].status();
  ASSERT_TRUE(outs[1].ok()) << outs[1].status();
  EXPECT_EQ(ScanResultChecksum(outs[0]->result),
            ScanResultChecksum(outs[1]->result));
}

TEST(FaultProxyTest, WireCorruptionTripsTheRealCrc) {
  FaultProxyOptions proxy_options;
  // First payload byte of party 1's first protocol frame.
  proxy_options.corrupt_at_byte = kHelloBytes + 24;
  proxy_options.corrupt_xor = 0x20;
  StatusCode code = StatusCode::kOk;
  const auto outs =
      RunTwoPartyThroughProxy(proxy_options, /*receive_timeout_ms=*/400,
                              &code);
  ASSERT_FALSE(outs[0].ok()) << "party 0 accepted a corrupted frame";
  EXPECT_EQ(code, StatusCode::kDataLoss) << outs[0].status();
  EXPECT_FALSE(outs[1].ok());
}

TEST(FaultProxyTest, MidFrameCloseIsUnavailable) {
  FaultProxyOptions proxy_options;
  // Cut inside party 1's first protocol frame: header + a few payload
  // bytes make it through, then the connection dies.
  proxy_options.close_after_bytes = kHelloBytes + 24 + 3;
  StatusCode code = StatusCode::kOk;
  const auto outs =
      RunTwoPartyThroughProxy(proxy_options, /*receive_timeout_ms=*/400,
                              &code);
  ASSERT_FALSE(outs[0].ok());
  EXPECT_EQ(code, StatusCode::kUnavailable) << outs[0].status();
  EXPECT_NE(outs[0].status().message().find("mid-frame"), std::string::npos)
      << outs[0].status();
  EXPECT_FALSE(outs[1].ok());
}

TEST(FaultProxyTest, StallTurnsIntoDeadlineExceeded) {
  FaultProxyOptions proxy_options;
  // Stall once the first protocol frame is through (a hello-phase stall
  // would be absorbed by the much larger connect timeout): party 0 gets
  // round 1, then waits out receive_timeout_ms on a silent link.
  proxy_options.stall_after_bytes = kHelloBytes + 24;
  proxy_options.stall_ms = 900;
  StatusCode code = StatusCode::kOk;
  const auto outs =
      RunTwoPartyThroughProxy(proxy_options, /*receive_timeout_ms=*/250,
                              &code);
  ASSERT_FALSE(outs[0].ok());
  EXPECT_EQ(code, StatusCode::kDeadlineExceeded) << outs[0].status();
}

}  // namespace
}  // namespace dash
