// Randomized fault sweep (label: slow). Two hundred seeded FaultPlans —
// 1..3 rules each, any kind, any round, any link — run against the
// simulator's in-process mesh, plus a slice of them against real TCP
// meshes; on both, every party's endpoint is wrapped in the plan.
// Every case must end in the weak two-outcome invariant: each party
// fails cleanly or holds bits identical to the fault-free reference.
// OK-with-wrong-bits and hangs are the only losses.
//
// Every case is a pure function of its seed. A failing seed is printed
// together with the plan (and appended to fault_sweep_failures.txt in
// the working directory), so
//   FaultPlan::Random(seed, options)
// reproduces the exact schedule in a debugger.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/scan_result.h"
#include "core/secure_scan.h"
#include "data/workloads.h"
#include "net/network.h"
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

ScanWorkload SweepWorkload() {
  GwasWorkloadOptions options;
  options.party_sizes = {30, 45, 35};
  options.num_variants = 10;
  options.num_covariates = 3;
  options.num_causal = 1;
  options.seed = 23;
  auto workload = MakeGwasWorkload(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

void RecordFailure(uint64_t seed, const FaultPlan& plan,
                   const std::string& detail) {
  ADD_FAILURE() << "fault sweep seed " << seed << ": " << detail
                << "\nplan:\n"
                << plan.ToString();
  if (std::FILE* f = std::fopen("fault_sweep_failures.txt", "a")) {
    std::fprintf(f, "seed %llu: %s\nplan:\n%s\n",
                 static_cast<unsigned long long>(seed), detail.c_str(),
                 plan.ToString().c_str());
    std::fclose(f);
  }
}

TEST(FaultSweepTest, TwoHundredRandomPlansInProcess) {
  const ScanWorkload workload = SweepWorkload();
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  const auto reference = SecureAssociationScan(options).Run(workload.parties);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const uint64_t ref_sum = ScanResultChecksum(reference->result);

  FaultPlan::SweepOptions sweep;
  sweep.num_parties = 3;
  sweep.max_rounds = reference->metrics.rounds;

  int clean_failures = 0;
  int clean_successes = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const FaultPlan plan = FaultPlan::Random(seed, sweep);
    std::vector<Result<SecureScanOutput>> outs(
        3, InvalidArgumentError("did not run"));
    const Status status = RunPartiesInProcess(3, [&](Transport* endpoint) {
      const size_t i = static_cast<size_t>(endpoint->local_party());
      FaultInjectingTransport fault(endpoint, plan);
      outs[i] = RunPartySecureScan(&fault, workload.parties[i], options);
      return outs[i].status();
    });
    if (status.ok()) {
      ++clean_successes;
    } else {
      ++clean_failures;
    }
    for (size_t i = 0; i < outs.size(); ++i) {
      if (outs[i].ok() && ScanResultChecksum(outs[i]->result) != ref_sum) {
        RecordFailure(seed, plan,
                      "party " + std::to_string(i) +
                          " returned OK with WRONG bits in-process");
      }
    }
  }
  // The sweep must actually exercise both outcomes, or the plan
  // generator has gone degenerate.
  EXPECT_GT(clean_failures, 20);
  EXPECT_GT(clean_successes, 20);
}

TEST(FaultSweepTest, RandomPlansOverTcp) {
  const ScanWorkload workload = SweepWorkload();
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  const auto reference = SecureAssociationScan(options).Run(workload.parties);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const uint64_t ref_sum = ScanResultChecksum(reference->result);

  FaultPlan::SweepOptions sweep;
  sweep.num_parties = 3;
  sweep.max_rounds = reference->metrics.rounds;

  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  tcp_options.receive_timeout_ms = 300;

  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const FaultPlan plan = FaultPlan::Random(seed, sweep);
    ClusterConfig cluster;
    for (const uint16_t port : FreePorts(3)) {
      cluster.endpoints.push_back({"127.0.0.1", port});
    }
    std::vector<Result<SecureScanOutput>> outs(
        3, InvalidArgumentError("did not run"));
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
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
    for (int i = 0; i < 3; ++i) {
      const auto& out = outs[static_cast<size_t>(i)];
      if (out.ok() && ScanResultChecksum(out->result) != ref_sum) {
        RecordFailure(seed, plan,
                      "party " + std::to_string(i) +
                          " returned OK with WRONG bits over TCP");
      }
    }
  }
}

}  // namespace
}  // namespace dash
