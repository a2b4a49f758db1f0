// The load-bearing guarantee of the transport subsystem: running the
// scan, or the summand protocol every secure workload runs, as P
// separate TCP endpoints (one thread each here; one process each in
// deployment) produces the SAME bits as the simulator's P threads over
// the in-process mesh — results, per-link traffic, and trace. Both run
// the one per-party runner; only the bytes-moving layer differs.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/secure_scan.h"
#include "core/suff_stats.h"
#include "data/workloads.h"
#include "net/network.h"
#include "net/trace.h"
#include "transport/cluster_config.h"
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
  options.party_sizes = {40, 60, 50};
  options.num_variants = 25;
  options.num_covariates = 3;
  options.num_causal = 2;
  options.seed = 7;
  auto workload = MakeGwasWorkload(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

// Bitwise vector equality: NaN == NaN, -0.0 != 0.0. Anything weaker
// would hide order-dependent floating-point drift between the backends.
void ExpectBitIdentical(const Vector& a, const Vector& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    EXPECT_EQ(bits_a, bits_b) << what << "[" << i << "]: " << a[i]
                              << " vs " << b[i];
  }
}

// (round, from, to, tag, wire_bytes) — the sequence number is dropped
// because per-party traces interleave differently than the global one.
using EventKey = std::tuple<int, int, int, uint32_t, int64_t>;

std::vector<EventKey> EventMultiset(const std::vector<TraceEvent>& events) {
  std::vector<EventKey> keys;
  keys.reserve(events.size());
  for (const auto& e : events) {
    keys.emplace_back(e.round, e.from, e.to, static_cast<uint32_t>(e.tag),
                      e.wire_bytes);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct PartyRun {
  Result<SecureScanOutput> output = InvalidArgumentError("did not run");
  ProtocolTrace trace;
  int64_t sent_bytes = 0;
};

void RunBothBackends(const SecureScanOptions& base_options) {
  ScanWorkload workload = SmallWorkload();
  if (base_options.center_per_party) {
    // Centering absorbs the intercept; drop the workload's intercept
    // column (column 0 of C) as a real deployment would.
    for (auto& party : workload.parties) {
      Matrix c(party.c.rows(), party.c.cols() - 1);
      for (int64_t r = 0; r < c.rows(); ++r) {
        for (int64_t j = 0; j < c.cols(); ++j) c(r, j) = party.c(r, j + 1);
      }
      party.c = std::move(c);
    }
  }
  const int p = static_cast<int>(workload.parties.size());

  // Simulator reference, with one trace shared by every party.
  ProtocolTrace global_trace;
  SecureScanOptions inproc_options = base_options;
  inproc_options.trace = &global_trace;
  const auto reference =
      SecureAssociationScan(inproc_options).Run(workload.parties);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // TCP deployment: one endpoint per thread, each tracing its own sends.
  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  std::vector<PartyRun> runs(static_cast<size_t>(p));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < p; ++i) {
      threads.emplace_back([&, i] {
        auto transport = TcpTransport::Connect(cluster, i, tcp_options);
        if (!transport.ok()) {
          runs[static_cast<size_t>(i)].output = transport.status();
          return;
        }
        SecureScanOptions options = base_options;
        options.trace = &runs[static_cast<size_t>(i)].trace;
        runs[static_cast<size_t>(i)].output = RunPartySecureScan(
            transport.value().get(),
            workload.parties[static_cast<size_t>(i)], options);
        runs[static_cast<size_t>(i)].sent_bytes =
            transport.value()->metrics().total_bytes();
      });
    }
    for (auto& t : threads) t.join();
  }

  const ScanResult& expected = reference->result;
  for (int i = 0; i < p; ++i) {
    const PartyRun& run = runs[static_cast<size_t>(i)];
    ASSERT_TRUE(run.output.ok()) << "party " << i << ": "
                                 << run.output.status();
    const ScanResult& got = run.output->result;
    ExpectBitIdentical(got.beta, expected.beta, "beta");
    ExpectBitIdentical(got.se, expected.se, "se");
    ExpectBitIdentical(got.tstat, expected.tstat, "tstat");
    ExpectBitIdentical(got.pval, expected.pval, "pval");
    EXPECT_EQ(got.dof, expected.dof);
    EXPECT_EQ(got.num_untestable, expected.num_untestable);

    // Every party walks the same round schedule as the simulator.
    EXPECT_EQ(run.output->metrics.rounds, reference->metrics.rounds)
        << "party " << i;
  }

  // The union of the per-party traces is exactly the in-process trace.
  std::vector<TraceEvent> merged;
  int64_t tcp_total_bytes = 0;
  for (const auto& run : runs) {
    merged.insert(merged.end(), run.trace.events().begin(),
                  run.trace.events().end());
    tcp_total_bytes += run.output->metrics.total_bytes;
  }
  EXPECT_EQ(EventMultiset(merged), EventMultiset(global_trace.events()));
  EXPECT_EQ(tcp_total_bytes, reference->metrics.total_bytes);
}

TEST(CrossBackendTest, PublicShareBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kPublicShare;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunBothBackends(options);
}

TEST(CrossBackendTest, AdditiveBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kAdditive;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunBothBackends(options);
}

TEST(CrossBackendTest, MaskedBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunBothBackends(options);
}

TEST(CrossBackendTest, MaskedBinaryTree) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBinaryTree;
  RunBothBackends(options);
}

TEST(CrossBackendTest, CenteredAdditiveBinaryTree) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kAdditive;
  options.r_combine = RCombineMode::kBinaryTree;
  options.center_per_party = true;
  RunBothBackends(options);
}

// The summand entry point every secure workload runs: the same
// Phases 0–1 and secure sum as P loopback TCP endpoints and as P mesh
// threads must reveal the same totals bit for bit and the same pooled
// N, over the same rounds, with each party sending the same bytes.
struct SummandRun {
  Result<PartySummandOutput> output = InvalidArgumentError("did not run");
  int rounds = 0;
  int64_t sent_bytes = 0;
};

void RunSummandBothBackends(const SecureScanOptions& options) {
  const ScanWorkload workload = SmallWorkload();
  const int p = static_cast<int>(workload.parties.size());
  // A summand that depends on Q_p, so the R-combine feeds the sum.
  const auto run_party = [&](Transport* transport) {
    const PartyData& party =
        workload.parties[static_cast<size_t>(transport->local_party())];
    SummandRun run;
    run.output = RunPartySummandProtocol(
        transport, party.c, options, /*seed_salt=*/0x5a17,
        [&party](const Matrix& q_p) {
          return ComputeLocalStatsFlat(party.x, party.y, q_p);
        });
    run.rounds = transport->metrics().rounds();
    run.sent_bytes = transport->metrics().total_bytes();
    return run;
  };

  std::vector<SummandRun> mesh(static_cast<size_t>(p));
  const Status status = RunPartiesInProcess(p, [&](Transport* endpoint) {
    SummandRun& run = mesh[static_cast<size_t>(endpoint->local_party())];
    run = run_party(endpoint);
    return run.output.ok() ? Status::Ok() : run.output.status();
  });
  ASSERT_TRUE(status.ok()) << status;

  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  std::vector<SummandRun> tcp(static_cast<size_t>(p));
  // Every endpoint stays up until all parties are done, so no party's
  // close can race a peer still reading its last frame.
  std::vector<std::unique_ptr<TcpTransport>> transports(
      static_cast<size_t>(p));
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      if (!transport.ok()) {
        tcp[static_cast<size_t>(i)].output = transport.status();
        return;
      }
      transports[static_cast<size_t>(i)] = std::move(transport).value();
      tcp[static_cast<size_t>(i)] =
          run_party(transports[static_cast<size_t>(i)].get());
    });
  }
  for (auto& t : threads) t.join();

  int64_t pooled_n = 0;
  for (const PartyData& party : workload.parties) {
    pooled_n += party.num_samples();
  }
  for (size_t i = 0; i < static_cast<size_t>(p); ++i) {
    ASSERT_TRUE(tcp[i].output.ok()) << "party " << i << ": "
                                    << tcp[i].output.status();
    ExpectBitIdentical(tcp[i].output->totals, mesh[0].output->totals,
                       "totals");
    ExpectBitIdentical(mesh[i].output->totals, mesh[0].output->totals,
                       "mesh totals");
    EXPECT_EQ(tcp[i].output->pooled_n, pooled_n) << "party " << i;
    EXPECT_EQ(mesh[i].output->pooled_n, pooled_n) << "party " << i;
    EXPECT_EQ(tcp[i].rounds, mesh[i].rounds) << "party " << i;
    EXPECT_EQ(tcp[i].sent_bytes, mesh[i].sent_bytes) << "party " << i;
  }
}

TEST(CrossBackendTest, SummandMaskedBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunSummandBothBackends(options);
}

TEST(CrossBackendTest, SummandMaskedBinaryTree) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBinaryTree;
  RunSummandBothBackends(options);
}

TEST(CrossBackendTest, SummandAdditiveBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kAdditive;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunSummandBothBackends(options);
}

TEST(CrossBackendTest, PerPartyMetricsMatchTheMeshLedger) {
  const ScanWorkload workload = SmallWorkload();
  const int p = static_cast<int>(workload.parties.size());
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;

  // What each mesh endpoint sent.
  std::vector<int64_t> mesh_sent(static_cast<size_t>(p), -1);
  const Status status = RunPartiesInProcess(p, [&](Transport* endpoint) {
    const size_t i = static_cast<size_t>(endpoint->local_party());
    const auto out = RunPartySecureScan(endpoint, workload.parties[i], options);
    mesh_sent[i] = endpoint->metrics().total_bytes();
    return out.status();
  });
  ASSERT_TRUE(status.ok()) << status;

  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  std::vector<int64_t> sent(static_cast<size_t>(p), -1);
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      ASSERT_TRUE(transport.ok()) << transport.status();
      const auto out = RunPartySecureScan(
          transport.value().get(), workload.parties[static_cast<size_t>(i)],
          options);
      ASSERT_TRUE(out.ok()) << out.status();
      sent[static_cast<size_t>(i)] = transport.value()->metrics().total_bytes();
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < p; ++i) {
    EXPECT_EQ(sent[static_cast<size_t>(i)], mesh_sent[static_cast<size_t>(i)])
        << "party " << i;
  }
}

}  // namespace
}  // namespace dash
