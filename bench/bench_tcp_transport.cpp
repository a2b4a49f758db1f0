// Transport-layer cost: the secure scan over real loopback TCP (one
// endpoint per thread, kernel sockets, framing, CRC) versus the
// in-process queue backend, on identical workloads.
//
// Reports the same counters as bench_communication.cpp so the numbers
// line up: logical bytes (Message::WireSize at the sender) are REQUIRED
// to match between backends — that is the cross-backend test's
// invariant — while the TCP rows add physical wire bytes (24-byte frame
// headers) and wall-clock protocol time, i.e. what the simulation
// abstracts away.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/secure_scan.h"
#include "data/workloads.h"
#include "transport/cluster_config.h"
#include "transport/party_runner.h"
#include "transport/tcp_transport.h"
#include "util/stopwatch.h"

namespace {

using namespace dash;

std::vector<uint16_t> FreePorts(int count) {
  std::vector<uint16_t> ports;
  std::vector<int> fds;
  for (int i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DASH_CHECK(fd >= 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    DASH_CHECK(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)) == 0);
    socklen_t len = sizeof(addr);
    DASH_CHECK(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                             &len) == 0);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

ScanWorkload MakeSized(int64_t m, uint64_t seed) {
  RDemoOptions opts;
  opts.n1 = 400;
  opts.n2 = 400;
  opts.n3 = 400;
  opts.num_variants = m;
  opts.num_covariates = 4;
  opts.seed = seed;
  return MakeRDemoWorkload(opts);
}

struct TcpRun {
  int64_t logical_bytes = 0;   // sum over parties of sender-side WireSize
  int64_t wire_bytes = 0;      // physical frames, sum of bytes_sent
  int64_t frames = 0;
  int64_t messages = 0;
  double seconds = 0.0;        // slowest party, mesh setup included
};

TcpRun RunTcp(const ScanWorkload& w, AggregationMode mode) {
  const int p = static_cast<int>(w.parties.size());
  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  SecureScanOptions options;
  options.aggregation = mode;
  options.frac_bits = 32;
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;

  TcpRun run;
  std::vector<TcpWireStats> wire(static_cast<size_t>(p));
  std::vector<int64_t> logical(static_cast<size_t>(p), 0);
  std::vector<int64_t> messages(static_cast<size_t>(p), 0);
  std::vector<double> seconds(static_cast<size_t>(p), 0.0);
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      Stopwatch timer;
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      DASH_CHECK(transport.ok()) << transport.status();
      const auto out = RunPartySecureScan(
          transport.value().get(), w.parties[static_cast<size_t>(i)], options);
      DASH_CHECK(out.ok()) << out.status();
      seconds[static_cast<size_t>(i)] = timer.ElapsedSeconds();
      wire[static_cast<size_t>(i)] = transport.value()->wire_stats();
      logical[static_cast<size_t>(i)] = out->metrics.total_bytes;
      messages[static_cast<size_t>(i)] = out->metrics.total_messages;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < p; ++i) {
    run.logical_bytes += logical[static_cast<size_t>(i)];
    run.messages += messages[static_cast<size_t>(i)];
    run.wire_bytes += wire[static_cast<size_t>(i)].bytes_sent;
    run.frames += wire[static_cast<size_t>(i)].frames_sent;
    run.seconds = std::max(run.seconds, seconds[static_cast<size_t>(i)]);
  }
  return run;
}

int RealMain() {
  std::printf("=== transport layer: loopback TCP vs in-process queues ===\n");
  std::printf("P = 3 parties (threads), N = 1200, K = 4, masked unless "
              "noted\n\n");

  std::printf("%-8s | %12s | %12s %12s %8s | %9s %10s\n", "M",
              "in-proc B", "tcp logical", "tcp wire", "frames", "tcp ms",
              "overhead");
  for (const int64_t m : {250, 1000, 4000, 16000}) {
    const ScanWorkload w = MakeSized(m, 11 + static_cast<uint64_t>(m));
    SecureScanOptions options;
    options.aggregation = AggregationMode::kMasked;
    options.frac_bits = 32;
    const auto inproc = SecureAssociationScan(options).Run(w.parties);
    DASH_CHECK(inproc.ok()) << inproc.status();
    const TcpRun tcp = RunTcp(w, AggregationMode::kMasked);
    DASH_CHECK(tcp.logical_bytes == inproc->metrics.total_bytes)
        << "logical byte accounting diverged between backends";
    std::printf("%-8lld | %12lld | %12lld %12lld %8lld | %9.2f %9.2f%%\n",
                static_cast<long long>(m),
                static_cast<long long>(inproc->metrics.total_bytes),
                static_cast<long long>(tcp.logical_bytes),
                static_cast<long long>(tcp.wire_bytes),
                static_cast<long long>(tcp.frames), tcp.seconds * 1e3,
                100.0 * static_cast<double>(tcp.wire_bytes -
                                            tcp.logical_bytes) /
                    static_cast<double>(tcp.logical_bytes));
  }

  std::printf("\n-- per-message overhead by mode (M = 4000) --\n");
  std::printf("%-10s | %9s %12s %12s | %12s %9s\n", "mode", "messages",
              "tcp logical", "tcp wire", "B/message", "tcp ms");
  const ScanWorkload w = MakeSized(4000, 21);
  for (const auto mode :
       {AggregationMode::kPublicShare, AggregationMode::kAdditive,
        AggregationMode::kMasked}) {
    const TcpRun tcp = RunTcp(w, mode);
    std::printf("%-10s | %9lld %12lld %12lld | %12.1f %9.2f\n",
                AggregationModeName(mode),
                static_cast<long long>(tcp.messages),
                static_cast<long long>(tcp.logical_bytes),
                static_cast<long long>(tcp.wire_bytes),
                static_cast<double>(tcp.wire_bytes) /
                    static_cast<double>(tcp.messages),
                tcp.seconds * 1e3);
  }

  std::printf(
      "\nexpected shape: tcp logical == in-proc B on every row (the\n"
      "accounting invariant); wire overhead shrinks as M grows because the\n"
      "fixed 24-byte frame header amortizes over O(M) payloads; masked\n"
      "stays the cheapest secure mode over a real stack too.\n");
  return 0;
}

}  // namespace

int main() { return RealMain(); }
