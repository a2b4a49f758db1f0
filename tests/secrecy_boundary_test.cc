// Dynamic enforcement of the secrecy boundary (DESIGN.md §11): every
// buffer a 3-party secure scan hands to Transport::Send must be masked
// share material, a blessed public value, or an explicitly declassified
// aggregate — cross-checked against tools/secrecy_allowlist.txt. Runs
// over the in-process mesh AND a real TCP mesh.
//
// The checks are behavioral, not nominal: beyond classifying tags, the
// test re-runs the protocol under a different seed and requires every
// secret-carrying payload to change (masks/shares are fresh randomness)
// while every public payload stays identical (aggregates depend only on
// the data). A leaked raw summand would be caught twice — its bytes
// would repeat across seeds, and its bit pattern is structured doubles,
// not uniform ring words.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/secure_scan.h"
#include "data/workloads.h"
#include "net/network.h"
#include "transport/cluster_config.h"
#include "transport/party_runner.h"
#include "transport/tcp_transport.h"
#include "transport/transport.h"

#ifndef DASH_SECRECY_ALLOWLIST_PATH
#error "tests/CMakeLists.txt must define DASH_SECRECY_ALLOWLIST_PATH"
#endif

namespace dash {
namespace {

// ---------------------------------------------------------------------
// Recording decorator: captures every payload handed to Send (Broadcast
// funnels through Send in the base class) before forwarding it.

struct CapturedMessage {
  int from = -1;
  int to = -1;
  MessageTag tag = MessageTag::kPlainStats;
  std::vector<uint8_t> payload;
};

class RecordingTransport : public Transport {
 public:
  explicit RecordingTransport(Transport* inner)
      : Transport(inner->num_parties()), inner_(inner) {}

  int local_party() const override { return inner_->local_party(); }

  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override {
    sent_.push_back(CapturedMessage{from, to, tag, payload});
    return inner_->Send(from, to, tag, std::move(payload));
  }

  Result<Message> Receive(int to, int from, MessageTag expected_tag) override {
    return inner_->Receive(to, from, expected_tag);
  }

  bool HasPending(int to, int from) override {
    return inner_->HasPending(to, from);
  }

  void BeginRound() override {
    Transport::BeginRound();
    inner_->BeginRound();
  }

  const std::vector<CapturedMessage>& sent() const { return sent_; }

 private:
  Transport* inner_;
  std::vector<CapturedMessage> sent_;
};

// ---------------------------------------------------------------------
// Allowlist: reveal-point names and round keys from
// tools/secrecy_allowlist.txt.

struct Allowlist {
  std::set<std::string> names;
  std::set<std::string> rounds;
};

Allowlist LoadAllowlist() {
  Allowlist out;
  std::ifstream in(DASH_SECRECY_ALLOWLIST_PATH);
  EXPECT_TRUE(in.good()) << "cannot open " << DASH_SECRECY_ALLOWLIST_PATH;
  std::string line;
  while (std::getline(in, line)) {
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const size_t bar1 = line.find('|');
    const size_t bar2 =
        (bar1 == std::string::npos) ? std::string::npos
                                    : line.find('|', bar1 + 1);
    if (bar2 == std::string::npos) {
      ADD_FAILURE() << "malformed allowlist line: " << line;
      continue;
    }
    const auto strip = [](std::string s) {
      const size_t b = s.find_first_not_of(" \t");
      const size_t e = s.find_last_not_of(" \t");
      return (b == std::string::npos) ? std::string()
                                      : s.substr(b, e - b + 1);
    };
    out.names.insert(strip(line.substr(0, bar1)));
    out.rounds.insert(strip(line.substr(bar1 + 1, bar2 - bar1 - 1)));
  }
  EXPECT_FALSE(out.names.empty());
  return out;
}

// The reveal point each wire tag must have passed through. Tags not in
// this map carry public protocol metadata (sample counts, R factors,
// opened chunks of the total, commit checksums) that the protocol
// reveals by design.
const std::map<MessageTag, std::string>& SecretTagRevealPoints() {
  static const auto* kMap = new std::map<MessageTag, std::string>{
      {MessageTag::kAdditiveShare, "SerializeShareForHolder"},
      {MessageTag::kMaskedValue, "MaskAndSerialize"},
      {MessageTag::kPublicKey, "DiffieHellman::PublicValue"},
  };
  return *kMap;
}

bool IsSecretCarrying(MessageTag tag) {
  return tag == MessageTag::kAdditiveShare ||
         tag == MessageTag::kMaskedValue || tag == MessageTag::kPublicKey;
}

bool IsPublicMetadata(MessageTag tag) {
  return tag == MessageTag::kSampleCount || tag == MessageTag::kRFactor ||
         tag == MessageTag::kTreeR || tag == MessageTag::kCommit ||
         tag == MessageTag::kPhase1Probe || tag == MessageTag::kTotalChunk;
}

double OneBitFraction(const std::vector<uint8_t>& bytes) {
  int64_t ones = 0;
  for (const uint8_t b : bytes) ones += __builtin_popcount(b);
  return bytes.empty()
             ? 0.0
             : static_cast<double>(ones) /
                   (8.0 * static_cast<double>(bytes.size()));
}

ScanWorkload BoundaryWorkload() {
  GwasWorkloadOptions options;
  options.party_sizes = {40, 60, 50};
  options.num_variants = 60;
  options.num_covariates = 3;
  options.num_causal = 2;
  options.seed = 7;
  auto workload = MakeGwasWorkload(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

// Every mesh endpoint wrapped in its own recorder; the parties' sends
// are returned in party order (each party's in its own send order).
std::vector<CapturedMessage> RunInProcess(AggregationMode mode,
                                          uint64_t seed) {
  const ScanWorkload workload = BoundaryWorkload();
  SecureScanOptions options;
  options.aggregation = mode;
  options.seed = seed;
  std::vector<std::vector<CapturedMessage>> sent(workload.parties.size());
  const Status status = RunPartiesInProcess(
      static_cast<int>(workload.parties.size()), [&](Transport* endpoint) {
        const size_t p = static_cast<size_t>(endpoint->local_party());
        RecordingTransport recorder(endpoint);
        const auto out =
            RunPartySecureScan(&recorder, workload.parties[p], options);
        sent[p] = recorder.sent();
        return out.status();
      });
  EXPECT_TRUE(status.ok()) << status;
  std::vector<CapturedMessage> merged;
  for (const auto& per_party : sent) {
    merged.insert(merged.end(), per_party.begin(), per_party.end());
  }
  return merged;
}

// The boundary assertions shared by both backends.
void CheckBoundary(const std::vector<CapturedMessage>& sent,
                   AggregationMode mode) {
  const Allowlist allowlist = LoadAllowlist();
  const auto& reveal_points = SecretTagRevealPoints();
  std::vector<uint8_t> secret_bytes;
  for (const auto& msg : sent) {
    if (msg.tag == MessageTag::kPlainStats) {
      // Plaintext summands are only legal in the public-share baseline,
      // and only because secure_sum.cc declassifies them explicitly —
      // which in turn must be allowlisted.
      EXPECT_EQ(mode, AggregationMode::kPublicShare)
          << "plaintext stats on the wire in a secure mode";
      EXPECT_TRUE(allowlist.names.count("declassify@src/mpc/secure_sum.cc"))
          << "public-share declassification is not allowlisted";
      continue;
    }
    ASSERT_TRUE(IsSecretCarrying(msg.tag) || IsPublicMetadata(msg.tag))
        << "unclassified tag on the wire: " << MessageTagName(msg.tag);
    if (IsSecretCarrying(msg.tag)) {
      // The reveal point that produced this buffer must be blessed.
      const auto it = reveal_points.find(msg.tag);
      ASSERT_NE(it, reveal_points.end());
      EXPECT_TRUE(allowlist.names.count(it->second))
          << it->second << " missing from secrecy_allowlist.txt";
      // Pool the ring words: skip the length prefix, and in the
      // reduce messages also the full length that leads it.
      const size_t prefix = msg.tag == MessageTag::kMaskedValue ? 16 : 8;
      if (msg.tag != MessageTag::kPublicKey &&
          msg.payload.size() > prefix) {
        secret_bytes.insert(secret_bytes.end(),
                            msg.payload.begin() +
                                static_cast<std::ptrdiff_t>(prefix),
                            msg.payload.end());
      }
    }
  }
  if (mode == AggregationMode::kPublicShare) return;
  // Masked/share material must be indistinguishable from noise.
  ASSERT_GT(secret_bytes.size(), 4000u);
  EXPECT_NEAR(OneBitFraction(secret_bytes), 0.5, 0.02)
      << "wire payloads are structured, not masked";
}

// Freshness across seeds: same message schedule, same lengths; every
// secret-carrying payload changes, every public payload does not.
void CheckSeedFreshness(AggregationMode mode) {
  const auto run_a = RunInProcess(mode, /*seed=*/0xda5b);
  const auto run_b = RunInProcess(mode, /*seed=*/0x5eed);
  ASSERT_EQ(run_a.size(), run_b.size());
  for (size_t i = 0; i < run_a.size(); ++i) {
    const CapturedMessage& a = run_a[i];
    const CapturedMessage& b = run_b[i];
    ASSERT_EQ(a.tag, b.tag);
    ASSERT_EQ(a.from, b.from);
    ASSERT_EQ(a.to, b.to);
    ASSERT_EQ(a.payload.size(), b.payload.size())
        << "wire size depends on the seed";
    if (IsSecretCarrying(a.tag)) {
      EXPECT_NE(a.payload, b.payload)
          << "seed-independent bytes under secret tag "
          << MessageTagName(a.tag) << " (message " << i << ")";
    } else {
      // Aggregates and metadata depend only on the data: the ring
      // arithmetic is exact, so even the commit checksum is identical.
      EXPECT_EQ(a.payload, b.payload)
          << "public payload varies with the seed: tag "
          << MessageTagName(a.tag) << " (message " << i << ")";
    }
  }
}

TEST(SecrecyBoundaryTest, AdditiveInProcess) {
  CheckBoundary(RunInProcess(AggregationMode::kAdditive, 0xda5b),
                AggregationMode::kAdditive);
  CheckSeedFreshness(AggregationMode::kAdditive);
}

TEST(SecrecyBoundaryTest, MaskedInProcess) {
  CheckBoundary(RunInProcess(AggregationMode::kMasked, 0xda5b),
                AggregationMode::kMasked);
  CheckSeedFreshness(AggregationMode::kMasked);
}

TEST(SecrecyBoundaryTest, PublicShareBaselineIsDeclassified) {
  CheckBoundary(RunInProcess(AggregationMode::kPublicShare, 0xda5b),
                AggregationMode::kPublicShare);
}

// ---------------------------------------------------------------------
// TCP: each endpoint is wrapped in its own recorder; the union of the
// recorded sends must satisfy the same boundary AND be byte-identical
// to the in-process wire (the transport layer's bit-identity guarantee
// extends the in-process secrecy argument to the real wire).

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

using WireKey = std::tuple<int, int, uint32_t, std::vector<uint8_t>>;

std::vector<WireKey> WireMultiset(const std::vector<CapturedMessage>& sent) {
  std::vector<WireKey> keys;
  keys.reserve(sent.size());
  for (const auto& m : sent) {
    keys.emplace_back(m.from, m.to, static_cast<uint32_t>(m.tag), m.payload);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(SecrecyBoundaryTest, MaskedOverTcpMatchesInProcessWire) {
  const ScanWorkload workload = BoundaryWorkload();
  const int p = static_cast<int>(workload.parties.size());
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;

  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  std::vector<std::vector<CapturedMessage>> sent(static_cast<size_t>(p));
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      ASSERT_TRUE(transport.ok()) << transport.status();
      RecordingTransport recorder(transport.value().get());
      const auto out = RunPartySecureScan(
          &recorder, workload.parties[static_cast<size_t>(i)], options);
      ASSERT_TRUE(out.ok()) << out.status();
      sent[static_cast<size_t>(i)] = recorder.sent();
    });
  }
  for (auto& t : threads) t.join();

  std::vector<CapturedMessage> merged;
  for (const auto& per_party : sent) {
    merged.insert(merged.end(), per_party.begin(), per_party.end());
  }
  CheckBoundary(merged, AggregationMode::kMasked);

  // Byte-identity with the in-process run under the same seed: the TCP
  // wire carries exactly the buffers the in-process argument covers.
  const auto reference = RunInProcess(AggregationMode::kMasked, options.seed);
  EXPECT_EQ(WireMultiset(merged), WireMultiset(reference));
}

}  // namespace
}  // namespace dash
