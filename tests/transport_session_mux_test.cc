// SessionMux over real TCP meshes: concurrent scan sessions on one
// connection per peer must (a) reveal bits identical to the in-process
// simulator, (b) keep per-session traffic metrics attributable, and
// (c) scope every failure — abort, fault injection, hostile ids — to
// the one session it belongs to.

#include "transport/session_mux.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/scan_result.h"
#include "core/secure_scan.h"
#include "data/workloads.h"
#include "transport/cluster_config.h"
#include "transport/fault_transport.h"
#include "transport/frame.h"
#include "transport/party_runner.h"
#include "transport/tcp_transport.h"
#include "util/mutex.h"

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

// A fully meshed set of TcpTransports, each wrapped in a SessionMux.
// The mux borrows the transport, so `muxes` is declared AFTER
// `transports`: members destroy in reverse order, muxes first.
struct MuxedMesh {
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<SessionMux>> muxes;
};

MuxedMesh ConnectMesh(int parties, SessionMuxOptions mux_options = {}) {
  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(parties)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions options;
  options.connect_timeout_ms = 10000;
  MuxedMesh mesh;
  mesh.transports.resize(static_cast<size_t>(parties));
  std::vector<std::thread> threads;
  for (int i = 0; i < parties; ++i) {
    threads.emplace_back([&, i] {
      auto r = TcpTransport::Connect(cluster, i, options);
      ASSERT_TRUE(r.ok()) << "party " << i << ": " << r.status();
      mesh.transports[static_cast<size_t>(i)] = std::move(r).value();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < parties; ++i) {
    EXPECT_NE(mesh.transports[static_cast<size_t>(i)], nullptr);
    mesh.muxes.push_back(std::make_unique<SessionMux>(
        mesh.transports[static_cast<size_t>(i)].get(), mux_options));
  }
  return mesh;
}

ScanWorkload SmallWorkload(uint64_t seed) {
  GwasWorkloadOptions options;
  options.party_sizes = {40, 60, 50};
  options.num_variants = 20;
  options.num_covariates = 3;
  options.num_causal = 2;
  options.seed = seed;
  auto workload = MakeGwasWorkload(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

Result<SecureScanOutput> Reference(const ScanWorkload& workload,
                                   const SecureScanOptions& options) {
  return SecureAssociationScan(options).Run(workload.parties);
}

// ---------------------------------------------------------------------

TEST(SessionMuxTest, ConcurrentSessionsBitIdenticalWithPerSessionMetrics) {
  MuxedMesh mesh = ConnectMesh(3);

  // Two different workloads run CONCURRENTLY, one per session, over the
  // same three TCP connections.
  const ScanWorkload workload_a = SmallWorkload(7);
  const ScanWorkload workload_b = SmallWorkload(1234);
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  const auto ref_a = Reference(workload_a, options);
  const auto ref_b = Reference(workload_b, options);
  ASSERT_TRUE(ref_a.ok()) << ref_a.status();
  ASSERT_TRUE(ref_b.ok()) << ref_b.status();

  struct SessionRun {
    Result<SecureScanOutput> out = InvalidArgumentError("did not run");
    int64_t channel_bytes = 0;
    int64_t channel_messages = 0;
  };
  SessionRun runs[2][3];  // [session][party]
  const uint32_t session_ids[2] = {5, 9};
  const ScanWorkload* workloads[2] = {&workload_a, &workload_b};

  std::vector<std::thread> threads;
  for (int s = 0; s < 2; ++s) {
    for (int p = 0; p < 3; ++p) {
      threads.emplace_back([&, s, p] {
        auto channel = mesh.muxes[static_cast<size_t>(p)]->OpenSession(
            session_ids[s]);
        ASSERT_TRUE(channel.ok()) << channel.status();
        runs[s][p].out = RunPartySecureScan(
            channel.value().get(),
            workloads[s]->parties[static_cast<size_t>(p)], options);
        runs[s][p].channel_bytes = channel.value()->metrics().total_bytes();
        runs[s][p].channel_messages =
            channel.value()->metrics().total_messages();
      });
    }
  }
  for (auto& t : threads) t.join();

  const uint64_t want[2] = {ScanResultChecksum(ref_a->result),
                            ScanResultChecksum(ref_b->result)};
  for (int s = 0; s < 2; ++s) {
    for (int p = 0; p < 3; ++p) {
      const SessionRun& run = runs[s][p];
      ASSERT_TRUE(run.out.ok())
          << "session " << session_ids[s] << " party " << p << ": "
          << run.out.status();
      EXPECT_EQ(ScanResultChecksum(run.out->result), want[s])
          << "session " << session_ids[s] << " party " << p;
      // Per-session attribution: the channel's own counters are the
      // scan's counters, not the mesh-wide totals.
      EXPECT_EQ(run.out->metrics.total_bytes, run.channel_bytes);
      EXPECT_EQ(run.out->metrics.total_messages, run.channel_messages);
      EXPECT_EQ(run.out->metrics.rounds,
                (s == 0 ? ref_a : ref_b)->metrics.rounds);
    }
  }

  // The mesh-wide transport carried BOTH sessions' traffic.
  for (int p = 0; p < 3; ++p) {
    const int64_t both = runs[0][p].channel_messages +
                         runs[1][p].channel_messages;
    EXPECT_EQ(mesh.transports[static_cast<size_t>(p)]
                  ->metrics()
                  .total_messages(),
              both)
        << "party " << p;
    const SessionMuxStats stats =
        mesh.muxes[static_cast<size_t>(p)]->stats();
    EXPECT_EQ(stats.sessions_opened, 2);
    EXPECT_EQ(stats.open_sessions, 0);  // channels destroyed above
    EXPECT_EQ(stats.hostile_rejects, 0);
    EXPECT_EQ(stats.dropped_orphans, 0);
  }
}

TEST(SessionMuxTest, DuplicateAndInvalidSessionIdsAreRejected) {
  MuxedMesh mesh = ConnectMesh(2);
  SessionMux* mux = mesh.muxes[0].get();

  auto first = mux->OpenSession(7);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto duplicate = mux->OpenSession(7);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);

  const auto sessionless = mux->OpenSession(0);
  ASSERT_FALSE(sessionless.ok());
  EXPECT_EQ(sessionless.status().code(), StatusCode::kInvalidArgument);

  const auto oversized = mux->OpenSession(kFrameMaxSessionId + 1);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);

  // Closing (destroying) the channel frees the id for reuse.
  first.value().reset();
  auto reopened = mux->OpenSession(7);
  EXPECT_TRUE(reopened.ok()) << reopened.status();
}

TEST(SessionMuxTest, OrphanedFramesReplayWhenTheSessionOpensLate) {
  MuxedMesh mesh = ConnectMesh(2);

  // Party 0's scheduler started job 3 first: its frame arrives at party
  // 1 before anyone opened session 3 there.
  auto sender = mesh.muxes[0]->OpenSession(3);
  ASSERT_TRUE(sender.ok()) << sender.status();
  ASSERT_TRUE(sender.value()
                  ->Send(0, 1, MessageTag::kPlainStats, {1, 2, 3})
                  .ok());

  // The frame lands in party 1's orphan buffer (poll: pump timing).
  bool orphaned = false;
  for (int i = 0; i < 200 && !orphaned; ++i) {
    orphaned = mesh.muxes[1]->stats().orphaned_messages >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(orphaned) << "frame for the unopened session never orphaned";

  // Opening the session replays the orphan in arrival order.
  auto receiver = mesh.muxes[1]->OpenSession(3);
  ASSERT_TRUE(receiver.ok()) << receiver.status();
  const auto msg = receiver.value()->Receive(1, 0, MessageTag::kPlainStats);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg.value().payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(mesh.muxes[1]->stats().dropped_orphans, 0);
}

TEST(SessionMuxTest, AbortPoisonsOneSessionAndSparesTheOther) {
  SessionMuxOptions mux_options;
  mux_options.receive_timeout_ms = 2000;
  MuxedMesh mesh = ConnectMesh(2, mux_options);

  auto victim0 = mesh.muxes[0]->OpenSession(11);
  auto victim1 = mesh.muxes[1]->OpenSession(11);
  auto healthy0 = mesh.muxes[0]->OpenSession(12);
  auto healthy1 = mesh.muxes[1]->OpenSession(12);
  ASSERT_TRUE(victim0.ok() && victim1.ok() && healthy0.ok() &&
              healthy1.ok());

  // The daemon's deadline watchdog poisons session 11 at party 0.
  victim0.value()->Abort(DeadlineExceededError("job 11: deadline"));
  const auto poisoned =
      victim0.value()->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kDeadlineExceeded);

  // Session 12 on the SAME mesh still round-trips both ways.
  ASSERT_TRUE(healthy0.value()
                  ->Send(0, 1, MessageTag::kPlainStats, {42})
                  .ok());
  const auto got = healthy1.value()->Receive(1, 0, MessageTag::kPlainStats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value().payload, (std::vector<uint8_t>{42}));
  ASSERT_TRUE(healthy1.value()
                  ->Send(1, 0, MessageTag::kMaskedValue, {9})
                  .ok());
  const auto back = healthy0.value()->Receive(0, 1, MessageTag::kMaskedValue);
  ASSERT_TRUE(back.ok()) << back.status();
}

TEST(SessionMuxTest, Phase1CacheHitSkipsPhase1OverTheMux) {
  MuxedMesh mesh = ConnectMesh(3);
  const ScanWorkload workload = SmallWorkload(7);
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  const auto reference = Reference(workload, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const uint64_t want = ScanResultChecksum(reference->result);

  // Each party keeps its Phase-1 state across the two scans, exactly
  // like the daemon's Phase1Cache does for repeat jobs on one cohort.
  Phase1State states[3];
  auto unset = [] {
    return Result<SecureScanOutput>(InvalidArgumentError("unset"));
  };
  Result<SecureScanOutput> outs[2][3] = {{unset(), unset(), unset()},
                                         {unset(), unset(), unset()}};
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    for (int p = 0; p < 3; ++p) {
      threads.emplace_back([&, round, p] {
        auto channel = mesh.muxes[static_cast<size_t>(p)]->OpenSession(
            static_cast<uint32_t>(20 + round));
        ASSERT_TRUE(channel.ok()) << channel.status();
        outs[round][p] = RunPartySecureScan(
            channel.value().get(), workload.parties[static_cast<size_t>(p)],
            options, &states[p]);
      });
    }
    for (auto& t : threads) t.join();
  }

  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(outs[0][p].ok()) << outs[0][p].status();
    ASSERT_TRUE(outs[1][p].ok()) << outs[1][p].status();
    EXPECT_EQ(ScanResultChecksum(outs[0][p]->result), want);
    EXPECT_EQ(ScanResultChecksum(outs[1][p]->result), want);
    EXPECT_FALSE(outs[0][p]->metrics.phase1_cache_hit);
    EXPECT_TRUE(outs[1][p]->metrics.phase1_cache_hit) << "party " << p;
    // The hit replaces Phase 1 (sample count + R combination) with the
    // one-round probe: strictly fewer rounds, strictly fewer bytes.
    EXPECT_LT(outs[1][p]->metrics.rounds, outs[0][p]->metrics.rounds);
    EXPECT_LT(outs[1][p]->metrics.total_bytes,
              outs[0][p]->metrics.total_bytes);
  }
}

// Byte i of the frame `from` sends `to` in `round` of `session`.
uint8_t BulkByte(uint32_t session, int from, int to, int round, size_t i) {
  return static_cast<uint8_t>(i * 131 + session * 31 +
                              static_cast<size_t>(from * 7 + to * 3 + round));
}

TEST(SessionMuxTest, ConcurrentSessionsExchangeMultiMegabyteFramesBothWays) {
  // Every party of four sessions sends a 2 MiB frame to both peers at
  // once, twice. No socket buffer holds that, so each pump sits in the
  // full-socket path, draining its intake while it writes.
  constexpr int kParties = 3;
  constexpr int kSessions = 4;
  constexpr int kRounds = 2;
  constexpr size_t kFrameBytes = (size_t{2} << 20) + 5;
  MuxedMesh mesh = ConnectMesh(kParties);

  struct Run {
    Status status = Status::Ok();
    int64_t bytes = -1;
  };
  Run runs[kSessions][kParties];
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    for (int p = 0; p < kParties; ++p) {
      threads.emplace_back([&, s, p] {
        const uint32_t id = static_cast<uint32_t>(40 + s);
        Run& run = runs[s][p];
        auto channel = mesh.muxes[static_cast<size_t>(p)]->OpenSession(id);
        if (!channel.ok()) {
          run.status = channel.status();
          return;
        }
        for (int round = 0; round < kRounds && run.status.ok(); ++round) {
          for (int q = 0; q < kParties && run.status.ok(); ++q) {
            if (q == p) continue;
            std::vector<uint8_t> payload(kFrameBytes);
            for (size_t i = 0; i < kFrameBytes; ++i) {
              payload[i] = BulkByte(id, p, q, round, i);
            }
            run.status = channel.value()->Send(p, q, MessageTag::kMaskedValue,
                                               std::move(payload));
          }
          for (int q = 0; q < kParties && run.status.ok(); ++q) {
            if (q == p) continue;
            auto msg = channel.value()->Receive(p, q, MessageTag::kMaskedValue);
            if (!msg.ok()) {
              run.status = msg.status();
              break;
            }
            const std::vector<uint8_t>& got = msg.value().payload;
            bool same = got.size() == kFrameBytes;
            for (size_t i = 0; same && i < kFrameBytes; ++i) {
              same = got[i] == BulkByte(id, q, p, round, i);
            }
            if (!same) {
              run.status = DataLossError(
                  "session " + std::to_string(id) + ": party " +
                  std::to_string(p) + " got a wrong frame from party " +
                  std::to_string(q) + " in round " + std::to_string(round));
            }
          }
        }
        run.bytes = channel.value()->metrics().total_bytes();
      });
    }
  }
  for (auto& t : threads) t.join();

  const int64_t per_party =
      kRounds * (kParties - 1) *
      static_cast<int64_t>(kFrameBytes + Message::kHeaderBytes);
  for (int s = 0; s < kSessions; ++s) {
    for (int p = 0; p < kParties; ++p) {
      EXPECT_TRUE(runs[s][p].status.ok())
          << "session " << 40 + s << " party " << p << ": "
          << runs[s][p].status;
      EXPECT_EQ(runs[s][p].bytes, per_party)
          << "session " << 40 + s << " party " << p;
    }
  }
  for (int p = 0; p < kParties; ++p) {
    EXPECT_EQ(mesh.transports[static_cast<size_t>(p)]->metrics().total_bytes(),
              kSessions * per_party)
        << "party " << p;
    EXPECT_EQ(mesh.muxes[static_cast<size_t>(p)]->stats().routed_messages,
              kSessions * kRounds * (kParties - 1));
  }
}

// ---------------------------------------------------------------------
// Fault injection scoped to ONE session of two. Every party of session
// 31 wraps its channel in a FaultInjectingTransport with the SAME plan
// (the decorator contract); session 32 runs bare alongside it.

struct TwoSessionFaultResult {
  Result<SecureScanOutput> faulted[3] = {InvalidArgumentError("x"),
                                         InvalidArgumentError("x"),
                                         InvalidArgumentError("x")};
  Result<SecureScanOutput> clean[3] = {InvalidArgumentError("x"),
                                       InvalidArgumentError("x"),
                                       InvalidArgumentError("x")};
};

TwoSessionFaultResult RunTwoSessionsOneFaulted(const FaultPlan& plan) {
  SessionMuxOptions mux_options;
  mux_options.receive_timeout_ms = 3000;
  MuxedMesh mesh = ConnectMesh(3, mux_options);
  const ScanWorkload workload = SmallWorkload(7);
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;

  TwoSessionFaultResult result;
  std::vector<std::thread> threads;
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&, p] {
      auto channel = mesh.muxes[static_cast<size_t>(p)]->OpenSession(31);
      ASSERT_TRUE(channel.ok()) << channel.status();
      FaultInjectingTransport faulty(channel.value().get(), plan);
      result.faulted[p] = RunPartySecureScan(
          &faulty, workload.parties[static_cast<size_t>(p)], options);
    });
    threads.emplace_back([&, p] {
      auto channel = mesh.muxes[static_cast<size_t>(p)]->OpenSession(32);
      ASSERT_TRUE(channel.ok()) << channel.status();
      result.clean[p] = RunPartySecureScan(
          channel.value().get(), workload.parties[static_cast<size_t>(p)],
          options);
    });
  }
  for (auto& t : threads) t.join();

  // Whatever the fault did to session 31, session 32 must be perfect.
  const auto reference = Reference(workload, options);
  EXPECT_TRUE(reference.ok());
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(result.clean[p].ok())
        << "clean session, party " << p << ": " << result.clean[p].status();
    if (result.clean[p].ok() && reference.ok()) {
      EXPECT_EQ(ScanResultChecksum(result.clean[p]->result),
                ScanResultChecksum(reference->result))
          << "party " << p;
    }
  }
  return result;
}

TEST(SessionMuxFaultTest, DuplicateInOneSessionStaysBitIdentical) {
  FaultRule rule;
  rule.kind = FaultKind::kDuplicate;
  rule.round = 1;
  rule.from = 1;
  rule.to = 0;
  rule.nth = 0;
  FaultPlan plan;
  plan.rules.push_back(rule);

  const TwoSessionFaultResult result = RunTwoSessionsOneFaulted(plan);
  const ScanWorkload workload = SmallWorkload(7);
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  const auto reference = Reference(workload, options);
  ASSERT_TRUE(reference.ok());
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(result.faulted[p].ok())
        << "party " << p << ": " << result.faulted[p].status();
    EXPECT_EQ(ScanResultChecksum(result.faulted[p]->result),
              ScanResultChecksum(reference->result));
  }
}

TEST(SessionMuxFaultTest, DropInOneSessionFailsOnlyThatSession) {
  FaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.round = 2;
  rule.from = 1;
  rule.to = 0;
  rule.nth = 0;
  FaultPlan plan;
  plan.rules.push_back(rule);

  const TwoSessionFaultResult result = RunTwoSessionsOneFaulted(plan);
  // The drop hits party 0's round-2 receive from party 1; with the
  // scan's abort broadcast, EVERY party of session 31 must fail (and
  // RunTwoSessionsOneFaulted already proved session 32 succeeded).
  int failed = 0;
  for (int p = 0; p < 3; ++p) {
    if (!result.faulted[p].ok()) ++failed;
  }
  EXPECT_EQ(failed, 3) << "the dropped message must fail the session at "
                          "every party via the abort broadcast";
}

// ---------------------------------------------------------------------
// Wake-ups and queued sends. The inner transport below has no sockets,
// and its PumpWait ignores any positive timeout: it returns only once
// WakePumpWait has rung, or after a 10 s cap that counts as a lost
// wake-up. A mux that relied on PumpWait's timeout to run a queued
// send, to notice shutdown or to apply a link failure would therefore
// wait out the cap. It logs every frame the pump writes, can hold
// those writes (as a full socket would) until released or until 10 s
// after the hold began, can fail every write to one peer, and delivers
// the frames a test injects.

class DoorbellOnlyTransport : public Transport {
 public:
  explicit DoorbellOnlyTransport(int parties) : Transport(parties) {}

  int local_party() const override { return 0; }
  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override {
    return SendOnSession(0, from, to, tag, std::move(payload));
  }
  Status SendOnSession(uint32_t session, int from, int to, MessageTag tag,
                       std::vector<uint8_t> payload) override {
    MutexLock lock(&mu_);
    write_blocked_ = hold_writes_;
    cv_.NotifyAll();
    while (hold_writes_ &&
           cv_.WaitUntil(&mu_, hold_cap_) != std::cv_status::timeout) {
    }
    write_blocked_ = false;
    if (to == failing_peer_) return failing_status_;
    RecordSend(from, to, tag, payload.size());
    written_.push_back(Message{from, to, session, tag, std::move(payload)});
    cv_.NotifyAll();
    return Status::Ok();
  }
  Result<Message> Receive(int, int, MessageTag) override {
    return UnimplementedError("the mux reads through TryReceiveAny");
  }
  bool HasPending(int, int) override { return false; }
  Result<Message> TryReceiveAny(int, int from) override {
    MutexLock lock(&mu_);
    if (from == lose_during_intake_from_) {
      lost_peer_ = lose_peer_;
      lose_during_intake_from_ = -1;
    }
    for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
      if (it->from != from) continue;
      Message msg = std::move(*it);
      inbound_.erase(it);
      return msg;
    }
    return NotFoundError("nothing injected from this peer");
  }
  Status LinkStatus(int peer) override {
    MutexLock lock(&mu_);
    if (peer == lost_peer_) {
      return UnavailableError("peer " + std::to_string(peer) +
                              " disconnected");
    }
    return Status::Ok();
  }

  Status PumpWait(int timeout_ms) override {
    MutexLock lock(&mu_);
    const auto cap =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    blocked_ = timeout_ms > 0;
    cv_.NotifyAll();
    while (timeout_ms > 0 && !rung_) {
      if (cv_.WaitUntil(&mu_, cap) == std::cv_status::timeout && !rung_) {
        ++expiries_;
        break;
      }
    }
    blocked_ = false;
    rung_ = false;
    return Status::Ok();
  }
  void WakePumpWait() override {
    MutexLock lock(&mu_);
    rung_ = true;
    ++rings_;
    cv_.NotifyAll();
  }

  int expiries() const {
    MutexLock lock(&mu_);
    return expiries_;
  }

  // Writes block from now until ReleaseWrites, or at most 10 s.
  void HoldWrites() {
    MutexLock lock(&mu_);
    hold_writes_ = true;
    hold_cap_ = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  }
  void ReleaseWrites() {
    MutexLock lock(&mu_);
    hold_writes_ = false;
    cv_.NotifyAll();
  }
  // True once the pump is blocked in a held write (false at the cap).
  bool AwaitWriteBlocked() {
    MutexLock lock(&mu_);
    while (!write_blocked_) {
      if (cv_.WaitUntil(&mu_, hold_cap_) == std::cv_status::timeout) {
        return write_blocked_;
      }
    }
    return true;
  }
  // Every later write to `peer` fails with `status`.
  void FailWritesTo(int peer, Status status) {
    MutexLock lock(&mu_);
    failing_peer_ = peer;
    failing_status_ = std::move(status);
  }
  // Frames the pump wrote, in write order, once there are `count` of
  // them or 10 s passed.
  std::vector<Message> AwaitWritten(size_t count) {
    MutexLock lock(&mu_);
    const auto cap =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (written_.size() < count &&
           cv_.WaitUntil(&mu_, cap) != std::cv_status::timeout) {
    }
    return written_;
  }
  int rings() const {
    MutexLock lock(&mu_);
    return rings_;
  }
  // Returns once WakePumpWait has rung more than `rings` times in all.
  void AwaitRingsAbove(int rings) {
    MutexLock lock(&mu_);
    while (rings_ <= rings) cv_.Wait(&mu_);
  }
  // Queues `msg` for the pump's intake and rings, as inbound bytes
  // would end PumpWait.
  void Inject(Message msg) {
    MutexLock lock(&mu_);
    inbound_.push_back(std::move(msg));
    rung_ = true;
    cv_.NotifyAll();
  }

  // Returns once the pump thread is blocked in PumpWait.
  void AwaitPumpBlocked() {
    MutexLock lock(&mu_);
    while (!blocked_) cv_.Wait(&mu_);
  }

  // The next intake from `intake_peer` finds `lost_peer`'s link dead,
  // as a real intake Pump(0) can read another peer's EOF.
  void LoseLinkDuringIntakeFrom(int intake_peer, int lost_peer) {
    MutexLock lock(&mu_);
    lose_during_intake_from_ = intake_peer;
    lose_peer_ = lost_peer;
  }

 private:
  mutable Mutex mu_{LockRank::kLeaf};
  CondVar cv_;
  bool rung_ DASH_GUARDED_BY(mu_) = false;
  bool blocked_ DASH_GUARDED_BY(mu_) = false;
  int expiries_ DASH_GUARDED_BY(mu_) = 0;
  int rings_ DASH_GUARDED_BY(mu_) = 0;
  bool hold_writes_ DASH_GUARDED_BY(mu_) = false;
  bool write_blocked_ DASH_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point hold_cap_ DASH_GUARDED_BY(mu_);
  int failing_peer_ DASH_GUARDED_BY(mu_) = -1;
  Status failing_status_ DASH_GUARDED_BY(mu_) = Status::Ok();
  std::vector<Message> written_ DASH_GUARDED_BY(mu_);
  std::deque<Message> inbound_ DASH_GUARDED_BY(mu_);
  int lose_during_intake_from_ DASH_GUARDED_BY(mu_) = -1;
  int lose_peer_ DASH_GUARDED_BY(mu_) = -1;
  int lost_peer_ DASH_GUARDED_BY(mu_) = -1;
};

TEST(SessionMuxWakeTest, QueuedSendsNeverWaitOutThePumpTimeout) {
  constexpr int kMessages = 500;
  DoorbellOnlyTransport inner(3);
  {
    SessionMux mux(&inner);
    auto sends = mux.OpenSession(1);
    auto broadcasts = mux.OpenSession(2);
    ASSERT_TRUE(sends.ok() && broadcasts.ok());
    // Two job threads at once. Each loop stops at the first expiry, so
    // a lost wake-up fails in one cap rather than one cap per message.
    std::thread sender([&] {
      for (int i = 0; i < kMessages && inner.expiries() == 0; ++i) {
        ASSERT_TRUE(sends.value()
                        ->Send(0, 1 + i % 2, MessageTag::kPlainStats,
                               {static_cast<uint8_t>(i)})
                        .ok());
      }
    });
    std::thread broadcaster([&] {
      for (int i = 0; i < kMessages && inner.expiries() == 0; ++i) {
        ASSERT_TRUE(broadcasts.value()
                        ->Broadcast(0, MessageTag::kMaskedValue, {1, 2})
                        .ok());
      }
    });
    sender.join();
    broadcaster.join();
    EXPECT_EQ(inner.expiries(), 0);
    EXPECT_EQ(sends.value()->metrics().total_messages(), kMessages);
    EXPECT_EQ(broadcasts.value()->metrics().total_messages(),
              2 * kMessages);
  }
  // ~SessionMux rings too: joining its pump must not wait out the cap.
  EXPECT_EQ(inner.expiries(), 0);
  EXPECT_EQ(inner.metrics().total_messages(), 3 * kMessages);
}

TEST(SessionMuxWakeTest, LinkLostAfterItsPeersTurnFailsSessionsAtOnce) {
  DoorbellOnlyTransport inner(3);
  SessionMux mux(&inner);
  auto channel = mux.OpenSession(1);
  ASSERT_TRUE(channel.ok()) << channel.status();
  // One ring wakes the idle pump for a pass in which party 1's link
  // dies while the pump drains party 2, after party 1's own turn. No
  // ring and no socket event follows, yet the blocked Receive must fail
  // with the link's status at once.
  inner.AwaitPumpBlocked();
  inner.LoseLinkDuringIntakeFrom(/*intake_peer=*/2, /*lost_peer=*/1);
  inner.WakePumpWait();
  const auto start = std::chrono::steady_clock::now();
  const auto got = channel.value()->Receive(0, 1, MessageTag::kPlainStats);
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << got.status();
  EXPECT_LT(waited, 1.0);
  EXPECT_EQ(inner.expiries(), 0);
  EXPECT_EQ(mux.LinkHealth().code(), StatusCode::kUnavailable);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(SessionMuxQueueTest, SendAndBroadcastReturnWhileTheWriteIsHeld) {
  DoorbellOnlyTransport inner(3);
  SessionMux mux(&inner);
  auto channel = mux.OpenSession(1);
  ASSERT_TRUE(channel.ok()) << channel.status();
  // Every write blocks, as on a full socket, until the release below.
  // A Send that waited for its write would wait out the 10 s hold.
  inner.HoldWrites();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      channel.value()->Send(0, 1, MessageTag::kPlainStats, {7}).ok());
  ASSERT_TRUE(
      channel.value()->Broadcast(0, MessageTag::kMaskedValue, {8, 9}).ok());
  EXPECT_LT(SecondsSince(start), 1.0);
  EXPECT_EQ(channel.value()->metrics().total_messages(), 3);

  inner.ReleaseWrites();
  const std::vector<Message> written = inner.AwaitWritten(3);
  ASSERT_EQ(written.size(), 3u);
  EXPECT_EQ(written[0].to, 1);
  EXPECT_EQ(written[0].payload, (std::vector<uint8_t>{7}));
  EXPECT_EQ(written[1].to, 1);
  EXPECT_EQ(written[2].to, 2);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(written[i].tag, MessageTag::kMaskedValue);
    EXPECT_EQ(written[i].payload, (std::vector<uint8_t>{8, 9}));
  }
  for (const Message& msg : written) EXPECT_EQ(msg.session, 1u);
}

TEST(SessionMuxQueueTest, FramesKeepTheirOrderPerSessionAndPeer) {
  constexpr int kFrames = 300;
  DoorbellOnlyTransport inner(3);
  SessionMux mux(&inner);
  auto a = mux.OpenSession(4);
  auto b = mux.OpenSession(5);
  ASSERT_TRUE(a.ok() && b.ok());
  // Two job threads queue interleaved frames while the first write is
  // held, so the queue holds both sessions' frames at once.
  inner.HoldWrites();
  auto send_all = [](SessionChannel* channel) {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(channel
                      ->Send(0, 1 + i % 2, MessageTag::kPlainStats,
                             {static_cast<uint8_t>(i & 0xFF),
                              static_cast<uint8_t>(i >> 8)})
                      .ok());
    }
  };
  std::thread first(send_all, a.value().get());
  std::thread second(send_all, b.value().get());
  first.join();
  second.join();
  inner.ReleaseWrites();

  const std::vector<Message> written = inner.AwaitWritten(2 * kFrames);
  ASSERT_EQ(written.size(), static_cast<size_t>(2 * kFrames));
  // next[session - 4][peer - 1] = the sequence number due next.
  int next[2][2] = {{0, 1}, {0, 1}};
  for (const Message& msg : written) {
    ASSERT_TRUE(msg.session == 4 || msg.session == 5);
    ASSERT_TRUE(msg.to == 1 || msg.to == 2);
    int& due = next[msg.session - 4][msg.to - 1];
    ASSERT_EQ(msg.payload.size(), 2u);
    EXPECT_EQ(msg.payload[0] | (msg.payload[1] << 8), due)
        << "session " << msg.session << " peer " << msg.to;
    due += 2;
  }
  for (const auto& session : next) {
    EXPECT_EQ(session[0], kFrames);
    EXPECT_EQ(session[1], kFrames + 1);
  }
}

// Queues kFrames frames on a fresh session while the pump is held in
// the first write, destroys the channel before the mux or after it, and
// returns every frame the pump wrote. The hold ends only once
// ~SessionMux has refused further frames, so the frames are still
// queued when the session closes and when the mux shuts down.
constexpr int kQueuedAtShutdown = 40;

std::vector<Message> SendThenDestroy(bool channel_first,
                                     Status* late_send, Status* late_receive) {
  DoorbellOnlyTransport inner(3);
  auto mux = std::make_unique<SessionMux>(&inner);
  auto opened = mux->OpenSession(9);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) return {};
  std::unique_ptr<SessionChannel> channel = std::move(opened).value();
  inner.HoldWrites();
  for (int i = 0; i < kQueuedAtShutdown; ++i) {
    EXPECT_TRUE(channel
                    ->Send(0, 1 + i % 2, MessageTag::kCommit,
                           {static_cast<uint8_t>(i)})
                    .ok());
    if (i == 0) {
      EXPECT_TRUE(inner.AwaitWriteBlocked());
    }
  }
  if (channel_first) channel.reset();
  const int rings = inner.rings();
  std::thread destroyer([&mux] { mux.reset(); });
  inner.AwaitRingsAbove(rings);  // ~SessionMux set stopping_ and rang
  inner.ReleaseWrites();
  destroyer.join();
  if (channel != nullptr) {
    // The channel outlived its mux: its calls fail, and destroying it
    // touches no freed memory.
    *late_send = channel->Send(0, 1, MessageTag::kCommit, {1});
    *late_receive = channel->Receive(0, 1, MessageTag::kCommit).status();
    channel.reset();
  }
  return inner.AwaitWritten(kQueuedAtShutdown);
}

void ExpectAllQueuedFramesWritten(const std::vector<Message>& written) {
  ASSERT_EQ(written.size(), static_cast<size_t>(kQueuedAtShutdown));
  for (int i = 0; i < kQueuedAtShutdown; ++i) {
    const Message& msg = written[static_cast<size_t>(i)];
    EXPECT_EQ(msg.session, 9u);
    EXPECT_EQ(msg.to, 1 + i % 2);
    EXPECT_EQ(msg.payload, (std::vector<uint8_t>{static_cast<uint8_t>(i)}));
  }
}

TEST(SessionMuxQueueTest, FramesQueuedBeforeTheChannelAndMuxDieAreWritten) {
  Status late_send = Status::Ok();
  Status late_receive = Status::Ok();
  ExpectAllQueuedFramesWritten(SendThenDestroy(
      /*channel_first=*/true, &late_send, &late_receive));
}

TEST(SessionMuxQueueTest, ChannelOutlivesItsMuxWithFramesQueued) {
  Status late_send = Status::Ok();
  Status late_receive = Status::Ok();
  ExpectAllQueuedFramesWritten(SendThenDestroy(
      /*channel_first=*/false, &late_send, &late_receive));
  EXPECT_EQ(late_send.code(), StatusCode::kUnavailable) << late_send;
  EXPECT_EQ(late_receive.code(), StatusCode::kUnavailable) << late_receive;
}

TEST(SessionMuxQueueTest, FailedWriteFailsItsSessionAndSparesTheOther) {
  DoorbellOnlyTransport inner(3);
  SessionMuxOptions options;
  options.receive_timeout_ms = 10000;
  SessionMux mux(&inner, options);
  auto doomed = mux.OpenSession(1);
  auto healthy = mux.OpenSession(2);
  ASSERT_TRUE(doomed.ok() && healthy.ok());
  inner.FailWritesTo(1, DataLossError("write to party 1 failed"));

  // The Send only queues; the write fails on the pump, which latches
  // the failure on session 1. Its next Receive (from a peer whose link
  // is fine) and its next Send return it at once.
  ASSERT_TRUE(doomed.value()->Send(0, 1, MessageTag::kPlainStats, {1}).ok());
  const auto start = std::chrono::steady_clock::now();
  const auto got = doomed.value()->Receive(0, 2, MessageTag::kPlainStats);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss) << got.status();
  EXPECT_LT(SecondsSince(start), 1.0);
  EXPECT_EQ(doomed.value()->Send(0, 2, MessageTag::kPlainStats, {2}).code(),
            StatusCode::kDataLoss);

  // Session 2 on the same mux still sends and receives.
  ASSERT_TRUE(healthy.value()->Send(0, 2, MessageTag::kPlainStats, {3}).ok());
  inner.Inject(Message{2, 0, 2, MessageTag::kPlainStats, {4}});
  const auto fine = healthy.value()->Receive(0, 2, MessageTag::kPlainStats);
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_EQ(fine.value().payload, (std::vector<uint8_t>{4}));
  const std::vector<Message> written = inner.AwaitWritten(1);
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0].session, 2u);
  EXPECT_EQ(written[0].payload, (std::vector<uint8_t>{3}));
  EXPECT_TRUE(mux.LinkHealth().ok());
  EXPECT_EQ(inner.expiries(), 0);
}

}  // namespace
}  // namespace dash
