// Concurrency regression tests, designed to FAIL UNDER TSAN when one of
// the fixed races is reintroduced (under a plain build they still check
// functional outcomes, but the racing interleavings are the point):
//
//  * TrafficMetrics is read by a monitoring thread while the protocol
//    thread records traffic — racing before the counters became relaxed
//    atomics (the contract tcp_transport.h documents).
//  * TcpTransport::wire_stats()/metrics() polled while two endpoints
//    exchange frames on their own threads.
//  * ThreadPool shutdown with work still queued, concurrent Schedule
//    from many external threads, and Schedule-from-worker followed by
//    owner Wait — the ThreadPool lifecycle hot spots.
//  * The lock-rank checker (util/lock_rank.h): out-of-order and
//    non-LIFO acquisitions must die in debug builds, and in-order
//    nesting must not.
//  * Cross-class stress: Phase1Cache, SecrecyAudit, JobScheduler +
//    ControlServer::HandleLine, and SessionMux channels hammered from
//    racing threads — every dash::Mutex-annotated class under one TSan
//    run.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/secure_scan.h"
#include "mpc/secrecy.h"
#include "net/network.h"
#include "net/serialization.h"
#include "service/control_server.h"
#include "service/job.h"
#include "service/job_scheduler.h"
#include "service/phase1_cache.h"
#include "transport/cluster_config.h"
#include "transport/session_mux.h"
#include "transport/tcp_transport.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

// ---------------------------------------------------------------------
// TrafficMetrics: protocol thread records, monitoring thread reads.

TEST(ConcurrencyRegressionTest, MetricsMonitorThreadDoesNotRace) {
  InProcessMesh mesh(3);
  Transport* sender = mesh.endpoint(0);
  Transport* receiver = mesh.endpoint(1);
  std::atomic<bool> done{false};

  // Monitoring thread: the read half of the documented contract.
  int64_t last_bytes = 0;
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      const int64_t bytes = sender->metrics().total_bytes();
      EXPECT_GE(bytes, last_bytes);  // counters are monotone until Reset
      last_bytes = bytes;
      (void)sender->metrics().total_messages();
      (void)sender->metrics().rounds();
      (void)sender->metrics().MaxLinkBytes();
      (void)sender->metrics().BytesSentBy(0);
    }
  });

  // Protocol thread (this one): hammer Send/BeginRound.
  for (int round = 0; round < 500; ++round) {
    sender->BeginRound();
    ByteWriter w;
    w.PutU64(static_cast<uint64_t>(round));
    ASSERT_TRUE(sender->Send(0, 1, MessageTag::kPlainStats, w.Take()).ok());
    const auto msg = receiver->Receive(1, 0, MessageTag::kPlainStats);
    ASSERT_TRUE(msg.ok()) << msg.status();
  }
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_EQ(sender->metrics().total_messages(), 500);
  EXPECT_EQ(sender->metrics().rounds(), 500);
}

TEST(ConcurrencyRegressionTest, MetricsResetRacingRecordStaysSane) {
  InProcessMesh mesh(2);
  Transport* sender = mesh.endpoint(0);
  Transport* receiver = mesh.endpoint(1);
  std::atomic<bool> done{false};
  std::thread resetter([&] {
    while (!done.load(std::memory_order_acquire)) {
      sender->metrics().Reset();
    }
  });
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(sender->Send(0, 1, MessageTag::kPlainStats, {1, 2, 3}).ok());
    ASSERT_TRUE(receiver->Receive(1, 0, MessageTag::kPlainStats).ok());
  }
  done.store(true, std::memory_order_release);
  resetter.join();
  // Post-join reads are exact: whatever survived the last Reset.
  EXPECT_GE(sender->metrics().total_messages(), 0);
  EXPECT_LE(sender->metrics().total_messages(), 300);
}

// ---------------------------------------------------------------------
// TcpTransport: wire_stats()/metrics() polled during live traffic.

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
    EXPECT_EQ(
        ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len), 0);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

TEST(ConcurrencyRegressionTest, TcpMonitorThreadDuringTrafficDoesNotRace) {
  const std::vector<uint16_t> ports = FreePorts(2);
  ClusterConfig cluster;
  for (const uint16_t port : ports) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;

  std::unique_ptr<TcpTransport> t0;
  std::unique_ptr<TcpTransport> t1;
  std::thread dial([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  dial.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  t0 = std::move(r0).value();

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      const TcpWireStats stats = t0->wire_stats();
      EXPECT_GE(stats.bytes_sent, 0);
      (void)t0->metrics().total_bytes();
      (void)t0->metrics().MaxLinkBytes();
    }
  });

  std::thread echo([&] {
    for (int i = 0; i < 200; ++i) {
      const auto msg = t1->Receive(1, 0, MessageTag::kPlainStats);
      ASSERT_TRUE(msg.ok()) << msg.status();
      ASSERT_TRUE(t1->Send(1, 0, MessageTag::kAggregate, msg->payload).ok());
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        t0->Send(0, 1, MessageTag::kPlainStats, {1, 2, 3, 4, 5}).ok());
    const auto echoed = t0->Receive(0, 1, MessageTag::kAggregate);
    ASSERT_TRUE(echoed.ok()) << echoed.status();
  }
  echo.join();
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_EQ(t0->metrics().total_messages(), 200);
  const TcpWireStats stats = t0->wire_stats();
  EXPECT_EQ(stats.frames_sent, 200);
  EXPECT_EQ(stats.frames_received, 200);
}

// ---------------------------------------------------------------------
// ThreadPool lifecycle.

TEST(ConcurrencyRegressionTest, PoolDestructionWithQueuedWorkDrainsCleanly) {
  // The destructor must let queued tasks finish (they hold references
  // to `hits`), not race the teardown. Iterate to give TSan
  // interleavings a chance.
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::atomic<int> hits{0};
    {
      ThreadPool pool(4);
      for (int i = 0; i < 32; ++i) {
        pool.Schedule([&hits] { hits.fetch_add(1); });
      }
      // No Wait(): destruction races the queue drain on purpose.
    }
    // Every scheduled task must have run before the destructor returned.
    EXPECT_EQ(hits.load(), 32);
  }
}

TEST(ConcurrencyRegressionTest, PoolDestructorDrainsWorkScheduledMidDrain) {
  // The §14 audit of the shutdown path: the destructor sets shutdown_
  // under the lock and notifies OUTSIDE it. A task that schedules more
  // work while the drain is in progress must still have that second
  // generation run before the destructor returns — WorkerLoop only
  // exits on (shutdown_ && queue empty), and Schedule's NotifyOne
  // after unlock cannot be lost because every waiter re-checks the
  // predicate under mu_.
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::atomic<int> hits{0};
    {
      ThreadPool pool(3);
      for (int i = 0; i < 16; ++i) {
        pool.Schedule([&pool, &hits] {
          hits.fetch_add(1);
          pool.Schedule([&hits] { hits.fetch_add(1); });
        });
      }
      // Destructor races the first generation; second generation is
      // often enqueued after shutdown_ is already set.
    }
    EXPECT_EQ(hits.load(), 32);
  }
}

TEST(ConcurrencyRegressionTest, ConcurrentSchedulersOneOwnerWait) {
  ThreadPool pool(3);
  std::atomic<int> hits{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &hits] {
      for (int i = 0; i < 100; ++i) {
        pool.Schedule([&hits] { hits.fetch_add(1); });
      }
    });
  }
  for (auto& p : producers) p.join();
  pool.Wait();
  EXPECT_EQ(hits.load(), 400);
}

TEST(ConcurrencyRegressionTest, ScheduleFromWorkerThenOwnerWait) {
  ThreadPool pool(3);
  std::atomic<int> hits{0};
  for (int i = 0; i < 20; ++i) {
    pool.Schedule([&pool, &hits] {
      hits.fetch_add(1);
      // Schedule-from-worker only enqueues; the owner's Wait() below
      // must join this second generation too.
      pool.Schedule([&hits] { hits.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(hits.load(), 40);
}

TEST(ConcurrencyRegressionTest, NestedParallelForRunsInlineOnWorkers) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 64, [&pool, &sum](int64_t lo, int64_t hi) {
    // Nested call: must run inline on this worker, not deadlock.
    pool.ParallelFor(lo, hi, [&sum](int64_t a, int64_t b) {
      for (int64_t i = a; i < b; ++i) sum.fetch_add(i);
    });
  });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

// ---------------------------------------------------------------------
// Lock-rank checker (util/lock_rank.h). The runtime checks compile
// away under NDEBUG, so the death tests skip there; the default build
// (-O2 -g, no NDEBUG) and every sanitizer job run them.

TEST(LockRankTest, MutexExposesItsRank) {
  Mutex mu(LockRank::kLeaf);
  EXPECT_EQ(mu.rank(), LockRank::kLeaf);
  EXPECT_STREQ(LockRankName(LockRank::kJobScheduler), "kJobScheduler");
}

TEST(LockRankTest, MonotoneNestingIsTrackedAndAllowed) {
  Mutex outer(LockRank::kJobScheduler);
  Mutex inner(LockRank::kSessionMux);
#ifndef NDEBUG
  EXPECT_EQ(lock_rank_internal::HeldCountForTest(), 0);
#endif
  {
    MutexLock outer_lock(&outer);
#ifndef NDEBUG
    EXPECT_EQ(lock_rank_internal::HeldCountForTest(), 1);
#endif
    {
      // The one legal direction: scheduler (20) outside mux (40).
      MutexLock inner_lock(&inner);
#ifndef NDEBUG
      EXPECT_EQ(lock_rank_internal::HeldCountForTest(), 2);
#endif
    }
  }
#ifndef NDEBUG
  EXPECT_EQ(lock_rank_internal::HeldCountForTest(), 0);
#endif
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionDies) {
#ifdef NDEBUG
  GTEST_SKIP() << "lock-rank checking is compiled out under NDEBUG";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex stats(LockRank::kTransportStats);
  Mutex scheduler(LockRank::kJobScheduler);
  EXPECT_DEATH(
      {
        MutexLock stats_lock(&stats);          // rank 60
        MutexLock scheduler_lock(&scheduler);  // rank 20: order inverted
      },
      "lock-rank violation");
#endif
}

TEST(LockRankDeathTest, EqualRankNestingDies) {
#ifdef NDEBUG
  GTEST_SKIP() << "lock-rank checking is compiled out under NDEBUG";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two kLeaf mutexes may never be held together: the order between
  // equals is undefined, which is exactly how deadlocks are born.
  Mutex a(LockRank::kLeaf);
  Mutex b(LockRank::kLeaf);
  EXPECT_DEATH(
      {
        MutexLock a_lock(&a);
        MutexLock b_lock(&b);
      },
      "lock-rank violation");
#endif
}

TEST(LockRankDeathTest, NonLifoReleaseDies) {
#ifdef NDEBUG
  GTEST_SKIP() << "lock-rank checking is compiled out under NDEBUG";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex outer(LockRank::kJobScheduler);
  Mutex inner(LockRank::kSessionMux);
  EXPECT_DEATH(
      {
        outer.Lock();
        inner.Lock();
        outer.Unlock();  // inner is still held
      },
      "non-LIFO");
#endif
}

// ---------------------------------------------------------------------
// Cross-class stress: every dash::Mutex-annotated class exercised from
// racing threads in one binary, so the TSan job sees them all.

Phase1State StressState(uint64_t fingerprint) {
  Phase1State state;
  state.valid = true;
  state.local_fingerprint = fingerprint;
  state.total_samples = 100;
  return state;
}

TEST(ConcurrencyRegressionTest, StressPhase1CacheConcurrentTakePut) {
  Phase1Cache cache(4);
  std::vector<std::thread> threads;
  threads.reserve(5);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      const std::string key = "cohort" + std::to_string(t % 2);
      for (int i = 0; i < 200; ++i) {
        Phase1State state = cache.Take(key);
        if (!state.valid) state = StressState(static_cast<uint64_t>(i));
        cache.Put(key, std::move(state));
        if (i % 50 == 0) cache.Invalidate(key);
      }
    });
  }
  threads.emplace_back([&cache] {
    for (int i = 0; i < 400; ++i) {
      const Phase1CacheStats stats = cache.stats();
      EXPECT_GE(stats.take_hits + stats.take_misses, 0);
    }
    cache.Clear();
  });
  for (auto& t : threads) t.join();
  const Phase1CacheStats stats = cache.stats();
  EXPECT_EQ(stats.take_hits + stats.take_misses, 4 * 200);
}

TEST(ConcurrencyRegressionTest, StressSecrecyAuditConcurrentRecord) {
  SecrecyAudit::ResetForTest();
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 200; ++i) {
        SecrecyAudit::Record({"stress", "concurrency_regression_test.cc",
                              t * 1000 + (i % 7)});
      }
    });
  }
  threads.emplace_back([] {
    for (int i = 0; i < 200; ++i) {
      (void)SecrecyAudit::Sites();
      (void)SecrecyAudit::count();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(SecrecyAudit::count(), 3 * 200);
  SecrecyAudit::ResetForTest();
}

TEST(ConcurrencyRegressionTest, StressSchedulerAndControlPlaneUnderLoad) {
  // Fake instant scans: the point is racing Submit/Query/Cancel/stats
  // and the control plane's HandleLine against the scheduler's own
  // worker, watchdog, and cache threads.
  SessionFactory factory = [](const JobSpec&) -> Result<ScanSession> {
    ScanSession session;
    session.transport = nullptr;
    session.abort = [](const Status&) {};
    return session;
  };
  ScanFn scan = [](Transport*, const JobSpec&,
                   Phase1State* state) -> Result<SecureScanOutput> {
    state->valid = true;
    state->local_fingerprint = 42;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    SecureScanOutput out;
    out.metrics.rounds = 1;
    return out;
  };
  Phase1Cache cache(8);
  JobSchedulerOptions options;
  options.max_concurrent = 3;
  options.max_queued = 64;
  JobScheduler scheduler(factory, scan, &cache, options);
  ControlServer server(&scheduler, &cache, [] {});

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)scheduler.stats();
      const std::string stats_line = server.HandleLine("STATS");
      EXPECT_EQ(stats_line.rfind("OK", 0), 0u) << stats_line;
      (void)server.HandleLine("PING");
    }
  });

  std::vector<std::thread> submitters;
  submitters.reserve(4);
  std::atomic<int> admitted{0};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&scheduler, &admitted, t] {
      for (int i = 0; i < 12; ++i) {
        JobSpec spec;
        spec.job_id = static_cast<uint32_t>(t * 100 + i + 1);
        spec.cohort_key = "stress" + std::to_string(t % 2);
        if (scheduler.Submit(spec).ok()) {
          admitted.fetch_add(1);
          if (i % 4 == 3) (void)scheduler.Cancel(spec.job_id);
          (void)scheduler.Query(spec.job_id);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();

  // Every admitted job must settle in a terminal state.
  for (int i = 0; i < 5000; ++i) {
    const JobSchedulerStats stats = scheduler.stats();
    if (stats.completed + stats.failed + stats.cancelled ==
        admitted.load()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const JobSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled,
            admitted.load());
  done.store(true, std::memory_order_release);
  monitor.join();
  scheduler.Shutdown();
}

TEST(ConcurrencyRegressionTest, StressSessionMuxChannelsWithStatsPolling) {
  const std::vector<uint16_t> ports = FreePorts(2);
  ClusterConfig cluster;
  for (const uint16_t port : ports) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions options;
  options.connect_timeout_ms = 10000;
  std::unique_ptr<TcpTransport> t0;
  std::unique_ptr<TcpTransport> t1;
  std::thread dial([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  dial.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  t0 = std::move(r0).value();

  SessionMux mux0(t0.get());
  SessionMux mux1(t1.get());

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)mux0.stats();
      (void)mux1.stats();
      (void)t0->wire_stats();
    }
  });

  // Two sessions ping-pong concurrently over the one connection; the
  // pump, the per-session cvs, and the stats mutex all contend.
  std::vector<std::thread> sessions;
  for (const uint32_t session_id : {3u, 8u}) {
    sessions.emplace_back([&mux0, session_id] {
      auto ch = mux0.OpenSession(session_id);
      ASSERT_TRUE(ch.ok()) << ch.status();
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE((*ch)
                        ->Send(0, 1, MessageTag::kPlainStats,
                               {static_cast<uint8_t>(i)})
                        .ok());
        const auto echoed = (*ch)->Receive(0, 1, MessageTag::kAggregate);
        ASSERT_TRUE(echoed.ok()) << echoed.status();
      }
    });
    sessions.emplace_back([&mux1, session_id] {
      auto ch = mux1.OpenSession(session_id);
      ASSERT_TRUE(ch.ok()) << ch.status();
      for (int i = 0; i < 100; ++i) {
        const auto msg = (*ch)->Receive(1, 0, MessageTag::kPlainStats);
        ASSERT_TRUE(msg.ok()) << msg.status();
        ASSERT_TRUE(
            (*ch)->Send(1, 0, MessageTag::kAggregate, msg->payload).ok());
      }
    });
  }
  for (auto& s : sessions) s.join();
  done.store(true, std::memory_order_release);
  monitor.join();
}

}  // namespace
}  // namespace dash
