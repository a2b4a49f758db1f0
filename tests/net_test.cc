#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "net/abort.h"
#include "net/message.h"
#include "net/network.h"
#include "net/serialization.h"

namespace dash {
namespace {

TEST(SerializationTest, ScalarRoundTrips) {
  ByteWriter w;
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutDouble(3.25);
  const auto bytes = w.Take();
  EXPECT_EQ(bytes.size(), 4u + 8u + 8u + 8u);

  ByteReader r(bytes);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializationTest, VectorsRoundTrip) {
  ByteWriter w;
  w.PutU64Vector({1, 2, 3});
  w.PutDoubleVector({-1.5, 2.5});
  const auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_EQ(r.GetU64Vector().value(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.GetDoubleVector().value(), (Vector{-1.5, 2.5}));
}

TEST(SerializationTest, MatrixRoundTrips) {
  const Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  ByteWriter w;
  w.PutMatrix(m);
  const auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_TRUE(r.GetMatrix().value() == m);
}

TEST(SerializationTest, SpecialDoublesSurvive) {
  ByteWriter w;
  w.PutDouble(-0.0);
  w.PutDouble(std::numeric_limits<double>::infinity());
  w.PutDouble(std::numeric_limits<double>::denorm_min());
  const auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_EQ(std::signbit(r.GetDouble().value()), true);
  EXPECT_TRUE(std::isinf(r.GetDouble().value()));
  EXPECT_DOUBLE_EQ(r.GetDouble().value(),
                   std::numeric_limits<double>::denorm_min());
}

TEST(SerializationTest, TruncationIsAnError) {
  ByteWriter w;
  w.PutU64(7);
  auto bytes = w.Take();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_EQ(r.GetU64().status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, TruncatedVectorIsAnError) {
  ByteWriter w;
  w.PutU64(1000);  // claims 1000 elements, provides none
  const auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_FALSE(r.GetU64Vector().ok());
  ByteWriter w2;
  w2.PutI64(1 << 20);
  w2.PutI64(1 << 20);  // absurd matrix shape
  const auto bytes2 = w2.Take();
  ByteReader r2(bytes2);
  EXPECT_FALSE(r2.GetMatrix().ok());
}

TEST(MeshTest, SendReceiveFifoOrder) {
  InProcessMesh mesh(3);
  Transport* a = mesh.endpoint(0);
  Transport* b = mesh.endpoint(1);
  EXPECT_EQ(a->local_party(), 0);
  EXPECT_EQ(b->local_party(), 1);
  ASSERT_TRUE(a->Send(0, 1, MessageTag::kPlainStats, {1}).ok());
  ASSERT_TRUE(a->Send(0, 1, MessageTag::kPlainStats, {2}).ok());
  const Message first = b->Receive(1, 0, MessageTag::kPlainStats).value();
  const Message second = b->Receive(1, 0, MessageTag::kPlainStats).value();
  EXPECT_EQ(first.payload[0], 1);
  EXPECT_EQ(second.payload[0], 2);
  EXPECT_EQ(first.from, 0);
  EXPECT_EQ(first.to, 1);
}

TEST(MeshTest, ReceiveFromDepartedPeerIsUnavailable) {
  InProcessMesh mesh(2);
  mesh.Depart(1);
  EXPECT_EQ(mesh.endpoint(0)->Receive(0, 1, MessageTag::kPlainStats)
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(mesh.FailedByPeer(0));
}

TEST(MeshTest, QueuedMessagesOutliveTheirSender) {
  InProcessMesh mesh(2);
  ASSERT_TRUE(mesh.endpoint(1)->Send(1, 0, MessageTag::kCommit, {7}).ok());
  mesh.Depart(1);
  EXPECT_EQ(
      mesh.endpoint(0)->Receive(0, 1, MessageTag::kCommit).value().payload[0],
      7);
}

TEST(MeshTest, QueuedAbortIsReturnedFirst) {
  InProcessMesh mesh(3);
  ASSERT_TRUE(mesh.endpoint(0)->Send(0, 1, MessageTag::kPlainStats, {1}).ok());
  AbortInfo info;
  info.origin = 2;
  info.round = 4;
  info.code = StatusCode::kDataLoss;
  info.message = "corrupt frame";
  ASSERT_TRUE(mesh.endpoint(2)
                  ->Send(2, 1, MessageTag::kAbort, EncodeAbortPayload(info))
                  .ok());
  const auto r = mesh.endpoint(1)->Receive(1, 0, MessageTag::kPlainStats);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(IsAbortStatus(r.status())) << r.status();
  EXPECT_TRUE(mesh.FailedByPeer(1));
}

TEST(MeshTest, TagMismatchIsProtocolDesync) {
  InProcessMesh mesh(2);
  ASSERT_TRUE(mesh.endpoint(0)->Send(0, 1, MessageTag::kRFactor, {}).ok());
  const auto r = mesh.endpoint(1)->Receive(1, 0, MessageTag::kPlainStats);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MeshTest, InvalidEndpointsRejected) {
  InProcessMesh mesh(2);
  Transport* a = mesh.endpoint(0);
  EXPECT_FALSE(a->Send(0, 0, MessageTag::kPlainStats, {}).ok());
  EXPECT_FALSE(a->Send(0, 5, MessageTag::kPlainStats, {}).ok());
  EXPECT_FALSE(a->Send(-1, 0, MessageTag::kPlainStats, {}).ok());
  EXPECT_FALSE(a->Send(1, 0, MessageTag::kPlainStats, {}).ok());  // foreign
  EXPECT_FALSE(a->Receive(9, 0, MessageTag::kPlainStats).ok());
  EXPECT_FALSE(a->Receive(0, 9, MessageTag::kPlainStats).ok());
}

TEST(MeshTest, BroadcastReachesEveryoneElse) {
  InProcessMesh mesh(4);
  ASSERT_TRUE(mesh.endpoint(2)->Broadcast(2, MessageTag::kAggregate, {9}).ok());
  for (int to = 0; to < 4; ++to) {
    Transport* t = mesh.endpoint(to);
    if (to == 2) continue;
    ASSERT_TRUE(t->HasPending(to, 2));
    EXPECT_EQ(t->Receive(to, 2, MessageTag::kAggregate).value().payload[0], 9);
  }
}

TEST(MeshTest, MetricsCountWireBytesPerSender) {
  InProcessMesh mesh(3);
  Transport* a = mesh.endpoint(0);
  Transport* b = mesh.endpoint(1);
  const std::vector<uint8_t> payload(100, 0);
  ASSERT_TRUE(a->Send(0, 1, MessageTag::kPlainStats, payload).ok());
  const int64_t per_msg = 100 + static_cast<int64_t>(Message::kHeaderBytes);
  EXPECT_EQ(a->metrics().total_bytes(), per_msg);
  EXPECT_EQ(a->metrics().total_messages(), 1);
  EXPECT_EQ(a->metrics().LinkBytes(0, 1), per_msg);
  EXPECT_EQ(b->metrics().total_bytes(), 0);  // receivers count nothing

  ASSERT_TRUE(b->Broadcast(1, MessageTag::kPlainStats, payload).ok());
  EXPECT_EQ(b->metrics().total_messages(), 2);
  EXPECT_EQ(b->metrics().BytesSentBy(1), 2 * per_msg);
  EXPECT_EQ(b->metrics().MaxLinkBytes(), per_msg);

  a->BeginRound();
  EXPECT_EQ(a->metrics().rounds(), 1);
  a->metrics().Reset();
  EXPECT_EQ(a->metrics().total_bytes(), 0);
  EXPECT_EQ(a->metrics().rounds(), 0);
}

TEST(MeshTest, CostModelCombinesRoundsAndBytes) {
  InProcessMesh mesh(2);
  Transport* a = mesh.endpoint(0);
  ASSERT_TRUE(a->Send(0, 1, MessageTag::kPlainStats,
                      std::vector<uint8_t>(84, 0)).ok());  // 100 wire bytes
  a->BeginRound();
  a->BeginRound();
  LinkCostModel model;
  model.latency_seconds = 0.05;
  model.bandwidth_bytes_per_second = 1000.0;
  EXPECT_NEAR(model.EstimateSeconds(a->metrics()), 2 * 0.05 + 0.1, 1e-12);
}

TEST(RunPartiesInProcessTest, SumsTrafficOverParties) {
  MeshTraffic traffic;
  const Status status = RunPartiesInProcess(
      3,
      [](Transport* t) -> Status {
        const int self = t->local_party();
        t->BeginRound();
        DASH_RETURN_IF_ERROR(t->Broadcast(
            self, MessageTag::kCommit,
            std::vector<uint8_t>(static_cast<size_t>(self), 0)));
        for (int q = 0; q < 3; ++q) {
          if (q != self) {
            DASH_RETURN_IF_ERROR(
                t->Receive(self, q, MessageTag::kCommit).status());
          }
        }
        return Status::Ok();
      },
      &traffic);
  ASSERT_TRUE(status.ok()) << status;
  const int64_t header = static_cast<int64_t>(Message::kHeaderBytes);
  EXPECT_EQ(traffic.total_messages, 6);
  EXPECT_EQ(traffic.total_bytes, 6 * header + 2 * (0 + 1 + 2));
  EXPECT_EQ(traffic.max_link_bytes, header + 2);
  EXPECT_EQ(traffic.rounds, 1);
}

TEST(RunPartiesInProcessTest, ReturnsTheCauseNotItsEcho) {
  // Party 1 fails on its own; party 0, blocked on it, only sees it
  // depart. The run reports party 1's error.
  const Status status = RunPartiesInProcess(2, [](Transport* t) -> Status {
    if (t->local_party() == 1) return InvalidArgumentError("bad input");
    return t->Receive(0, 1, MessageTag::kSampleCount).status();
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(RunPartiesInProcessTest, DeadlockFailsEveryPartyWithDesync) {
  std::vector<Status> seen(3);
  const Status status = RunPartiesInProcess(3, [&](Transport* t) {
    const int self = t->local_party();
    // Everyone waits for its successor, nobody sends.
    seen[static_cast<size_t>(self)] =
        t->Receive(self, (self + 1) % 3, MessageTag::kRFactor).status();
    return seen[static_cast<size_t>(self)];
  });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  for (const Status& s : seen) {
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  }
}

TEST(RunPartiesInProcessTest, PartiesMustAgreeOnRounds) {
  const Status status = RunPartiesInProcess(2, [](Transport* t) {
    for (int r = 0; r <= t->local_party(); ++r) t->BeginRound();
    return Status::Ok();
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

TEST(MessageTest, TagNamesAreStable) {
  EXPECT_STREQ(MessageTagName(MessageTag::kRFactor), "RFactor");
  EXPECT_STREQ(MessageTagName(MessageTag::kMaskedValue), "MaskedValue");
}

}  // namespace
}  // namespace dash
