// Protocol transcript recording.

#include "net/trace.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/secure_scan.h"
#include "data/workloads.h"
#include "mesh_sum_util.h"
#include "mpc/secure_sum.h"
#include "net/network.h"
#include "util/csv.h"

namespace dash {
namespace {

TEST(ProtocolTraceTest, RecordsMessageMetadata) {
  InProcessMesh mesh(3);
  Transport* a = mesh.endpoint(0);
  Transport* b = mesh.endpoint(1);
  ProtocolTrace trace;
  a->AttachTrace(&trace);
  b->AttachTrace(&trace);
  a->BeginRound();
  ASSERT_TRUE(a->Send(0, 1, MessageTag::kRFactor, {1, 2, 3}).ok());
  b->BeginRound();
  b->BeginRound();
  ASSERT_TRUE(b->Broadcast(1, MessageTag::kMaskedValue, {9}).ok());

  ASSERT_EQ(trace.size(), 3);
  const TraceEvent& first = trace.events()[0];
  EXPECT_EQ(first.sequence, 0);
  EXPECT_EQ(first.round, 1);
  EXPECT_EQ(first.from, 0);
  EXPECT_EQ(first.to, 1);
  EXPECT_EQ(first.tag, MessageTag::kRFactor);
  EXPECT_EQ(first.wire_bytes,
            3 + static_cast<int64_t>(Message::kHeaderBytes));
  EXPECT_EQ(trace.events()[1].round, 2);
  EXPECT_EQ(trace.CountTag(MessageTag::kMaskedValue), 2);
  EXPECT_EQ(trace.CountTag(MessageTag::kAdditiveShare), 0);
}

TEST(ProtocolTraceTest, DetachAndClear) {
  InProcessMesh mesh(2);
  Transport* a = mesh.endpoint(0);
  ProtocolTrace trace;
  a->AttachTrace(&trace);
  ASSERT_TRUE(a->Send(0, 1, MessageTag::kPlainStats, {}).ok());
  a->AttachTrace(nullptr);
  ASSERT_TRUE(a->Send(0, 1, MessageTag::kPlainStats, {}).ok());
  EXPECT_EQ(trace.size(), 1);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0);
}

TEST(ProtocolTraceTest, CapturesWholeSecureSumTranscript) {
  // One trace shared by three concurrently sending parties.
  ProtocolTrace trace;
  SecureSumOptions opts;
  opts.mode = AggregationMode::kAdditive;
  MeshTraffic traffic;
  ASSERT_TRUE(MeshSecureSum({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}}, opts,
                            &traffic, &trace)
                  .ok());
  // Additive: 6 share messages + 6 partial chunks to their owners (the
  // reduce round masked mode runs too) + 6 opened chunks gathered.
  EXPECT_EQ(trace.CountTag(MessageTag::kAdditiveShare), 6);
  EXPECT_EQ(trace.CountTag(MessageTag::kMaskedValue), 6);
  EXPECT_EQ(trace.CountTag(MessageTag::kTotalChunk), 6);
  EXPECT_EQ(trace.size(), 18);
  // Transcript totals agree with the endpoints' own accounting, and the
  // sequence numbers are one global order.
  int64_t traced_bytes = 0;
  for (int64_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.events()[static_cast<size_t>(i)].sequence, i);
    traced_bytes += trace.events()[static_cast<size_t>(i)].wire_bytes;
  }
  EXPECT_EQ(traced_bytes, traffic.total_bytes);

  const std::string summary = trace.Summary();
  EXPECT_NE(summary.find("AdditiveShare"), std::string::npos);
  EXPECT_NE(summary.find("MaskedValue"), std::string::npos);
}

TEST(ProtocolTraceTest, WritesParsableCsv) {
  InProcessMesh mesh(2);
  ProtocolTrace trace;
  mesh.endpoint(0)->AttachTrace(&trace);
  ASSERT_TRUE(
      mesh.endpoint(0)->Send(0, 1, MessageTag::kMaskedValue, {1, 2}).ok());
  const std::string path = testing::TempDir() + "/trace.csv";
  ASSERT_TRUE(trace.WriteCsv(path).ok());
  const CsvTable table = CsvTable::ReadFile(path).value();
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.rows()[0][4], "MaskedValue");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dash
