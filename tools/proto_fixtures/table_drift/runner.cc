// dash-proto-fixture-as: src/fake/runner.cc
// Self-contained: local stand-ins for the macros and the transport so
// the clang engine can parse this file without the real headers.
#define DASH_ROUND(key, tag) static_assert(true, "round")

enum class MessageTag { kPing = 1, kPong = 2, kDone = 3 };

struct Status {
  bool ok;
};
struct Net {
  Status Send(int to, MessageTag tag, int payload);
  Status Receive(int from, MessageTag tag);
  Status Broadcast(MessageTag tag, int payload);
};

Status RunProtocol(Net* net) {
  DASH_ROUND(ping_round, kPing);
  Status s1 = net->Broadcast(MessageTag::kPing, 1);
  DASH_ROUND(ping_round, kPing);
  Status r1 = net->Receive(0, MessageTag::kPing);
  DASH_ROUND(done_round, kDone);
  Status s2 = net->Send(0, MessageTag::kDone, 2);
  DASH_ROUND(done_round, kDone);
  Status r2 = net->Receive(0, MessageTag::kDone);
  return r2;
}
