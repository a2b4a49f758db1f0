// dash-proto-fixture-as: src/fake/runner.cc
// Two PC004 violations: RunProtocol hard-exits inside a round-bearing
// function, and the declared entry point RunEntry skips the abort
// wrapper.
#define DASH_ROUND(key, tag) static_assert(true, "round")

void exit(int code);

enum class MessageTag { kPing = 1, kPong = 2, kStop = 4 };

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
  if (!r1.ok) exit(1);
  return r1;
}

Status RunWithAbort(Net* net) {
  Status s = RunProtocol(net);
  if (!s.ok) {
    DASH_ROUND(abort_round, kStop);
    Status notify = net->Send(0, MessageTag::kStop, 0);
  }
  return s;
}

Status RunEntry(Net* net) {
  return RunProtocol(net);
}
