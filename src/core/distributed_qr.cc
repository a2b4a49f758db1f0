#include "core/distributed_qr.h"

#include <string>
#include <utility>
#include <vector>

#include "linalg/qr.h"
#include "linalg/tsqr.h"
#include "net/round_annotations.h"
#include "net/serialization.h"

namespace dash {
namespace {

// A peer's factor as read off the wire; it must match our own shape.
Result<Matrix> ReadPeerFactor(const Message& msg, const Matrix& own_r) {
  ByteReader r(msg.payload);
  DASH_ASSIGN_OR_RETURN(Matrix peer, r.GetMatrix());
  if (peer.rows() != own_r.rows() || peer.cols() != own_r.cols()) {
    return FailedPreconditionError(
        "protocol desync: party " + std::to_string(msg.from) + " sent a " +
        std::to_string(peer.rows()) + "x" + std::to_string(peer.cols()) +
        " R factor, expected " + std::to_string(own_r.rows()) + "x" +
        std::to_string(own_r.cols()));
  }
  return peer;
}

// Broadcast-stack mode: every party broadcasts its factor and factors
// the identical stack.
Result<Matrix> CombineBroadcastStack(Transport* net, const Matrix& own_r) {
  const int p = net->num_parties();
  const int local = net->local_party();
  net->BeginRound();
  ByteWriter w;
  w.PutMatrix(own_r);
  DASH_ROUND(phase1_rfactor, kRFactor);
  DASH_RETURN_IF_ERROR(net->Broadcast(local, MessageTag::kRFactor, w.Take()));
  std::vector<Matrix> stack(static_cast<size_t>(p));
  stack[static_cast<size_t>(local)] = own_r;
  for (int q = 0; q < p; ++q) {
    if (q == local) continue;
    DASH_ROUND(phase1_rfactor, kRFactor);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net->Receive(local, q, MessageTag::kRFactor));
    DASH_ASSIGN_OR_RETURN(stack[static_cast<size_t>(q)],
                          ReadPeerFactor(msg, own_r));
  }
  return CombineRFactors(stack);
}

// Binary-tree mode: the merge schedule is a deterministic function of
// (P, stride), so each party replays the full activity pattern locally
// and only performs its own sends and receives. Party 0 ends with the
// pooled R and broadcasts it.
Result<Matrix> CombineBinaryTree(Transport* net, const Matrix& own_r) {
  const int p = net->num_parties();
  const int local = net->local_party();
  Matrix current = own_r;
  std::vector<bool> active(static_cast<size_t>(p), true);
  for (int stride = 1; stride < p; stride *= 2) {
    net->BeginRound();
    if (active[static_cast<size_t>(local)] && (local / stride) % 2 == 1 &&
        local - stride >= 0) {
      ByteWriter w;
      w.PutMatrix(current);
      DASH_ROUND(phase1_tree_merge, kTreeR);
      DASH_RETURN_IF_ERROR(
          net->Send(local, local - stride, MessageTag::kTreeR, w.Take()));
    } else if (active[static_cast<size_t>(local)] && local + stride < p &&
               active[static_cast<size_t>(local + stride)]) {
      DASH_ROUND(phase1_tree_merge, kTreeR);
      DASH_ASSIGN_OR_RETURN(
          Message msg, net->Receive(local, local + stride, MessageTag::kTreeR));
      DASH_ASSIGN_OR_RETURN(Matrix peer, ReadPeerFactor(msg, own_r));
      DASH_ASSIGN_OR_RETURN(current, QrRFactor(VStack({current, peer})));
    }
    // Replay the round's deactivations for every party.
    for (int i = 0; i < p; ++i) {
      if (active[static_cast<size_t>(i)] && (i / stride) % 2 == 1 &&
          i - stride >= 0) {
        active[static_cast<size_t>(i)] = false;
      }
    }
  }
  net->BeginRound();
  if (local == 0) {
    ByteWriter w;
    w.PutMatrix(current);
    DASH_ROUND(phase1_tree_root, kRFactor);
    DASH_RETURN_IF_ERROR(net->Broadcast(0, MessageTag::kRFactor, w.Take()));
    return current;
  }
  DASH_ROUND(phase1_tree_root, kRFactor);
  DASH_ASSIGN_OR_RETURN(Message msg,
                        net->Receive(local, 0, MessageTag::kRFactor));
  return ReadPeerFactor(msg, own_r);
}

}  // namespace

const char* RCombineModeName(RCombineMode mode) {
  switch (mode) {
    case RCombineMode::kBroadcastStack:
      return "broadcast-stack";
    case RCombineMode::kBinaryTree:
      return "binary-tree";
  }
  return "unknown";
}

Result<DistributedQrResult> CombineRFactorsOverNetwork(Transport* transport,
                                                       const Matrix& own_r,
                                                       RCombineMode mode) {
  if (own_r.rows() != own_r.cols()) {
    return InvalidArgumentError("the R factor must be K x K");
  }
  DistributedQrResult out;
  if (transport->num_parties() == 1) {
    out.r = own_r;
  } else if (mode == RCombineMode::kBroadcastStack) {
    DASH_ASSIGN_OR_RETURN(out.r, CombineBroadcastStack(transport, own_r));
  } else {
    DASH_ASSIGN_OR_RETURN(out.r, CombineBinaryTree(transport, own_r));
  }
  DASH_ASSIGN_OR_RETURN(out.r_inverse, InvertUpperTriangular(out.r));
  return out;
}

}  // namespace dash
