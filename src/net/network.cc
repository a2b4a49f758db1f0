#include "net/network.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "net/abort.h"
#include "util/check.h"

namespace dash {

// One party's view of the mesh.
class InProcessMesh::Endpoint : public Transport {
 public:
  Endpoint(InProcessMesh* mesh, int num_parties, int party)
      : Transport(num_parties), mesh_(mesh), party_(party) {}

  int local_party() const override { return party_; }

  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override {
    DASH_RETURN_IF_ERROR(CheckSelf(from, to));
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.tag = tag;
    msg.payload = std::move(payload);
    RecordSend(msg);
    return mesh_->Enqueue(std::move(msg));
  }

  Result<Message> Receive(int to, int from, MessageTag expected_tag) override {
    DASH_RETURN_IF_ERROR(CheckSelf(to, from));
    return mesh_->Dequeue(to, from, expected_tag);
  }

  bool HasPending(int to, int from) override {
    return CheckSelf(to, from).ok() && mesh_->Pending(to, from);
  }

 private:
  // This endpoint sends and receives only as its own party, and only
  // over links to other valid parties.
  Status CheckSelf(int self, int peer) const {
    DASH_RETURN_IF_ERROR(ValidateParty(self, "local"));
    DASH_RETURN_IF_ERROR(ValidateParty(peer, "peer"));
    if (self != party_) {
      return InvalidArgumentError("the endpoint of party " +
                                  std::to_string(party_) +
                                  " cannot act as party " +
                                  std::to_string(self));
    }
    if (peer == self) {
      return InvalidArgumentError("party " + std::to_string(self) +
                                  " attempted to message itself");
    }
    return Status::Ok();
  }

  InProcessMesh* mesh_;
  int party_;
};

InProcessMesh::InProcessMesh(int num_parties)
    : queues_(static_cast<size_t>(num_parties) *
              static_cast<size_t>(num_parties)),
      aborts_(static_cast<size_t>(num_parties)),
      waiting_on_(static_cast<size_t>(num_parties), -1),
      departed_(static_cast<size_t>(num_parties), false),
      failed_by_peer_(static_cast<size_t>(num_parties), false),
      desynced_(static_cast<size_t>(num_parties), false) {
  DASH_CHECK_GE(num_parties, 1);
  for (int p = 0; p < num_parties; ++p) {
    endpoints_.push_back(std::make_unique<Endpoint>(this, num_parties, p));
  }
}

InProcessMesh::~InProcessMesh() = default;

Transport* InProcessMesh::endpoint(int party) {
  DASH_CHECK(0 <= party && party < num_parties());
  return endpoints_[static_cast<size_t>(party)].get();
}

Status InProcessMesh::Enqueue(Message msg) {
  {
    MutexLock lock(&mu_);
    const size_t to = static_cast<size_t>(msg.to);
    if (msg.tag == MessageTag::kAbort) {
      // Latched like TcpTransport::ScanForAborts: the first abort wins
      // and is returned ahead of any queued protocol message.
      if (aborts_[to].ok()) {
        aborts_[to] = MakeAbortStatus(DecodeAbortPayload(msg.payload));
      }
    } else {
      queues_[static_cast<size_t>(msg.from) *
                  static_cast<size_t>(num_parties()) +
              to]
          .push_back(std::move(msg));
    }
  }
  cv_.NotifyAll();
  return Status::Ok();
}

Result<Message> InProcessMesh::Dequeue(int to, int from,
                                       MessageTag expected_tag) {
  MutexLock lock(&mu_);
  const size_t self = static_cast<size_t>(to);
  auto& queue = queues_[static_cast<size_t>(from) *
                            static_cast<size_t>(num_parties()) +
                        self];
  while (true) {
    if (desynced_[self]) {
      return FailedPreconditionError(
          "protocol desync: party " + std::to_string(to) + " waits for " +
          MessageTagName(expected_tag) + " from party " +
          std::to_string(from) + " while every live party is blocked");
    }
    if (!aborts_[self].ok()) {
      failed_by_peer_[self] = true;
      return aborts_[self];
    }
    if (!queue.empty()) {
      Message msg = std::move(queue.front());
      queue.pop_front();
      if (msg.tag != expected_tag) {
        return FailedPreconditionError(
            std::string("protocol desync: expected tag ") +
            MessageTagName(expected_tag) + " but received " +
            MessageTagName(msg.tag));
      }
      return msg;
    }
    if (departed_[static_cast<size_t>(from)]) {
      failed_by_peer_[self] = true;
      return UnavailableError("party " + std::to_string(from) +
                              " departed before sending " +
                              MessageTagName(expected_tag) + " to party " +
                              std::to_string(to));
    }
    // Nothing to deliver: block until a peer sends, aborts or departs.
    waiting_on_[self] = from;
    DetectDeadlock();
    if (!desynced_[self]) cv_.Wait(&mu_);
    waiting_on_[self] = -1;
  }
}

bool InProcessMesh::Pending(int to, int from) {
  MutexLock lock(&mu_);
  return !queues_[static_cast<size_t>(from) *
                      static_cast<size_t>(num_parties()) +
                  static_cast<size_t>(to)]
              .empty();
}

bool InProcessMesh::CanProgress(int party) const {
  const size_t self = static_cast<size_t>(party);
  const int from = waiting_on_[self];
  if (from < 0) return true;  // running
  return desynced_[self] || !aborts_[self].ok() ||
         departed_[static_cast<size_t>(from)] ||
         !queues_[static_cast<size_t>(from) *
                      static_cast<size_t>(num_parties()) +
                  self]
              .empty();
}

void InProcessMesh::DetectDeadlock() {
  for (int p = 0; p < num_parties(); ++p) {
    if (!departed_[static_cast<size_t>(p)] && CanProgress(p)) return;
  }
  // Every live party is blocked for good: fail them all.
  for (size_t p = 0; p < desynced_.size(); ++p) {
    if (!departed_[p]) desynced_[p] = true;
  }
  cv_.NotifyAll();
}

void InProcessMesh::Depart(int party) {
  {
    MutexLock lock(&mu_);
    departed_[static_cast<size_t>(party)] = true;
    departure_order_.push_back(party);
    DetectDeadlock();
  }
  cv_.NotifyAll();
}

bool InProcessMesh::FailedByPeer(int party) const {
  MutexLock lock(&mu_);
  return failed_by_peer_[static_cast<size_t>(party)];
}

std::vector<int> InProcessMesh::DepartureOrder() const {
  MutexLock lock(&mu_);
  return departure_order_;
}

Status RunPartiesInProcess(int num_parties,
                           const std::function<Status(Transport*)>& party_fn,
                           MeshTraffic* traffic) {
  InProcessMesh mesh(num_parties);
  std::vector<Status> status(static_cast<size_t>(num_parties));
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_parties));
    for (int p = 0; p < num_parties; ++p) {
      threads.emplace_back([&mesh, &status, &party_fn, p] {
        status[static_cast<size_t>(p)] = party_fn(mesh.endpoint(p));
        mesh.Depart(p);
      });
    }
    for (auto& t : threads) t.join();
  }

  // The cause is the first party to fail on its own account; failures
  // the mesh handed out (a peer's abort or departure) only follow it.
  const std::vector<int> order = mesh.DepartureOrder();
  for (const bool own : {true, false}) {
    for (const int p : order) {
      const Status& s = status[static_cast<size_t>(p)];
      if (!s.ok() && (!own || !mesh.FailedByPeer(p))) return s;
    }
  }

  MeshTraffic sum;
  sum.rounds = mesh.endpoint(0)->metrics().rounds();
  for (int p = 0; p < num_parties; ++p) {
    const TrafficMetrics& m = mesh.endpoint(p)->metrics();
    if (m.rounds() != sum.rounds) {
      return InternalError("party " + std::to_string(p) + " counted " +
                           std::to_string(m.rounds()) +
                           " rounds but party 0 counted " +
                           std::to_string(sum.rounds));
    }
    sum.total_bytes += m.total_bytes();
    sum.total_messages += m.total_messages();
    sum.max_link_bytes = std::max(sum.max_link_bytes, m.MaxLinkBytes());
  }
  if (traffic != nullptr) *traffic = sum;
  return Status::Ok();
}

}  // namespace dash
