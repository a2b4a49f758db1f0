// In-process mesh of P party-bound transports — the simulator backend.
//
// The simulator runs the same per-party protocol code a deployment runs
// over TCP: RunPartiesInProcess starts one thread per party, hands each
// its own endpoint of a fresh InProcessMesh, and joins them. Every
// endpoint is a Transport bound to one party (local_party() is that
// party), so the per-party runner, the per-party secure sum and the
// per-party R-combine are the only protocol implementations there are.
//
// Mesh semantics (what the endpoints promise the protocol code):
//
//  * Delivery is FIFO per directed link, and Receive blocks until the
//    message it asked for is there. The mesh adds no timeout and no
//    sleep.
//  * A party whose function has returned has departed. A Receive from a
//    departed party on an empty queue fails at once with Unavailable,
//    as a closed TCP link does.
//  * A queued kAbort from any peer is returned ahead of any protocol
//    message, as that peer's MakeAbortStatus (net/abort.h), just as
//    TcpTransport latches aborts; so every party reports the
//    originator's code.
//  * If every live party is blocked with nothing to deliver, the run is
//    deadlocked and all of them fail with FailedPrecondition ("protocol
//    desync"), the code every backend uses for a tag mismatch.
//
// Accounting is per endpoint, as on every backend: each endpoint counts
// the messages its party sends, so the sum over endpoints is the whole
// run's traffic.
//
// A LinkCostModel converts counted traffic into modeled wall-clock time
// for WAN settings (benches only; it never affects protocol results).

#ifndef DASH_NET_NETWORK_H_
#define DASH_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/message.h"
#include "transport/transport.h"
#include "util/mutex.h"
#include "util/status.h"

namespace dash {

// Latency/bandwidth cost model: time = rounds * latency + bytes/bandwidth.
struct LinkCostModel {
  double latency_seconds = 0.0;
  double bandwidth_bytes_per_second = 1.0;

  double EstimateSeconds(const TrafficMetrics& m) const {
    return m.rounds() * latency_seconds +
           static_cast<double>(m.total_bytes()) / bandwidth_bytes_per_second;
  }
};

class InProcessMesh {
 public:
  // A mesh among parties 0..num_parties-1. Requires num_parties >= 1.
  explicit InProcessMesh(int num_parties);
  ~InProcessMesh();

  InProcessMesh(const InProcessMesh&) = delete;
  InProcessMesh& operator=(const InProcessMesh&) = delete;

  int num_parties() const { return static_cast<int>(endpoints_.size()); }

  // Party `party`'s endpoint, owned by the mesh. Each endpoint is used
  // by one thread at a time, like every Transport.
  Transport* endpoint(int party);

  // Marks `party` departed (its function returned) and wakes its peers.
  void Depart(int party);

  // True if the mesh itself failed one of `party`'s receives with a
  // peer's abort or departure: that party's failure is a consequence of
  // another party's, not a cause.
  bool FailedByPeer(int party) const;

  // The parties in the order they departed.
  std::vector<int> DepartureOrder() const;

 private:
  class Endpoint;

  Status Enqueue(Message msg);
  Result<Message> Dequeue(int to, int from, MessageTag expected_tag);
  bool Pending(int to, int from);
  bool CanProgress(int party) const DASH_REQUIRES(mu_);
  void DetectDeadlock() DASH_REQUIRES(mu_);

  std::vector<std::unique_ptr<Endpoint>> endpoints_;

  mutable Mutex mu_{LockRank::kInProcessMesh};
  CondVar cv_;
  // queues_[from * P + to]
  std::vector<std::deque<Message>> queues_ DASH_GUARDED_BY(mu_);
  // First abort addressed to each party (Ok = none).
  std::vector<Status> aborts_ DASH_GUARDED_BY(mu_);
  // The sender each blocked party waits for, or -1 while it runs.
  std::vector<int> waiting_on_ DASH_GUARDED_BY(mu_);
  std::vector<bool> departed_ DASH_GUARDED_BY(mu_);
  std::vector<bool> failed_by_peer_ DASH_GUARDED_BY(mu_);
  std::vector<int> departure_order_ DASH_GUARDED_BY(mu_);
  // Parties failed by a deadlock; their receives report the desync.
  std::vector<bool> desynced_ DASH_GUARDED_BY(mu_);
};

// Traffic of one in-process run, summed over the parties' endpoints.
struct MeshTraffic {
  int64_t total_bytes = 0;
  int64_t total_messages = 0;
  int64_t max_link_bytes = 0;  // the busiest directed link
  int rounds = 0;              // identical at every party
};

// Runs `party_fn` once per party, each on its own thread with that
// party's endpoint of a fresh InProcessMesh, and joins them all.
// Returns Ok when every party succeeded, else the failure that started
// the run's collapse: the first party to depart with an error of its
// own, not a peer's later abort or departure. On success, fills
// `traffic` (if non-null) and checks that every party counted the same
// number of rounds.
Status RunPartiesInProcess(int num_parties,
                           const std::function<Status(Transport*)>& party_fn,
                           MeshTraffic* traffic = nullptr);

}  // namespace dash

#endif  // DASH_NET_NETWORK_H_
