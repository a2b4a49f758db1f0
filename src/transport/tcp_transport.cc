#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "net/abort.h"
#include "transport/frame.h"
#include "util/check.h"
#include "util/random.h"

namespace dash {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return IoError(std::string("fcntl(O_NONBLOCK): ") + strerror(errno));
  }
  return Status::Ok();
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

// Writes the whole buffer, polling for writability, until deadline_ms.
Status WriteAll(int fd, const uint8_t* data, size_t size,
                int64_t deadline_ms, const std::string& what) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n =
        ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR) {
      return IoError(what + ": send failed: " + strerror(errno));
    }
    const int64_t remaining = deadline_ms - NowMs();
    if (remaining <= 0) {
      return DeadlineExceededError(what + ": send timed out");
    }
    struct pollfd pfd = {fd, POLLOUT, 0};
    ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(remaining, 100)));
  }
  return Status::Ok();
}

// Reads exactly `size` bytes, polling for readability, until deadline_ms.
Status ReadExactly(int fd, uint8_t* data, size_t size, int64_t deadline_ms,
                   const std::string& what) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::recv(fd, data + off, size - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return IoError(what + ": connection closed by peer");
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return IoError(what + ": recv failed: " + strerror(errno));
    }
    const int64_t remaining = deadline_ms - NowMs();
    if (remaining <= 0) {
      return DeadlineExceededError(what + ": recv timed out");
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(remaining, 100)));
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeHelloFrame(int from, int to, int num_parties) {
  std::vector<uint8_t> payload;
  for (const uint32_t v :
       {static_cast<uint32_t>(from), static_cast<uint32_t>(num_parties)}) {
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  FrameHeader header;
  header.tag = kFrameHelloTag;
  header.from = from;
  header.to = to;
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.crc32 = Crc32(payload.data(), payload.size());
  std::vector<uint8_t> out;
  EncodeFrameHeader(header, &out);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

constexpr size_t kHelloFrameBytes = kFrameHeaderBytes + 8;

}  // namespace

Result<std::unique_ptr<TcpTransport>> TcpTransport::Connect(
    const ClusterConfig& cluster, int local_party,
    const TcpTransportOptions& options) {
  if (cluster.num_parties() < 1) {
    return InvalidArgumentError("cluster config names no parties");
  }
  if (local_party < 0 || local_party >= cluster.num_parties()) {
    return InvalidArgumentError(
        "local party " + std::to_string(local_party) +
        " out of range [0, " + std::to_string(cluster.num_parties()) + ")");
  }
  std::unique_ptr<TcpTransport> transport(
      new TcpTransport(cluster, local_party, options));
  DASH_RETURN_IF_ERROR(transport->EstablishMesh());
  return transport;
}

TcpTransport::TcpTransport(const ClusterConfig& cluster, int local_party,
                           const TcpTransportOptions& options)
    : Transport(cluster.num_parties()),
      cluster_(cluster),
      local_party_(local_party),
      options_(options),
      peers_(static_cast<size_t>(cluster.num_parties())) {}

TcpTransport::~TcpTransport() { CloseAll(); }

void TcpTransport::CloseAll() {
  CloseFd(&listen_fd_);
  CloseFd(&doorbell_fd_);
  for (auto& peer : peers_) CloseFd(&peer.fd);
}

Status TcpTransport::EstablishMesh() {
  doorbell_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (doorbell_fd_ < 0) {
    return IoError(std::string("eventfd: ") + strerror(errno));
  }
  if (num_parties() == 1) return Status::Ok();
  const int64_t deadline = NowMs() + options_.connect_timeout_ms;

  // Open our own listener FIRST so peers dialing us succeed no matter
  // which process woke up earliest; the kernel backlog holds their
  // connections while we dial lower-numbered parties ourselves.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return IoError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port =
      htons(cluster_.endpoints[static_cast<size_t>(local_party_)].port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return IoError("party " + std::to_string(local_party_) +
                   " cannot bind port " +
                   std::to_string(
                       cluster_.endpoints[static_cast<size_t>(local_party_)]
                           .port) +
                   ": " + strerror(errno));
  }
  if (::listen(listen_fd_, num_parties() + 8) < 0) {
    return IoError(std::string("listen: ") + strerror(errno));
  }
  DASH_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  // Dial every lower-numbered party; accept everyone above us.
  for (int peer = 0; peer < local_party_; ++peer) {
    DASH_RETURN_IF_ERROR(DialPeer(peer, deadline));
  }
  DASH_RETURN_IF_ERROR(AcceptPeers(deadline));
  return Status::Ok();
}

Status TcpTransport::DialPeer(int peer, int64_t deadline_ms) {
  const PartyEndpoint& ep = cluster_.endpoints[static_cast<size_t>(peer)];
  const std::string what = "party " + std::to_string(local_party_) +
                           " dialing party " + std::to_string(peer) + " (" +
                           ep.host + ":" + std::to_string(ep.port) + ")";
  Rng jitter(static_cast<uint64_t>(NowMs()) ^
             (static_cast<uint64_t>(local_party_) * 0x9E3779B97F4A7C15ull));
  int64_t backoff = options_.backoff_initial_ms;

  while (true) {
    if (NowMs() >= deadline_ms) {
      return DeadlineExceededError(what + ": no listener within " +
                                   std::to_string(options_.connect_timeout_ms) +
                                   " ms");
    }

    struct addrinfo hints;
    memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* info = nullptr;
    const int rc = ::getaddrinfo(ep.host.c_str(),
                                 std::to_string(ep.port).c_str(), &hints,
                                 &info);
    if (rc != 0 || info == nullptr) {
      return IoError(what + ": getaddrinfo: " + gai_strerror(rc));
    }

    int fd = ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    bool connected = false;
    if (fd >= 0 && SetNonBlocking(fd).ok()) {
      if (::connect(fd, info->ai_addr, info->ai_addrlen) == 0) {
        connected = true;
      } else if (errno == EINPROGRESS) {
        const int64_t remaining = deadline_ms - NowMs();
        struct pollfd pfd = {fd, POLLOUT, 0};
        if (::poll(&pfd, 1,
                   static_cast<int>(std::clamp<int64_t>(remaining, 0,
                                                        1000))) > 0) {
          int err = 0;
          socklen_t len = sizeof(err);
          getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
          connected = (err == 0);
        }
      }
    }
    ::freeaddrinfo(info);

    if (connected) {
      SetNoDelay(fd);
      // Introduce ourselves, then require the peer's hello back; a peer
      // that dies mid-handshake surfaces as EOF here and we fall through
      // to the retry path, which is exactly how a restarted party is
      // re-admitted.
      const std::vector<uint8_t> hello =
          EncodeHelloFrame(local_party_, peer, num_parties());
      Status handshake =
          WriteAll(fd, hello.data(), hello.size(), deadline_ms, what);
      int hello_party = -1;
      if (handshake.ok()) {
        handshake = FinishHandshake(fd, peer, deadline_ms, &hello_party);
      }
      if (handshake.ok()) {
        peers_[static_cast<size_t>(peer)].fd = fd;
        return Status::Ok();
      }
      CloseFd(&fd);
      if (handshake.code() == StatusCode::kDeadlineExceeded) {
        return handshake;
      }
      // else: broken handshake — back off and redial.
    } else {
      CloseFd(&fd);
    }

    const int64_t sleep_ms = std::min<int64_t>(
        backoff / 2 + static_cast<int64_t>(jitter.UniformInt(
                          static_cast<uint64_t>(backoff / 2 + 1))),
        std::max<int64_t>(deadline_ms - NowMs(), 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff = std::min<int64_t>(backoff * 2, options_.backoff_max_ms);
  }
}

Status TcpTransport::AcceptPeers(int64_t deadline_ms) {
  int missing = 0;
  for (int peer = local_party_ + 1; peer < num_parties(); ++peer) ++missing;

  while (missing > 0) {
    const int64_t remaining = deadline_ms - NowMs();
    if (remaining <= 0) {
      std::string absent;
      for (int peer = local_party_ + 1; peer < num_parties(); ++peer) {
        if (peers_[static_cast<size_t>(peer)].fd < 0) {
          if (!absent.empty()) absent += ", ";
          absent += std::to_string(peer);
        }
      }
      return DeadlineExceededError(
          "party " + std::to_string(local_party_) + " timed out after " +
          std::to_string(options_.connect_timeout_ms) +
          " ms waiting for part" + (missing > 1 ? "ies " : "y ") + absent +
          " to connect");
    }
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1,
               static_cast<int>(std::min<int64_t>(remaining, 100))) <= 0) {
      continue;
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (!SetNonBlocking(fd).ok()) {
      CloseFd(&fd);
      continue;
    }
    SetNoDelay(fd);

    // The dialer speaks first; a connection that dies before its hello
    // (e.g. a party killed mid-handshake) is simply discarded and the
    // slot stays open for its restart.
    int hello_party = -1;
    if (!FinishHandshake(fd, -1, deadline_ms, &hello_party).ok()) {
      CloseFd(&fd);
      continue;
    }
    if (hello_party <= local_party_ || hello_party >= num_parties()) {
      CloseFd(&fd);
      continue;
    }
    const std::vector<uint8_t> reply =
        EncodeHelloFrame(local_party_, hello_party, num_parties());
    if (!WriteAll(fd, reply.data(), reply.size(), deadline_ms, "hello reply")
             .ok()) {
      CloseFd(&fd);
      continue;
    }
    Peer& slot = peers_[static_cast<size_t>(hello_party)];
    if (slot.fd >= 0) {
      // A fresh connection from a party we already hold supersedes the
      // stale one (the old process is gone).
      CloseFd(&slot.fd);
    } else {
      --missing;
    }
    slot.fd = fd;
  }
  return Status::Ok();
}

Status TcpTransport::FinishHandshake(int fd, int expected_peer,
                                     int64_t deadline_ms, int* hello_party) {
  uint8_t buf[kHelloFrameBytes];
  DASH_RETURN_IF_ERROR(
      ReadExactly(fd, buf, sizeof(buf), deadline_ms, "hello"));
  DASH_ASSIGN_OR_RETURN(FrameHeader header,
                        DecodeFrameHeader(buf, kFrameHeaderBytes));
  if (header.tag != kFrameHelloTag || header.payload_len != 8) {
    return IoError("expected a hello frame, got tag " +
                   std::to_string(header.tag));
  }
  std::vector<uint8_t> payload(buf + kFrameHeaderBytes,
                               buf + kHelloFrameBytes);
  DASH_RETURN_IF_ERROR(CheckFramePayload(header, payload));
  uint32_t party = 0;
  uint32_t parties = 0;
  for (int i = 0; i < 4; ++i) {
    party |= static_cast<uint32_t>(payload[static_cast<size_t>(i)]) << (8 * i);
    parties |= static_cast<uint32_t>(payload[static_cast<size_t>(4 + i)])
               << (8 * i);
  }
  if (parties != static_cast<uint32_t>(num_parties())) {
    return IoError("peer believes the cluster has " + std::to_string(parties) +
                   " parties, this config has " +
                   std::to_string(num_parties()));
  }
  if (expected_peer >= 0 && party != static_cast<uint32_t>(expected_peer)) {
    return IoError("dialed party " + std::to_string(expected_peer) +
                   " but party " + std::to_string(party) + " answered");
  }
  *hello_party = static_cast<int>(party);
  return Status::Ok();
}

Status TcpTransport::Send(int from, int to, MessageTag tag,
                          std::vector<uint8_t> payload) {
  return SendOnSession(0, from, to, tag, std::move(payload));
}

Status TcpTransport::SendOnSession(uint32_t session, int from, int to,
                                   MessageTag tag,
                                   std::vector<uint8_t> payload) {
  if (session > kFrameMaxSessionId) {
    return InvalidArgumentError("session id " + std::to_string(session) +
                                " exceeds the u16 frame field");
  }
  if (from != local_party_) {
    return InvalidArgumentError(
        "TCP endpoint for party " + std::to_string(local_party_) +
        " cannot send as party " + std::to_string(from));
  }
  DASH_RETURN_IF_ERROR(ValidateParty(to, "receiver"));
  if (to == local_party_) {
    return InvalidArgumentError("party " + std::to_string(from) +
                                " attempted to send a message to itself");
  }
  if (payload.size() > kFrameMaxPayloadBytes) {
    return InvalidArgumentError("payload of " +
                                std::to_string(payload.size()) +
                                " bytes exceeds the frame bound");
  }
  Peer& peer = peers_[static_cast<size_t>(to)];
  if (peer.closed || peer.fd < 0) {
    if (!peer.fail.ok()) return PreferAbort(peer.fail);
    return PreferAbort(UnavailableError("connection to party " +
                                        std::to_string(to) + " is closed"));
  }

  Message msg;
  msg.from = from;
  msg.to = to;
  msg.session = session;
  msg.tag = tag;
  msg.payload = std::move(payload);
  const std::vector<uint8_t> frame = EncodeFrame(msg);

  // Write with inbound draining: if the peer's kernel buffer (and ours)
  // is full because every party is mid-broadcast, pulling our inbound
  // frames unblocks the mesh.
  const int64_t deadline = NowMs() + options_.receive_timeout_ms;
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(peer.fd, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      peer.closed = true;
      peer.fail = UnavailableError("peer " + std::to_string(to) +
                                   " disconnected (send: " + strerror(errno) +
                                   ")");
      return PreferAbort(peer.fail);
    }
    if (NowMs() >= deadline) {
      return PreferAbort(DeadlineExceededError(
          "send to party " + std::to_string(to) + " timed out after " +
          std::to_string(options_.receive_timeout_ms) + " ms"));
    }
    DASH_RETURN_IF_ERROR(Pump(10));
  }

  RecordWireSend(msg, frame.size());
  return Status::Ok();
}

Result<Message> TcpTransport::Receive(int to, int from,
                                      MessageTag expected_tag) {
  if (to != local_party_) {
    return InvalidArgumentError(
        "TCP endpoint for party " + std::to_string(local_party_) +
        " cannot receive as party " + std::to_string(to));
  }
  DASH_RETURN_IF_ERROR(ValidateParty(from, "sender"));
  if (from == local_party_) {
    return InvalidArgumentError("party cannot receive from itself");
  }
  Peer& peer = peers_[static_cast<size_t>(from)];
  const int64_t deadline = NowMs() + options_.receive_timeout_ms;
  while (peer.inbox.empty()) {
    // A latched peer abort beats waiting out our own timeout: it names
    // the originator's code, so every survivor reports the same one.
    if (!abort_status_.ok()) return abort_status_;
    if (peer.closed) {
      if (!peer.fail.ok()) return PreferAbort(peer.fail);
      return PreferAbort(UnavailableError(
          "peer " + std::to_string(from) + " disconnected before the " +
          "expected " + MessageTagName(expected_tag) + " arrived"));
    }
    const int64_t remaining = deadline - NowMs();
    if (remaining <= 0) {
      return DeadlineExceededError(
          "party " + std::to_string(local_party_) + " timed out after " +
          std::to_string(options_.receive_timeout_ms) + " ms waiting for " +
          MessageTagName(expected_tag) + " from party " +
          std::to_string(from));
    }
    DASH_RETURN_IF_ERROR(
        Pump(static_cast<int>(std::min<int64_t>(remaining, 100))));
    ScanForAborts();
  }
  Message msg = std::move(peer.inbox.front());
  peer.inbox.pop_front();
  if (msg.session != 0) {
    // The peer is multiplexing sessions over this link but this side is
    // reading the sessionless stream — a deployment mismatch (or a
    // hostile session id), not a recoverable ordering issue.
    return FailedPreconditionError(
        "protocol desync: session " + std::to_string(msg.session) +
        " frame (tag " + MessageTagName(msg.tag) +
        ") on the sessionless receive path");
  }
  if (msg.tag != expected_tag) {
    return FailedPreconditionError(
        std::string("protocol desync: expected tag ") +
        MessageTagName(expected_tag) + " but received " +
        MessageTagName(msg.tag));
  }
  return msg;
}

Result<Message> TcpTransport::TryReceiveAny(int to, int from) {
  if (to != local_party_) {
    return InvalidArgumentError(
        "TCP endpoint for party " + std::to_string(local_party_) +
        " cannot receive as party " + std::to_string(to));
  }
  DASH_RETURN_IF_ERROR(ValidateParty(from, "sender"));
  if (from == local_party_) {
    return InvalidArgumentError("party cannot receive from itself");
  }
  Peer& peer = peers_[static_cast<size_t>(from)];
  if (peer.inbox.empty()) {
    const Status pump = Pump(0);
    (void)pump;
  }
  if (peer.inbox.empty()) {
    // Link health is reported by LinkStatus, not here: the intake's only
    // question is "is a message deliverable right now".
    return NotFoundError("no message pending from party " +
                         std::to_string(from));
  }
  Message msg = std::move(peer.inbox.front());
  peer.inbox.pop_front();
  return msg;
}

Status TcpTransport::PumpWait(int timeout_ms) {
  // A frame an earlier Pump(0) parsed is deliverable now, and its bytes
  // have already left the socket, so poll would sleep on it.
  for (const Peer& peer : peers_) {
    if (!peer.inbox.empty()) return Status::Ok();
  }
  return Pump(timeout_ms, /*doorbell=*/true);
}

void TcpTransport::WakePumpWait() {
  const uint64_t one = 1;
  // EAGAIN means the counter is saturated: the doorbell is rung anyway.
  const ssize_t n = ::write(doorbell_fd_, &one, sizeof(one));
  (void)n;
}

Status TcpTransport::LinkStatus(int peer_id) {
  DASH_RETURN_IF_ERROR(ValidateParty(peer_id, "peer"));
  if (peer_id == local_party_) return Status::Ok();
  Peer& peer = peers_[static_cast<size_t>(peer_id)];
  if (!peer.fail.ok()) return peer.fail;
  if (peer.closed || peer.fd < 0) {
    return UnavailableError("connection to party " + std::to_string(peer_id) +
                            " is closed");
  }
  return Status::Ok();
}

bool TcpTransport::HasPending(int to, int from) {
  if (to != local_party_ || from < 0 || from >= num_parties() ||
      from == local_party_) {
    return false;
  }
  const Status pump = Pump(0);
  (void)pump;
  return !peers_[static_cast<size_t>(from)].inbox.empty();
}

Status TcpTransport::Pump(int timeout_ms, bool doorbell) {
  std::vector<struct pollfd> pfds;
  std::vector<int> parties;
  for (int p = 0; p < num_parties(); ++p) {
    Peer& peer = peers_[static_cast<size_t>(p)];
    if (peer.fd >= 0 && !peer.closed) {
      pfds.push_back({peer.fd, POLLIN, 0});
      parties.push_back(p);
    }
  }
  // With no link open, the doorbell alone is waited on: no spin.
  if (doorbell) pfds.push_back({doorbell_fd_, POLLIN, 0});
  if (pfds.empty()) return Status::Ok();
  const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (ready <= 0) return Status::Ok();
  for (size_t i = 0; i < parties.size(); ++i) {
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      ReadAvailable(parties[i]);
    }
  }
  if (doorbell && (pfds.back().revents & POLLIN)) {
    uint64_t rings = 0;
    const ssize_t n = ::read(doorbell_fd_, &rings, sizeof(rings));
    (void)n;
  }
  return Status::Ok();
}

void TcpTransport::ReadAvailable(int party) {
  Peer& peer = peers_[static_cast<size_t>(party)];
  uint8_t buf[64 * 1024];
  int64_t received = 0;
  bool dead = false;
  std::string recv_error;
  while (true) {
    const ssize_t n = ::recv(peer.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      peer.rx.insert(peer.rx.end(), buf, buf + n);
      received += n;
      continue;
    }
    if (n == 0) {
      dead = true;  // clean EOF
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    dead = true;  // hard error, e.g. ECONNRESET
    recv_error = strerror(errno);
    break;
  }
  if (received > 0) {
    MutexLock lock(&stats_mutex_);
    wire_stats_.bytes_received += received;
  }
  // Parse whatever arrived BEFORE the failure so complete frames ahead
  // of an EOF are still delivered.
  const Status parsed = ParseFrames(party);
  if (!parsed.ok()) {
    peer.closed = true;
    if (peer.fail.ok()) peer.fail = parsed;
  }
  if (dead) {
    peer.closed = true;
    if (peer.fail.ok()) {
      // A reset and a clean FIN are the same protocol event — the link
      // died — so both get the mid-frame diagnosis when a partial
      // frame is left behind; only the parenthetical differs.
      const size_t partial = peer.rx.size() - peer.rx_consumed;
      std::string what = "peer " + std::to_string(party) + " disconnected";
      if (!recv_error.empty()) what += " (recv: " + recv_error + ")";
      if (partial > 0) {
        what += " mid-frame (" + std::to_string(partial) +
                " bytes of a partial frame discarded)";
      }
      peer.fail = UnavailableError(std::move(what));
    }
  }
}

Status TcpTransport::ParseFrames(int party) {
  Peer& peer = peers_[static_cast<size_t>(party)];
  while (peer.rx.size() - peer.rx_consumed >= kFrameHeaderBytes) {
    const uint8_t* head = peer.rx.data() + peer.rx_consumed;
    DASH_ASSIGN_OR_RETURN(FrameHeader header,
                          DecodeFrameHeader(head, kFrameHeaderBytes));
    const size_t frame_bytes = kFrameHeaderBytes + header.payload_len;
    if (peer.rx.size() - peer.rx_consumed < frame_bytes) break;
    std::vector<uint8_t> payload(head + kFrameHeaderBytes,
                                 head + frame_bytes);
    peer.rx_consumed += frame_bytes;
    DASH_RETURN_IF_ERROR(CheckFramePayload(header, payload));
    if (header.tag == kFrameHelloTag || header.from != party ||
        header.to != local_party_) {
      return DataLossError("party " + std::to_string(party) +
                           " sent a malformed frame (tag " +
                           std::to_string(header.tag) + ", from " +
                           std::to_string(header.from) + ", to " +
                           std::to_string(header.to) + ")");
    }
    Message msg;
    msg.from = header.from;
    msg.to = header.to;
    msg.session = header.session;
    msg.tag = static_cast<MessageTag>(header.tag);
    msg.payload = std::move(payload);
    peer.inbox.push_back(std::move(msg));
    MutexLock lock(&stats_mutex_);
    wire_stats_.frames_received += 1;
  }
  if (peer.rx_consumed == peer.rx.size()) {
    peer.rx.clear();
    peer.rx_consumed = 0;
  } else if (peer.rx_consumed > (1u << 20)) {
    peer.rx.erase(peer.rx.begin(),
                  peer.rx.begin() + static_cast<ptrdiff_t>(peer.rx_consumed));
    peer.rx_consumed = 0;
  }
  return Status::Ok();
}

Status TcpTransport::PreferAbort(Status local) {
  // recv still yields bytes the peer wrote before closing, even after a
  // send on the same socket failed — so the abort that explains this
  // failure is usually one drain away.
  for (int p = 0; p < num_parties(); ++p) {
    if (p == local_party_) continue;
    if (peers_[static_cast<size_t>(p)].fd >= 0) ReadAvailable(p);
  }
  ScanForAborts();
  if (!abort_status_.ok()) return abort_status_;
  return local;
}

void TcpTransport::ScanForAborts() {
  if (!abort_status_.ok()) return;
  for (auto& peer : peers_) {
    for (auto it = peer.inbox.begin(); it != peer.inbox.end(); ++it) {
      // Only sessionless aborts latch transport-wide: an abort inside a
      // multiplexed session concerns that session alone and is routed
      // (and scoped) by the SessionMux via TryReceiveAny.
      if (it->tag != MessageTag::kAbort || it->session != 0) continue;
      const AbortInfo info = DecodeAbortPayload(it->payload);
      peer.inbox.erase(it);
      abort_status_ = MakeAbortStatus(info);
      return;
    }
  }
}

void TcpTransport::RecordWireSend(const Message& msg, size_t frame_bytes) {
  MutexLock lock(&stats_mutex_);
  RecordSend(msg);
  wire_stats_.bytes_sent += static_cast<int64_t>(frame_bytes);
  wire_stats_.frames_sent += 1;
}

TcpWireStats TcpTransport::wire_stats() const {
  MutexLock lock(&stats_mutex_);
  return wire_stats_;
}

}  // namespace dash
