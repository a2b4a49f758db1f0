#include "transport/fault_transport.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/random.h"

namespace dash {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kDisconnect:
      return "disconnect";
  }
  return "unknown";
}

std::string FaultRule::ToString() const {
  std::string out = FaultKindName(kind);
  out += " round=" + std::to_string(round);
  out += " link=" + std::to_string(from) + "->" + std::to_string(to);
  out += " nth=" + std::to_string(nth);
  if (kind == FaultKind::kDelay) {
    out += " delay_ms=" + std::to_string(delay_ms);
  }
  if (kind == FaultKind::kCorrupt) {
    out += " xor=0x" + std::to_string(static_cast<int>(corrupt_xor));
  }
  return out;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultRule& rule : rules) {
    out += rule.ToString();
    out += "\n";
  }
  return out;
}

FaultPlan FaultPlan::Random(uint64_t seed, const SweepOptions& options) {
  DASH_CHECK_GE(options.num_parties, 2);
  Rng rng(seed);
  FaultPlan plan;
  const int num_rules =
      options.min_rules +
      static_cast<int>(rng.UniformInt(static_cast<uint64_t>(
          options.max_rules - options.min_rules + 1)));
  for (int i = 0; i < num_rules; ++i) {
    FaultRule rule;
    rule.kind = static_cast<FaultKind>(rng.UniformInt(6));
    rule.round =
        1 + static_cast<int>(rng.UniformInt(
                static_cast<uint64_t>(options.max_rounds)));
    rule.from = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(options.num_parties)));
    rule.to = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(options.num_parties - 1)));
    if (rule.to >= rule.from) ++rule.to;
    rule.nth = 0;
    rule.delay_ms = 50 + static_cast<int>(rng.UniformInt(1200));
    rule.corrupt_xor = static_cast<uint8_t>(1 + rng.UniformInt(255));
    plan.rules.push_back(rule);
  }
  return plan;
}

FaultInjectingTransport::FaultInjectingTransport(Transport* inner,
                                                 FaultPlan plan)
    : Transport(inner->num_parties()),
      inner_(inner),
      plan_(std::move(plan)),
      dead_pairs_(static_cast<size_t>(inner->num_parties()) *
                      static_cast<size_t>(inner->num_parties()),
                  false) {}

const FaultRule* FaultInjectingTransport::Match(int round, int from, int to,
                                                int nth) const {
  for (const FaultRule& rule : plan_.rules) {
    if (rule.round != -1 && rule.round != round) continue;
    if (rule.from != -1 && rule.from != from) continue;
    if (rule.to != -1 && rule.to != to) continue;
    if (rule.nth != -1 && rule.nth != nth) continue;
    return &rule;
  }
  return nullptr;
}

bool FaultInjectingTransport::LinkDead(int a, int b) const {
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  return dead_pairs_[static_cast<size_t>(lo) *
                         static_cast<size_t>(num_parties()) +
                     static_cast<size_t>(hi)];
}

void FaultInjectingTransport::KillLink(int a, int b) {
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  dead_pairs_[static_cast<size_t>(lo) * static_cast<size_t>(num_parties()) +
              static_cast<size_t>(hi)] = true;
}

Status FaultInjectingTransport::DeadLinkError(int from, int to) const {
  return UnavailableError("fault injection: link " + std::to_string(from) +
                          "<->" + std::to_string(to) +
                          " is disconnected (round " + std::to_string(round_) +
                          ")");
}

void FaultInjectingTransport::BeginRound() {
  ++round_;
  Transport::BeginRound();
  inner_->BeginRound();
}

// Every message actually handed to the inner backend is mirrored into
// this transport's own metrics/trace, so a driver that reads accounting
// off the decorator (the usual case — it was handed the decorator, not
// the inner transport) sees the same numbers the inner backend counts.
// Dropped messages are mirrored nowhere: they never existed on the wire.
Status FaultInjectingTransport::ForwardSend(int from, int to, MessageTag tag,
                                            std::vector<uint8_t> payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.tag = tag;
  msg.payload = std::move(payload);
  RecordSend(msg);
  return inner_->Send(from, to, tag, std::move(msg.payload));
}

Status FaultInjectingTransport::Send(int from, int to, MessageTag tag,
                                     std::vector<uint8_t> payload) {
  DASH_RETURN_IF_ERROR(ValidateParty(from, "sender"));
  DASH_RETURN_IF_ERROR(ValidateParty(to, "receiver"));
  if (LinkDead(from, to)) return DeadLinkError(from, to);

  const int link = from * num_parties() + to;
  const int nth = send_counts_[{round_, from, to}]++;
  const FaultRule* rule = Match(round_, from, to, nth);

  Status sent = Status::Ok();
  if (rule == nullptr) {
    sent = ForwardSend(from, to, tag, std::move(payload));
  } else {
    switch (rule->kind) {
      case FaultKind::kDrop:
        // Swallowed: the sender proceeds believing the message left.
        break;
      case FaultKind::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(rule->delay_ms));
        sent = ForwardSend(from, to, tag, std::move(payload));
        break;
      case FaultKind::kDuplicate: {
        std::vector<uint8_t> copy = payload;
        sent = ForwardSend(from, to, tag, std::move(payload));
        if (sent.ok()) sent = ForwardSend(from, to, tag, std::move(copy));
        break;
      }
      case FaultKind::kReorder:
        if (held_.find(link) == held_.end()) {
          Message held;
          held.from = from;
          held.to = to;
          held.tag = tag;
          held.payload = std::move(payload);
          held_[link] = std::move(held);
          return Status::Ok();
        }
        // A message is already held on this link; fall through to a
        // plain send so the swap below still happens.
        sent = ForwardSend(from, to, tag, std::move(payload));
        break;
      case FaultKind::kCorrupt:
        if (!payload.empty()) {
          payload[payload.size() / 2] ^= rule->corrupt_xor;
        }
        sent = ForwardSend(from, to, tag, std::move(payload));
        break;
      case FaultKind::kDisconnect:
        KillLink(from, to);
        return DeadLinkError(from, to);
    }
  }
  DASH_RETURN_IF_ERROR(sent);

  // Release a held (reordered) message AFTER this one — the swap. (A
  // send that was itself just held returned early above.)
  auto held = held_.find(link);
  if (held != held_.end()) {
    Message msg = std::move(held->second);
    held_.erase(held);
    DASH_RETURN_IF_ERROR(
        ForwardSend(msg.from, msg.to, msg.tag, std::move(msg.payload)));
  }
  return Status::Ok();
}

Result<Message> FaultInjectingTransport::Receive(int to, int from,
                                                 MessageTag expected_tag) {
  DASH_RETURN_IF_ERROR(ValidateParty(to, "receiver"));
  DASH_RETURN_IF_ERROR(ValidateParty(from, "sender"));
  if (LinkDead(from, to)) return DeadLinkError(from, to);

  // The receive counter replays the sender's schedule: the protocol is
  // deterministic, so the n-th receive attempt on a link within a round
  // corresponds to the n-th send on it.
  const int nth = recv_counts_[{round_, from, to}]++;
  const FaultRule* rule = Match(round_, from, to, nth);
  if (rule == nullptr) return inner_->Receive(to, from, expected_tag);

  switch (rule->kind) {
    case FaultKind::kDrop:
      return DeadlineExceededError(
          "fault injection: " + std::string(MessageTagName(expected_tag)) +
          " " + std::to_string(from) + "->" + std::to_string(to) +
          " dropped in round " + std::to_string(round_) +
          "; receive timed out");
    case FaultKind::kDelay:
    case FaultKind::kReorder:
      // The inner backend's own timeout/tag checks surface these.
      return inner_->Receive(to, from, expected_tag);
    case FaultKind::kDuplicate: {
      DASH_ASSIGN_OR_RETURN(Message msg,
                            inner_->Receive(to, from, expected_tag));
      // Consume the duplicate copy so the stream stays aligned.
      DASH_RETURN_IF_ERROR(inner_->Receive(to, from, expected_tag).status());
      return msg;
    }
    case FaultKind::kCorrupt: {
      // Consume the mangled frame, then report what a CRC check would.
      DASH_RETURN_IF_ERROR(inner_->Receive(to, from, expected_tag).status());
      return DataLossError(
          "fault injection: frame CRC mismatch on " +
          std::string(MessageTagName(expected_tag)) + " " +
          std::to_string(from) + "->" + std::to_string(to) + " (round " +
          std::to_string(round_) + ")");
    }
    case FaultKind::kDisconnect:
      KillLink(from, to);
      return DeadLinkError(from, to);
  }
  return InternalError("unknown fault kind");
}

bool FaultInjectingTransport::HasPending(int to, int from) {
  if (to < 0 || from < 0 || to >= num_parties() || from >= num_parties() ||
      LinkDead(from, to)) {
    return false;
  }
  return inner_->HasPending(to, from);
}

}  // namespace dash
