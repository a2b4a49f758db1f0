#include "timed_transport.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.h"

namespace perfbench {

const char* const kRoundKeys[kNumRoundKeys] = {
    "phase1_probe",     "phase0_samplecount", "phase1_rfactor",
    "phase0b_keyagree", "phase2_masked",      "phase4_commit",
};

int RoundIndexOfTag(dash::MessageTag tag) {
  switch (tag) {
    case dash::MessageTag::kPhase1Probe:
      return 0;
    case dash::MessageTag::kSampleCount:
      return 1;
    case dash::MessageTag::kRFactor:
      return 2;
    case dash::MessageTag::kPublicKey:
      return 3;
    case dash::MessageTag::kMaskedValue:
      return 4;
    case dash::MessageTag::kCommit:
      return 5;
    default:
      return -1;
  }
}

void SpanSink::Add(std::vector<Span> spans) {
  dash::MutexLock lock(&mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void SpanSink::AddWindow(const OpWindow& window) {
  dash::MutexLock lock(&mu_);
  windows_.push_back(window);
}

std::vector<Span> SpanSink::spans() const {
  dash::MutexLock lock(&mu_);
  return spans_;
}

std::vector<OpWindow> SpanSink::windows() const {
  dash::MutexLock lock(&mu_);
  return windows_;
}

TimedTransport::TimedTransport(dash::Transport* inner)
    : Transport(inner->num_parties()), inner_(inner) {}

TimedTransport::TimedTransport(std::unique_ptr<dash::Transport> inner)
    : Transport(inner->num_parties()),
      owned_(std::move(inner)),
      inner_(owned_.get()) {}

dash::Status TimedTransport::Send(int from, int to, dash::MessageTag tag,
                                  std::vector<uint8_t> payload) {
  const int64_t start = NowNs();
  dash::Message msg;
  msg.from = from;
  msg.to = to;
  msg.session = inner_->session_id();
  msg.tag = tag;
  msg.payload = std::move(payload);
  const auto bytes = static_cast<int64_t>(msg.WireSize());
  // Mirrors the inner backend's sender-side accounting (recorded before
  // forwarding, exactly as FaultInjectingTransport does).
  RecordSend(msg);
  const dash::Status status =
      inner_->Send(from, to, tag, std::move(msg.payload));
  spans_.push_back(
      {op_, local_party(), RoundIndexOfTag(tag), false, to, start, NowNs(), bytes});
  return status;
}

dash::Result<dash::Message> TimedTransport::Receive(
    int to, int from, dash::MessageTag expected_tag) {
  const int64_t start = NowNs();
  dash::Result<dash::Message> msg = inner_->Receive(to, from, expected_tag);
  const int64_t bytes =
      msg.ok() ? static_cast<int64_t>(msg.value().WireSize()) : 0;
  spans_.push_back({op_, local_party(), RoundIndexOfTag(expected_tag), true,
                    from, start, NowNs(), bytes});
  return msg;
}

bool TimedTransport::HasPending(int to, int from) {
  return inner_->HasPending(to, from);
}

void TimedTransport::BeginRound() {
  Transport::BeginRound();
  inner_->BeginRound();
}

void TimedTransport::FlushTo(SpanSink* sink) {
  sink->Add(std::move(spans_));
  spans_.clear();
}

dash::Status WriteTraceEvents(const std::string& path,
                              const std::vector<Span>& spans,
                              const std::vector<OpWindow>& windows,
                              const std::string& window_name) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return dash::IoError("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  int max_party = -1;
  for (const OpWindow& w : windows) max_party = std::max(max_party, w.party);
  for (const Span& s : spans) max_party = std::max(max_party, s.party);
  for (int p = 0; p <= max_party; ++p) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"args\":{\"name\":\"party %d\"}}",
                 p, p);
  }
  for (const OpWindow& w : windows) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":%d,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                 window_name.c_str(), w.party, w.op,
                 static_cast<double>(w.start_ns) / 1e3,
                 static_cast<double>(w.end_ns - w.start_ns) / 1e3);
  }
  for (const Span& s : spans) {
    sep();
    const char* key = s.round >= 0 ? kRoundKeys[s.round] : "other";
    std::fprintf(f,
                 "{\"name\":\"%s.%s\",\"cat\":\"round\",\"ph\":\"X\","
                 "\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"peer\":%d,\"bytes\":%lld}}",
                 key, s.receive ? "recv" : "send", s.party, s.op,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.peer,
                 static_cast<long long>(s.bytes));
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return dash::IoError("cannot close " + path);
  return dash::Status::Ok();
}

}  // namespace perfbench
