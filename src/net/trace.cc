#include "net/trace.h"

#include <map>
#include <sstream>

#include "util/csv.h"

namespace dash {

void ProtocolTrace::Record(int round, int from, int to, MessageTag tag,
                           int64_t wire_bytes) {
  TraceEvent e;
  e.round = round;
  e.from = from;
  e.to = to;
  e.tag = tag;
  e.wire_bytes = wire_bytes;
  MutexLock lock(&mu_);
  e.sequence = static_cast<int64_t>(events_.size());
  events_.push_back(e);
}

void ProtocolTrace::Clear() {
  MutexLock lock(&mu_);
  events_.clear();
}

const std::vector<TraceEvent>& ProtocolTrace::events() const {
  return events_;
}

int64_t ProtocolTrace::CountTag(MessageTag tag) const {
  int64_t count = 0;
  for (const auto& e : events()) count += (e.tag == tag);
  return count;
}

Status ProtocolTrace::WriteCsv(const std::string& path) const {
  CsvTable table({"sequence", "round", "from", "to", "tag", "bytes"});
  for (const auto& e : events()) {
    table.AddRow({std::to_string(e.sequence), std::to_string(e.round),
                  std::to_string(e.from), std::to_string(e.to),
                  MessageTagName(e.tag), std::to_string(e.wire_bytes)});
  }
  return table.WriteFile(path);
}

std::string ProtocolTrace::Summary() const {
  // (round, tag) -> (count, bytes); std::map keeps deterministic order.
  std::map<std::pair<int, uint32_t>, std::pair<int64_t, int64_t>> buckets;
  for (const auto& e : events()) {
    auto& bucket = buckets[{e.round, static_cast<uint32_t>(e.tag)}];
    bucket.first += 1;
    bucket.second += e.wire_bytes;
  }
  std::ostringstream os;
  for (const auto& [key, value] : buckets) {
    os << "round " << key.first << ": " << value.first << "x "
       << MessageTagName(static_cast<MessageTag>(key.second)) << " ("
       << value.second << " B)\n";
  }
  return os.str();
}

}  // namespace dash
