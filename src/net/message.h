// Protocol message: a tagged byte payload between two parties.
//
// Tags disambiguate protocol phases so a mis-sequenced protocol fails
// loudly (Receive checks the expected tag) instead of silently
// misinterpreting bytes.

#ifndef DASH_NET_MESSAGE_H_
#define DASH_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dash {

// Wire-visible message tags used by the protocols in this library.
enum class MessageTag : uint32_t {
  kRFactor = 1,          // a party's K x K local R factor
  kPlainStats = 2,       // plaintext sufficient-statistic contribution
  kAdditiveShare = 3,    // one additive share of a secret vector
  kMaskedValue = 5,      // a sealed chunk in a secure sum's reduce round
  kPublicKey = 7,        // Diffie-Hellman public value
  kAggregate = 8,        // aggregated result broadcast
  kTreeR = 9,            // tree-TSQR intermediate R factor
  kSampleCount = 10,     // a party's public per-party sample count N_p
  kCommit = 11,          // result-checksum cross-check (commit round)
  kAbort = 12,           // abort notification {origin, round, Status}
  kPhase1Probe = 13,     // Phase-1 cache agreement bit (u32 0/1, public)
  kTotalChunk = 14,      // one owner's opened chunk of a secure-sum total
};

struct Message {
  int from = -1;
  int to = -1;
  // Logical session the message belongs to; 0 is the sessionless
  // default stream (every pre-session protocol run). Carried in the
  // frame header's former reserved halfword, so it costs no wire bytes
  // and does not change WireSize().
  uint32_t session = 0;
  MessageTag tag = MessageTag::kPlainStats;
  std::vector<uint8_t> payload;

  // Bytes a real wire would carry: payload plus a fixed 16-byte header
  // (from, to, tag, length).
  size_t WireSize() const { return payload.size() + kHeaderBytes; }

  static constexpr size_t kHeaderBytes = 16;
};

// Human-readable tag name for diagnostics.
const char* MessageTagName(MessageTag tag);

}  // namespace dash

#endif  // DASH_NET_MESSAGE_H_
