#include "net/message.h"

namespace dash {

const char* MessageTagName(MessageTag tag) {
  switch (tag) {
    case MessageTag::kRFactor:
      return "RFactor";
    case MessageTag::kPlainStats:
      return "PlainStats";
    case MessageTag::kAdditiveShare:
      return "AdditiveShare";
    case MessageTag::kMaskedValue:
      return "MaskedValue";
    case MessageTag::kPublicKey:
      return "PublicKey";
    case MessageTag::kAggregate:
      return "Aggregate";
    case MessageTag::kTreeR:
      return "TreeR";
    case MessageTag::kSampleCount:
      return "SampleCount";
    case MessageTag::kCommit:
      return "Commit";
    case MessageTag::kAbort:
      return "Abort";
    case MessageTag::kPhase1Probe:
      return "Phase1Probe";
    case MessageTag::kTotalChunk:
      return "TotalChunk";
  }
  return "Unknown";
}

}  // namespace dash
