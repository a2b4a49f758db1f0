// Wire framing for the TCP transport.
//
// Every message travels as one frame: a fixed 24-byte header followed by
// the payload. All header fields are little-endian:
//
//   offset  size  field
//        0     4  magic        0x48534144 ("DASH" as bytes on the wire)
//        4     2  version      kFrameVersion (1)
//        6     2  session      logical session id (0 = the default,
//                              sessionless protocol stream)
//        8     4  tag          MessageTag as u32; 0 = transport hello
//       12     2  from         sender party id
//       14     2  to           receiver party id
//       16     4  payload_len  bytes following the header
//       20     4  crc32        CRC-32 (IEEE 802.3) of the payload
//
// The magic/version pair rejects cross-version or stray-port connections
// at the first read instead of desynchronizing mid-protocol; the CRC
// turns silent corruption into a loud IoError. Tag value 0 is reserved
// for the connection-establishment hello (it is not a MessageTag), so a
// protocol message can never be mistaken for a handshake.
//
// The session field occupies what used to be the always-zero reserved
// halfword, so the layout (offsets, header size, version) is unchanged:
// a frame from a pre-session build simply carries session 0, and every
// sessionless stream this build emits is byte-identical to what the
// previous version put on the wire. Demultiplexing by session id lives
// entirely above the framing layer (transport/session_mux.h), so a
// future event-loop transport can reuse the format as is.

#ifndef DASH_TRANSPORT_FRAME_H_
#define DASH_TRANSPORT_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/status.h"

namespace dash {

inline constexpr uint32_t kFrameMagic = 0x48534144u;  // "DASH"
inline constexpr uint16_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;
// Raw tag value reserved for the connection hello; never a MessageTag.
inline constexpr uint32_t kFrameHelloTag = 0;
// Corruption guard: no protocol message comes close to this.
inline constexpr uint32_t kFrameMaxPayloadBytes = 1u << 30;
// The session id travels as a u16 (the former reserved halfword);
// session 0 is the sessionless default stream.
inline constexpr uint32_t kFrameMaxSessionId = 0xFFFFu;

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed
// slice-by-8: eight table lookups per 8 payload bytes, then a byte tail.
uint32_t Crc32(const uint8_t* data, size_t size);

struct FrameHeader {
  uint32_t session = 0;  // logical session id; 0 = sessionless stream
  uint32_t tag = 0;      // raw; kFrameHelloTag or a MessageTag value
  int from = -1;
  int to = -1;
  uint32_t payload_len = 0;
  uint32_t crc32 = 0;
};

// Serializes a header; `out` receives exactly kFrameHeaderBytes.
void EncodeFrameHeader(const FrameHeader& header, std::vector<uint8_t>* out);

// Frames a protocol message (header + payload) ready for the wire.
std::vector<uint8_t> EncodeFrame(const Message& msg);

// Parses and validates the fixed header (magic, version, payload bound).
// `data` must hold at least kFrameHeaderBytes.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size);

// Validates a received payload against the header's CRC.
Status CheckFramePayload(const FrameHeader& header,
                         const std::vector<uint8_t>& payload);

}  // namespace dash

#endif  // DASH_TRANSPORT_FRAME_H_
