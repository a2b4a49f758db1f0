#include "transport/frame.h"

#include <array>
#include <string>

#include "util/check.h"

namespace dash {
namespace {

// Slice-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
// kCrcTables[0] is the classic byte table; kCrcTables[k][b] is the
// register update for byte b followed by k zero bytes, so one step folds
// 8 input bytes with 8 independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  const CrcTables& t = kCrcTables;
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ GetU32(data);
    const uint32_t hi = GetU32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodeFrameHeader(const FrameHeader& header, std::vector<uint8_t>* out) {
  DASH_CHECK(out != nullptr);
  out->reserve(out->size() + kFrameHeaderBytes);
  PutU32(out, kFrameMagic);
  PutU16(out, kFrameVersion);
  PutU16(out, static_cast<uint16_t>(header.session));
  PutU32(out, header.tag);
  PutU16(out, static_cast<uint16_t>(header.from));
  PutU16(out, static_cast<uint16_t>(header.to));
  PutU32(out, header.payload_len);
  PutU32(out, header.crc32);
}

std::vector<uint8_t> EncodeFrame(const Message& msg) {
  FrameHeader header;
  header.session = msg.session;
  header.tag = static_cast<uint32_t>(msg.tag);
  header.from = msg.from;
  header.to = msg.to;
  header.payload_len = static_cast<uint32_t>(msg.payload.size());
  header.crc32 = Crc32(msg.payload.data(), msg.payload.size());
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + msg.payload.size());
  EncodeFrameHeader(header, &out);
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size) {
  DASH_CHECK(data != nullptr);
  if (size < kFrameHeaderBytes) {
    return InvalidArgumentError("frame header needs " +
                                std::to_string(kFrameHeaderBytes) +
                                " bytes, got " + std::to_string(size));
  }
  const uint32_t magic = GetU32(data);
  if (magic != kFrameMagic) {
    return DataLossError("bad frame magic 0x" + [magic] {
      static const char* hex = "0123456789abcdef";
      std::string s(8, '0');
      for (int i = 0; i < 8; ++i) s[7 - i] = hex[(magic >> (4 * i)) & 0xF];
      return s;
    }() + " (not a DASH peer, or a desynchronized stream)");
  }
  const uint16_t version = GetU16(data + 4);
  if (version != kFrameVersion) {
    return DataLossError("frame version " + std::to_string(version) +
                   " unsupported (this build speaks " +
                   std::to_string(kFrameVersion) + ")");
  }
  FrameHeader header;
  header.session = GetU16(data + 6);
  header.tag = GetU32(data + 8);
  header.from = GetU16(data + 12);
  header.to = GetU16(data + 14);
  header.payload_len = GetU32(data + 16);
  header.crc32 = GetU32(data + 20);
  if (header.payload_len > kFrameMaxPayloadBytes) {
    return DataLossError("frame payload length " +
                   std::to_string(header.payload_len) +
                   " exceeds the 1 GiB bound (corrupt stream?)");
  }
  return header;
}

Status CheckFramePayload(const FrameHeader& header,
                         const std::vector<uint8_t>& payload) {
  if (payload.size() != header.payload_len) {
    return DataLossError("frame payload truncated: expected " +
                         std::to_string(header.payload_len) +
                         " bytes, have " + std::to_string(payload.size()));
  }
  const uint32_t crc = Crc32(payload.data(), payload.size());
  if (crc != header.crc32) {
    return DataLossError("frame CRC mismatch on a " +
                   std::to_string(payload.size()) +
                   "-byte payload (corruption on the wire)");
  }
  return Status::Ok();
}

}  // namespace dash
