#include "net/serialization.h"

#include <bit>
#include <cstring>
#include <string>

#include "util/check.h"

namespace dash {

// Element blocks move with one memcpy, so the host byte order must be
// the wire's (little-endian).
static_assert(std::endian::native == std::endian::little,
              "the vector codec copies host words as little-endian bytes");

namespace {

// Appends n 8-byte host words (u64 or IEEE-754 double bit patterns).
void AppendWords(std::vector<uint8_t>* buffer, const void* words, size_t n) {
  if (n == 0) return;
  const size_t offset = buffer->size();
  buffer->resize(offset + 8 * n);
  std::memcpy(buffer->data() + offset, words, 8 * n);
}

}  // namespace

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void ByteWriter::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void ByteWriter::PutU64Vector(const std::vector<uint64_t>& v) {
  PutU64Span(v.data(), v.size());
}

void ByteWriter::PutU64Span(const uint64_t* v, size_t n) {
  PutU64(n);
  AppendWords(&buffer_, v, n);
}

void ByteWriter::PutDoubleVector(const Vector& v) {
  PutU64(v.size());
  AppendWords(&buffer_, v.data(), v.size());
}

void ByteWriter::PutMatrix(const Matrix& m) {
  PutI64(m.rows());
  PutI64(m.cols());
  AppendWords(&buffer_, m.data(), static_cast<size_t>(m.size()));
}

Status ByteReader::Need(size_t n) const {
  if (pos_ + n > buffer_.size()) {
    return InvalidArgumentError("truncated message: need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(buffer_.size() - pos_));
  }
  return Status::Ok();
}

void ByteReader::TakeWords(void* words, size_t n) {
  if (n == 0) return;
  DASH_CHECK_LE(n, remaining() / 8);
  std::memcpy(words, buffer_.data() + pos_, 8 * n);
  pos_ += 8 * n;
}

Result<uint32_t> ByteReader::GetU32() {
  DASH_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buffer_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  DASH_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buffer_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  DASH_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::GetDouble() {
  DASH_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return std::bit_cast<double>(v);
}

Status ByteReader::NeedWords(uint64_t n) const {
  // Bound the count by the bytes actually present BEFORE allocating:
  // a corrupted length prefix like 2^61 would make 8 * n wrap around,
  // slip past Need() and then abort inside the huge vector allocation.
  if (n > remaining() / 8) {
    return InvalidArgumentError("truncated message: vector length " +
                                std::to_string(n) + " exceeds the " +
                                std::to_string(remaining()) +
                                " bytes remaining");
  }
  return Status::Ok();
}

Result<std::vector<uint64_t>> ByteReader::GetU64Vector() {
  DASH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  DASH_RETURN_IF_ERROR(NeedWords(n));
  std::vector<uint64_t> out(n);
  TakeWords(out.data(), n);
  return out;
}

Result<Vector> ByteReader::GetDoubleVector() {
  DASH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  DASH_RETURN_IF_ERROR(NeedWords(n));
  Vector out(n);
  TakeWords(out.data(), n);
  return out;
}

Status ByteReader::GetWords(uint64_t* out, size_t n) {
  DASH_RETURN_IF_ERROR(NeedWords(n));
  TakeWords(out, n);
  return Status::Ok();
}

Result<Matrix> ByteReader::GetMatrix() {
  DASH_ASSIGN_OR_RETURN(int64_t rows, GetI64());
  DASH_ASSIGN_OR_RETURN(int64_t cols, GetI64());
  if (rows < 0 || cols < 0 || (cols > 0 && rows > (1LL << 40) / cols)) {
    return InvalidArgumentError("implausible matrix shape in message");
  }
  DASH_RETURN_IF_ERROR(Need(8 * static_cast<size_t>(rows * cols)));
  Matrix m(rows, cols);
  TakeWords(m.data(), static_cast<size_t>(m.size()));
  return m;
}

}  // namespace dash
