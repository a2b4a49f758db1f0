// Byte-level serialization for protocol messages.
//
// All multi-byte values are little-endian; doubles travel as their IEEE-754
// bit patterns. The writers/readers are deliberately explicit (no
// reflection) so that the byte counts the Network reports are exactly the
// bytes a real wire implementation would carry. The element block of a
// vector or matrix moves with one memcpy (the build requires a
// little-endian host), after the same length-prefix bound checks.

#ifndef DASH_NET_SERIALIZATION_H_
#define DASH_NET_SERIALIZATION_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace dash {

// Appends typed values to a byte buffer.
class ByteWriter {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);

  // Length-prefixed sequences. PutU64Span writes the n words at `v`,
  // e.g. one chunk of a larger vector, exactly as PutU64Vector would.
  void PutU64Vector(const std::vector<uint64_t>& v);
  void PutU64Span(const uint64_t* v, size_t n);
  void PutDoubleVector(const Vector& v);
  void PutMatrix(const Matrix& m);

  size_t size() const { return buffer_.size(); }

  // Moves the accumulated bytes out; the writer becomes empty.
  std::vector<uint8_t> Take() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

// Reads typed values back; every getter fails with InvalidArgument on
// truncated or malformed input rather than reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& buffer)
      : buffer_(buffer) {}

  // The reader only borrows the buffer; reading from a temporary would
  // dangle, so it is rejected at compile time.
  explicit ByteReader(std::vector<uint8_t>&&) = delete;

  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::vector<uint64_t>> GetU64Vector();
  Result<Vector> GetDoubleVector();
  Result<Matrix> GetMatrix();

  // Reads n 8-byte words with no length prefix straight into `out`,
  // e.g. one chunk of a larger vector whose length the caller knows.
  Status GetWords(uint64_t* out, size_t n);

  // True when every byte has been consumed.
  bool AtEnd() const { return pos_ == buffer_.size(); }
  size_t remaining() const { return buffer_.size() - pos_; }

 private:
  Status Need(size_t n) const;
  // InvalidArgument unless n 8-byte words remain.
  Status NeedWords(uint64_t n) const;
  // Copies n 8-byte words out; callers have already bounded n by
  // NeedWords.
  void TakeWords(void* words, size_t n);

  const std::vector<uint8_t>& buffer_;
  size_t pos_ = 0;
};

}  // namespace dash

#endif  // DASH_NET_SERIALIZATION_H_
