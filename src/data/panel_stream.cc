#include "data/panel_stream.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace dash {
namespace {

// --- DASHPACK layout --------------------------------------------------
// [magic "DASHPK01" | u64 version | i64 n | i64 m | i64 k |
//  i64 panel_rows | u64 tag | u64 fingerprint | u64 header_checksum]
// [y: n doubles] [C: n*k doubles row-major] [u64 yc_checksum]
// for each panel p (rows [p*256, min(n, (p+1)*256))):
//   [m * wp(p) u64 words, column-major] [u64 panel_checksum]
// wp(p) = ceil(rows_p / 32); every panel but the last has wp = 8, so
// panel offsets are a closed-form seek. All checksums are FNV-1a over
// the raw bytes of the region they close.

constexpr char kMagic[8] = {'D', 'A', 'S', 'H', 'P', 'K', '0', '1'};
constexpr uint64_t kFormatVersion = 1;
// magic + (version, n, m, k, panel_rows, tag, fingerprint, checksum).
constexpr int64_t kHeaderBytes = 72;
// Dimension sanity bounds: large enough for any real study, small
// enough that every size expression below fits comfortably in 128-bit
// intermediate arithmetic.
constexpr int64_t kMaxDim = int64_t{1} << 40;
constexpr int64_t kMaxCovariates = int64_t{1} << 20;

int64_t WordsPerPanel(int64_t panel_rows) {
  return (panel_rows + PackedGenotypeMatrix::kRowsPerWord - 1) /
         PackedGenotypeMatrix::kRowsPerWord;
}

struct StudyShape {
  int64_t n = 0;
  int64_t m = 0;
  int64_t k = 0;

  int64_t num_panels() const {
    return (n + kStudyPanelRows - 1) / kStudyPanelRows;
  }
  int64_t panel_rows(int64_t p) const {
    return std::min<int64_t>(kStudyPanelRows, n - p * kStudyPanelRows);
  }
  int64_t panel_payload_bytes(int64_t p) const {
    return m * WordsPerPanel(panel_rows(p)) * 8;
  }
  // Full panels all share one stride, so any panel's offset is O(1).
  int64_t full_panel_stride() const { return m * kStudyPanelRows / 4 + 8; }
  int64_t panels_offset() const { return kHeaderBytes + (n + n * k) * 8 + 8; }
  int64_t panel_offset(int64_t p) const {
    return panels_offset() + p * full_panel_stride();
  }
  unsigned __int128 total_bytes() const {
    unsigned __int128 total = static_cast<unsigned __int128>(panels_offset());
    const int64_t panels = num_panels();
    for (int64_t p = 0; p < panels; ++p) {
      total += static_cast<unsigned __int128>(panel_payload_bytes(p)) + 8;
    }
    return total;
  }
};

void AppendU64(std::vector<unsigned char>* buf, uint64_t v) {
  unsigned char b[8];
  std::memcpy(b, &v, 8);
  buf->insert(buf->end(), b, b + 8);
}

void AppendI64(std::vector<unsigned char>* buf, int64_t v) {
  AppendU64(buf, static_cast<uint64_t>(v));
}

uint64_t LoadU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

int64_t LoadI64(const unsigned char* p) {
  return static_cast<int64_t>(LoadU64(p));
}

std::string ErrnoText() { return std::strerror(errno); }

Status WriteAll(int fd, const void* data, size_t len, const std::string& path) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      return IoError("write " + path + ": " + ErrnoText());
    }
    p += w;
    len -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status ReadAllAt(int fd, void* data, size_t len, int64_t off,
                 const std::string& path) {
  unsigned char* p = static_cast<unsigned char*>(data);
  while (len > 0) {
    const ssize_t r = ::pread(fd, p, len, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return IoError("pread " + path + ": " + ErrnoText());
    }
    if (r == 0) {
      return DataLossError("short read (truncated file?): " + path);
    }
    p += r;
    len -= static_cast<size_t>(r);
    off += r;
  }
  return Status::Ok();
}

Status FsyncDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return IoError("open dir " + dir + ": " + ErrnoText());
  const int rc = ::fsync(dfd);
  const int saved = errno;
  ::close(dfd);
  if (rc != 0) {
    return IoError("fsync dir " + dir + ": " + std::strerror(saved));
  }
  return Status::Ok();
}

}  // namespace

uint64_t Fnv1aBytes(const void* data, size_t len, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint64_t>(p[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

Status AtomicWriteFile(const std::string& path, const void* data, size_t len) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("open " + tmp + ": " + ErrnoText());
  Status st = WriteAll(fd, data, len, tmp);
  if (st.ok() && ::fsync(fd) != 0) {
    st = IoError("fsync " + tmp + ": " + ErrnoText());
  }
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    st = IoError("rename " + tmp + " -> " + path + ": " + ErrnoText());
    ::unlink(tmp.c_str());
    return st;
  }
  return FsyncDirOf(path);
}

uint64_t StudyFingerprint(const PackedGenotypeMatrix& x, const Vector& y,
                          const Matrix& c, uint64_t tag) {
  const int64_t dims[4] = {x.rows(), x.cols(), c.cols(), kStudyPanelRows};
  uint64_t h = Fnv1aBytes(dims, sizeof(dims));
  h = Fnv1aBytes(&tag, sizeof(tag), h);
  h = Fnv1aBytes(y.data(), y.size() * sizeof(double), h);
  h = Fnv1aBytes(c.data(), static_cast<size_t>(c.rows() * c.cols()) * 8, h);
  for (int64_t j = 0; j < x.cols(); ++j) {
    h = Fnv1aBytes(x.column_words(j),
                   static_cast<size_t>(x.words_per_column()) * 8, h);
  }
  return h;
}

// --- Writer -----------------------------------------------------------

Status WritePackedStudy(const std::string& path, const PackedGenotypeMatrix& x,
                        const Vector& y, const Matrix& c, uint64_t tag) {
  const StudyShape shape{x.rows(), x.cols(), c.cols()};
  if (static_cast<int64_t>(y.size()) != shape.n || c.rows() != shape.n) {
    return InvalidArgumentError(
        "WritePackedStudy: x/y/c row counts disagree (" +
        std::to_string(shape.n) + " genotype rows, " +
        std::to_string(y.size()) + " phenotypes, " +
        std::to_string(c.rows()) + " covariate rows)");
  }
  if (shape.n > kMaxDim || shape.m > kMaxDim || shape.k > kMaxCovariates) {
    return InvalidArgumentError("WritePackedStudy: dimensions out of range");
  }

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return IoError("open " + tmp + ": " + ErrnoText());
  Status st = Status::Ok();
  {
    // Header.
    std::vector<unsigned char> header;
    header.reserve(kHeaderBytes);
    header.insert(header.end(), kMagic, kMagic + 8);
    AppendU64(&header, kFormatVersion);
    AppendI64(&header, shape.n);
    AppendI64(&header, shape.m);
    AppendI64(&header, shape.k);
    AppendI64(&header, kStudyPanelRows);
    AppendU64(&header, tag);
    AppendU64(&header, StudyFingerprint(x, y, c, tag));
    AppendU64(&header, Fnv1aBytes(header.data(), header.size()));
    DASH_CHECK(static_cast<int64_t>(header.size()) == kHeaderBytes);
    st = WriteAll(fd, header.data(), header.size(), tmp);

    // y and C, closed by one checksum.
    uint64_t yc = Fnv1aBytes(y.data(), y.size() * 8);
    yc = Fnv1aBytes(c.data(), static_cast<size_t>(shape.n * shape.k) * 8, yc);
    if (st.ok()) st = WriteAll(fd, y.data(), y.size() * 8, tmp);
    if (st.ok()) {
      st = WriteAll(fd, c.data(), static_cast<size_t>(shape.n * shape.k) * 8,
                    tmp);
    }
    if (st.ok()) st = WriteAll(fd, &yc, 8, tmp);

    // Panel blocks. kStudyPanelRows is a multiple of kRowsPerWord, so
    // panel p of column j is words [p*8, p*8 + wp) — a straight copy.
    std::vector<uint64_t> block;
    const int64_t panels = shape.num_panels();
    for (int64_t p = 0; st.ok() && p < panels; ++p) {
      const int64_t wp = WordsPerPanel(shape.panel_rows(p));
      const int64_t w0 = p * (kStudyPanelRows / PackedGenotypeMatrix::kRowsPerWord);
      block.resize(static_cast<size_t>(shape.m * wp));
      for (int64_t j = 0; j < shape.m; ++j) {
        std::memcpy(block.data() + j * wp, x.column_words(j) + w0,
                    static_cast<size_t>(wp) * 8);
      }
      const uint64_t sum = Fnv1aBytes(block.data(), block.size() * 8);
      st = WriteAll(fd, block.data(), block.size() * 8, tmp);
      if (st.ok()) st = WriteAll(fd, &sum, 8, tmp);
    }

    if (st.ok() && ::fsync(fd) != 0) {
      st = IoError("fsync " + tmp + ": " + ErrnoText());
    }
  }
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    st = IoError("rename " + tmp + " -> " + path + ": " + ErrnoText());
    ::unlink(tmp.c_str());
    return st;
  }
  return FsyncDirOf(path);
}

// --- Reader -----------------------------------------------------------

Result<std::unique_ptr<PackedStudyReader>> PackedStudyReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const Status st = errno == ENOENT
                          ? NotFoundError("no such study: " + path)
                          : IoError("open " + path + ": " + ErrnoText());
    return st;
  }
  std::unique_ptr<PackedStudyReader> reader(new PackedStudyReader());
  reader->fd_ = fd;
  reader->path_ = path;

  struct stat sb;
  if (::fstat(fd, &sb) != 0) return IoError("fstat " + path + ": " + ErrnoText());
  if (sb.st_size < kHeaderBytes) {
    return DataLossError("truncated DASHPACK header: " + path);
  }

  unsigned char header[kHeaderBytes];
  DASH_RETURN_IF_ERROR(ReadAllAt(fd, header, sizeof(header), 0, path));
  if (std::memcmp(header, kMagic, 8) != 0) {
    return InvalidArgumentError("not a DASHPACK file (bad magic): " + path);
  }
  if (const uint64_t version = LoadU64(header + 8); version != kFormatVersion) {
    return InvalidArgumentError("unsupported DASHPACK version " +
                                std::to_string(version) + ": " + path);
  }
  const uint64_t stored_header_sum = LoadU64(header + kHeaderBytes - 8);
  if (Fnv1aBytes(header, kHeaderBytes - 8) != stored_header_sum) {
    return DataLossError("DASHPACK header checksum mismatch: " + path);
  }
  const StudyShape shape{LoadI64(header + 16), LoadI64(header + 24),
                         LoadI64(header + 32)};
  const int64_t panel_rows = LoadI64(header + 40);
  if (shape.n < 0 || shape.m < 0 || shape.k < 0 || shape.n > kMaxDim ||
      shape.m > kMaxDim || shape.k > kMaxCovariates) {
    return DataLossError("DASHPACK dimensions out of range: " + path);
  }
  if (panel_rows != kStudyPanelRows) {
    return InvalidArgumentError(
        "DASHPACK panel_rows " + std::to_string(panel_rows) +
        " != " + std::to_string(kStudyPanelRows) + ": " + path);
  }
  if (shape.total_bytes() != static_cast<unsigned __int128>(sb.st_size)) {
    return DataLossError("DASHPACK size mismatch (truncated or grown): " +
                         path);
  }
  reader->n_ = shape.n;
  reader->m_ = shape.m;
  reader->k_ = shape.k;
  reader->tag_ = LoadU64(header + 48);
  reader->fingerprint_ = LoadU64(header + 56);

  // y and C live in RAM for the whole scan; only X streams.
  reader->y_.resize(static_cast<size_t>(shape.n));
  reader->c_ = Matrix(shape.n, shape.k);
  int64_t off = kHeaderBytes;
  DASH_RETURN_IF_ERROR(ReadAllAt(fd, reader->y_.data(),
                                 static_cast<size_t>(shape.n) * 8, off, path));
  off += shape.n * 8;
  DASH_RETURN_IF_ERROR(
      ReadAllAt(fd, reader->c_.data(),
                static_cast<size_t>(shape.n * shape.k) * 8, off, path));
  off += shape.n * shape.k * 8;
  uint64_t stored_yc = 0;
  DASH_RETURN_IF_ERROR(ReadAllAt(fd, &stored_yc, 8, off, path));
  uint64_t yc = Fnv1aBytes(reader->y_.data(), reader->y_.size() * 8);
  yc = Fnv1aBytes(reader->c_.data(),
                  static_cast<size_t>(shape.n * shape.k) * 8, yc);
  if (yc != stored_yc) {
    return DataLossError("DASHPACK y/C checksum mismatch: " + path);
  }
  return reader;
}

PackedStudyReader::~PackedStudyReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status PackedStudyReader::ReadPanel(int64_t panel, PackedGenotypeMatrix* out) {
  const StudyShape shape{n_, m_, k_};
  if (panel < 0 || panel >= shape.num_panels()) {
    return OutOfRangeError("panel " + std::to_string(panel) + " of " +
                           std::to_string(shape.num_panels()) + ": " + path_);
  }
  const int64_t rows = shape.panel_rows(panel);
  if (out->rows() != rows || out->cols() != m_) {
    *out = PackedGenotypeMatrix(rows, m_);
  }
  const int64_t payload = shape.panel_payload_bytes(panel);
  const int64_t off = shape.panel_offset(panel);
  uint64_t* words = payload > 0 ? out->mutable_column_words(0) : nullptr;
  uint64_t stored_sum = 0;
  if (payload > 0) {
    DASH_RETURN_IF_ERROR(
        ReadAllAt(fd_, words, static_cast<size_t>(payload), off, path_));
  }
  DASH_RETURN_IF_ERROR(ReadAllAt(fd_, &stored_sum, 8, off + payload, path_));
  if (Fnv1aBytes(words, static_cast<size_t>(payload)) != stored_sum) {
    return DataLossError("DASHPACK panel " + std::to_string(panel) +
                         " checksum mismatch: " + path_);
  }
  return Status::Ok();
}

// --- In-memory source -------------------------------------------------

InMemoryPanelSource::InMemoryPanelSource(const PackedGenotypeMatrix& x,
                                         const Vector& y, const Matrix& c,
                                         uint64_t tag)
    : x_(&x), fingerprint_(StudyFingerprint(x, y, c, tag)) {}

Status InMemoryPanelSource::ReadPanel(int64_t panel,
                                      PackedGenotypeMatrix* out) {
  if (panel < 0 || panel >= num_panels()) {
    return OutOfRangeError("panel " + std::to_string(panel) + " of " +
                           std::to_string(num_panels()));
  }
  const int64_t rows = panel_rows(panel);
  const int64_t m = x_->cols();
  if (out->rows() != rows || out->cols() != m) {
    *out = PackedGenotypeMatrix(rows, m);
  }
  const int64_t wp = WordsPerPanel(rows);
  const int64_t w0 =
      panel * (kStudyPanelRows / PackedGenotypeMatrix::kRowsPerWord);
  for (int64_t j = 0; j < m; ++j) {
    std::memcpy(out->mutable_column_words(j), x_->column_words(j) + w0,
                static_cast<size_t>(wp) * 8);
  }
  return Status::Ok();
}

// --- Prefetcher -------------------------------------------------------

PanelPrefetcher::PanelPrefetcher(PanelSource* source, int64_t first_panel)
    : source_(source),
      end_panel_(source->num_panels()),
      first_panel_(first_panel),
      next_consume_(first_panel) {
  DASH_CHECK(first_panel >= 0 && first_panel <= end_panel_)
      << "first_panel " << first_panel << " outside [0, " << end_panel_ << "]";
  io_thread_ = std::thread(&PanelPrefetcher::IoLoop, this);
}

PanelPrefetcher::~PanelPrefetcher() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (io_thread_.joinable()) io_thread_.join();
}

void PanelPrefetcher::IoLoop() {
  for (int64_t p = first_panel_; p < end_panel_; ++p) {
    const int s = static_cast<int>(p & 1);
    {
      MutexLock lock(&mu_);
      while (slot_full_[s] && !stopping_) cv_.Wait(&mu_);
      if (stopping_) return;
    }
    // The slot is ours until we publish it: the consumer flips
    // slot_full_[s] back to false only after it is done with the
    // buffer, and it never reads a slot it has not seen published.
    Status st = source_->ReadPanel(p, &buffers_[s]);
    const bool failed = !st.ok();
    {
      MutexLock lock(&mu_);
      slot_status_[s] = std::move(st);
      slot_panel_[s] = p;
      slot_full_[s] = true;
      if (failed) io_failed_ = slot_status_[s];
    }
    cv_.NotifyOne();
    // After an I/O error the remaining panels cannot be trusted (and
    // the consumer stops at the first error anyway).
    if (failed) return;
  }
}

Result<const PackedGenotypeMatrix*> PanelPrefetcher::Next() {
  DASH_CHECK(next_consume_ < end_panel_)
      << "PanelPrefetcher::Next() past the last panel";
  const int64_t p = next_consume_;
  const int s = static_cast<int>(p & 1);
  {
    MutexLock lock(&mu_);
    // Recycle the previously returned panel's slot; its pointer is
    // invalidated now, as documented.
    if (p > first_panel_) {
      slot_full_[(p - 1) & 1] = false;
      cv_.NotifyOne();
    }
    while (!slot_full_[s] || slot_panel_[s] != p) {
      if (!io_failed_.ok()) {
        // The I/O thread died before reaching panel p.
        return io_failed_;
      }
      cv_.Wait(&mu_);
    }
    ++next_consume_;
    if (!slot_status_[s].ok()) return slot_status_[s];
  }
  return static_cast<const PackedGenotypeMatrix*>(&buffers_[s]);
}

}  // namespace dash
