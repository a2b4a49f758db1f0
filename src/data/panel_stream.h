// Out-of-core packed study format and panel streaming (DESIGN.md §15).
//
// A scan over a biobank-scale X cannot assume the genotype matrix fits
// in RAM. This module gives the core scan an out-of-core data path:
//
//   - DASHPACK ("DASHPK01"), an on-disk packed study: a checksummed
//     header, the RAM-resident small factors (y and the N x K covariate
//     block C — those two stay in memory by design; only X streams),
//     and the 2-bit packed genotype panel blocks, one block per row
//     panel of kStudyPanelRows rows, each with its own FNV-1a checksum.
//     Panel p of the file is exactly the word image of rows
//     [p*kStudyPanelRows, ...) of the full PackedGenotypeMatrix:
//     kStudyPanelRows is a multiple of PackedGenotypeMatrix::kRowsPerWord,
//     so panel slices fall on word boundaries and the streamed kernels
//     consume the same words the in-memory kernel would.
//
//   - PanelSource, the abstraction the streaming scan kernel consumes:
//     "give me panel p as a PackedGenotypeMatrix". PackedStudyReader
//     serves panels from a DASHPACK file (one pread per panel block);
//     InMemoryPanelSource slices an in-memory matrix (the bit-identity
//     oracle in tests).
//
//   - PanelPrefetcher, a double-buffered background reader that
//     overlaps disk I/O with kernel compute: while the scan folds panel
//     p into its accumulators, the I/O thread is already filling the
//     other buffer with panel p+1.
//
// Every multi-byte field is stored in the host's native byte order
// (little-endian on every supported target); the format is an on-disk
// cache, not an interchange format.

#ifndef DASH_DATA_PANEL_STREAM_H_
#define DASH_DATA_PANEL_STREAM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "linalg/matrix.h"
#include "linalg/packed_matrix.h"
#include "linalg/vector_ops.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dash {

// Rows per on-disk panel block. Must equal the core kernels' row-panel
// granularity (kStatsRowPanel) so a streamed sweep spills its
// accumulators at exactly the row boundaries the in-memory sweep does —
// that alignment is what makes streamed results bit-identical
// (core/streaming_stats.cc static_asserts the two constants agree).
inline constexpr int64_t kStudyPanelRows = 256;

// FNV-1a over raw bytes; the same parameters as core's WireChecksum so
// checksums of a panel's word image are comparable across layers.
uint64_t Fnv1aBytes(const void* data, size_t len,
                    uint64_t h = 1469598103934665603ULL);

// Atomic durable small-file write: the bytes land under `path` via
// tmp-file write + fsync + rename + directory fsync, so a crash at any
// point leaves either the old file or the complete new one — never a
// torn mix. The checkpoint layer (core/scan_checkpoint.h) builds on it.
Status AtomicWriteFile(const std::string& path, const void* data, size_t len);

// --- PanelSource ------------------------------------------------------

// A study whose genotype matrix is consumed one row panel at a time.
// Panels partition the rows: panel p covers rows
// [p * kStudyPanelRows, min(n, (p+1) * kStudyPanelRows)).
class PanelSource {
 public:
  virtual ~PanelSource() = default;

  virtual int64_t num_samples() const = 0;
  virtual int64_t num_variants() const = 0;

  // Content fingerprint of the study (dimensions + data). Checkpoints
  // are keyed by it, so a checkpoint written against one study can
  // never be resumed against another.
  virtual uint64_t fingerprint() const = 0;

  // Fills `out` with panel p (resizing it if needed). Implementations
  // validate integrity where they can (PackedStudyReader verifies the
  // stored panel checksum) and return DataLoss / Io errors on bad or
  // short data. Thread-compatible: one panel read at a time per source.
  virtual Status ReadPanel(int64_t panel, PackedGenotypeMatrix* out) = 0;

  int64_t num_panels() const {
    const int64_t n = num_samples();
    return (n + kStudyPanelRows - 1) / kStudyPanelRows;
  }
  int64_t panel_begin_row(int64_t panel) const {
    return panel * kStudyPanelRows;
  }
  int64_t panel_rows(int64_t panel) const {
    const int64_t begin = panel_begin_row(panel);
    const int64_t n = num_samples();
    return begin >= n ? 0 : std::min<int64_t>(kStudyPanelRows, n - begin);
  }
};

// --- DASHPACK writer --------------------------------------------------

// Writes path as a DASHPACK study: x packed genotypes, y phenotype,
// c covariates (n x k, row-major; k may be 0). `tag` is a free-form
// caller identifier folded into the fingerprint (cohort hash, data
// seed). Durable on success: data and containing directory are fsynced
// behind an atomic tmp-write + rename, so a crashed writer never leaves
// a half-written file under the final name.
Status WritePackedStudy(const std::string& path, const PackedGenotypeMatrix& x,
                        const Vector& y, const Matrix& c, uint64_t tag = 0);

// --- DASHPACK reader --------------------------------------------------

class PackedStudyReader final : public PanelSource {
 public:
  // Opens and fully validates the header (magic, version, dimension
  // bounds, header checksum, exact file size) and the y/C block
  // checksum; loads y and C into RAM. Panel payloads are validated
  // lazily, one pread per ReadPanel.
  static Result<std::unique_ptr<PackedStudyReader>> Open(
      const std::string& path);

  ~PackedStudyReader() override;
  PackedStudyReader(const PackedStudyReader&) = delete;
  PackedStudyReader& operator=(const PackedStudyReader&) = delete;

  int64_t num_samples() const override { return n_; }
  int64_t num_variants() const override { return m_; }
  int64_t num_covariates() const { return k_; }
  uint64_t tag() const { return tag_; }
  uint64_t fingerprint() const override { return fingerprint_; }

  // The RAM-resident factors (loaded at Open).
  const Vector& phenotype() const { return y_; }
  const Matrix& covariates() const { return c_; }

  Status ReadPanel(int64_t panel, PackedGenotypeMatrix* out) override;

 private:
  PackedStudyReader() = default;

  int fd_ = -1;
  std::string path_;

  int64_t n_ = 0;
  int64_t m_ = 0;
  int64_t k_ = 0;
  uint64_t tag_ = 0;
  uint64_t fingerprint_ = 0;
  Vector y_;
  Matrix c_;
};

// --- In-memory source -------------------------------------------------

// Slices panels out of a resident PackedGenotypeMatrix. The streamed
// oracle for bit-identity tests, and the path that lets the streaming
// scan loop run against in-RAM data (checkpointing without a file).
class InMemoryPanelSource final : public PanelSource {
 public:
  // Borrows x (and y/c for the fingerprint); they must outlive the
  // source. `tag` as in WritePackedStudy, so the in-memory and on-disk
  // fingerprints of the same study agree.
  InMemoryPanelSource(const PackedGenotypeMatrix& x, const Vector& y,
                      const Matrix& c, uint64_t tag = 0);

  int64_t num_samples() const override { return x_->rows(); }
  int64_t num_variants() const override { return x_->cols(); }
  uint64_t fingerprint() const override { return fingerprint_; }

  Status ReadPanel(int64_t panel, PackedGenotypeMatrix* out) override;

 private:
  const PackedGenotypeMatrix* x_;
  uint64_t fingerprint_ = 0;
};

// Fingerprint of a study's content as both sources compute it, exposed
// so checkpoint tooling can derive it without constructing a source.
uint64_t StudyFingerprint(const PackedGenotypeMatrix& x, const Vector& y,
                          const Matrix& c, uint64_t tag);

// --- Prefetcher -------------------------------------------------------

// Double-buffered read-ahead over a PanelSource: a background thread
// keeps up to two panels decoded while the consumer folds the previous
// one into its accumulators, hiding disk latency behind kernel
// compute. Panels are consumed strictly in order, first_panel first —
// exactly what the streaming scan loop wants for checkpoint/resume.
class PanelPrefetcher {
 public:
  // Starts the I/O thread; panels [first_panel, source->num_panels())
  // will be served by successive Next() calls. `source` must outlive
  // the prefetcher and must not be read by anyone else meanwhile.
  explicit PanelPrefetcher(PanelSource* source, int64_t first_panel = 0);

  // Joins the I/O thread (unblocking it if the consumer stopped early).
  ~PanelPrefetcher();
  PanelPrefetcher(const PanelPrefetcher&) = delete;
  PanelPrefetcher& operator=(const PanelPrefetcher&) = delete;

  // The next panel in order, or the source's error for it. The pointer
  // stays valid until the following Next() call (the slot is recycled
  // then). Calling Next() after the last panel is a CHECK failure.
  Result<const PackedGenotypeMatrix*> Next();

  // Index of the panel the next Next() call returns.
  int64_t next_panel() const { return next_consume_; }

 private:
  void IoLoop();

  PanelSource* const source_;
  const int64_t end_panel_;
  const int64_t first_panel_;
  int64_t next_consume_;  // consumer-thread only

  // Slot buffers are handed off between the I/O thread and the consumer
  // through slot_full_ (mutex release/acquire orders the payload): the
  // I/O thread writes buffers_[s] only while slot_full_[s] is false and
  // the consumer reads it only after observing true, so the buffers
  // themselves need no lock.
  PackedGenotypeMatrix buffers_[2] = {{0, 0}, {0, 0}};
  Mutex mu_{LockRank::kPanelPrefetch};
  CondVar cv_;
  bool slot_full_[2] DASH_GUARDED_BY(mu_) = {false, false};
  int64_t slot_panel_[2] DASH_GUARDED_BY(mu_) = {-1, -1};
  Status slot_status_[2] DASH_GUARDED_BY(mu_);  // default-OK
  Status io_failed_ DASH_GUARDED_BY(mu_);       // sticky first I/O error
  bool stopping_ DASH_GUARDED_BY(mu_) = false;
  std::thread io_thread_;
};

}  // namespace dash

#endif  // DASH_DATA_PANEL_STREAM_H_
