#include "core/streaming_stats.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/scan_checkpoint.h"
#include "core/suff_stats.h"
#include "util/check.h"

namespace dash {

// The whole design hinges on disk panels being exactly the kernels'
// row-panel granularity; see streaming_stats.h.
static_assert(kStudyPanelRows == kStatsRowPanel,
              "DASHPACK panel rows must match the kernel row panel");
static_assert(kStudyPanelRows % PackedGenotypeMatrix::kRowsPerWord == 0,
              "panels must fall on packed-word boundaries");

namespace {

// Attempts to seed the accumulator from a checkpoint. Any failure —
// absent, torn, checksum mismatch, wrong study, wrong shape — means
// "start from panel 0"; a bad checkpoint may cost time, never
// correctness.
int64_t TrySeedFromCheckpoint(const std::string& path, uint64_t key,
                              int64_t total_len, int64_t num_panels,
                              Vector* flat) {
  Result<ScanCheckpoint> loaded = LoadScanCheckpoint(path);
  if (!loaded.ok()) return 0;
  ScanCheckpoint& ckpt = loaded.value();
  if (ckpt.key != key || static_cast<int64_t>(ckpt.flat.size()) != total_len ||
      ckpt.panels_done < 0 || ckpt.panels_done > num_panels) {
    return 0;
  }
  *flat = std::move(ckpt.flat);
  return ckpt.panels_done;
}

}  // namespace

Result<StreamingStatsResult> ComputeLocalStatsStreamed(
    PanelSource* source, const Vector& y, const Matrix& q,
    const StreamingStatsOptions& options) {
  DASH_CHECK(source != nullptr);
  const int64_t n = source->num_samples();
  const int64_t m = source->num_variants();
  const int64_t k = q.cols();
  if (static_cast<int64_t>(y.size()) != n || q.rows() != n) {
    return InvalidArgumentError(
        "ComputeLocalStatsStreamed: y/q rows must match the study (" +
        std::to_string(n) + " samples, got " + std::to_string(y.size()) +
        " phenotypes, " + std::to_string(q.rows()) + " covariate rows)");
  }
  if (options.checkpoint_every_panels <= 0) {
    return InvalidArgumentError(
        "ComputeLocalStatsStreamed: checkpoint_every_panels must be >= 1");
  }

  const StatsWireLayout layout{m, k};
  const int64_t num_panels = source->num_panels();
  const uint64_t key = ScanCheckpointKey(source->fingerprint(), m, k);

  StreamingStatsResult result;
  result.num_samples = n;
  result.flat.assign(static_cast<size_t>(layout.total_len()), 0.0);

  int64_t start_panel = 0;
  if (!options.checkpoint_path.empty()) {
    start_panel = TrySeedFromCheckpoint(options.checkpoint_path, key,
                                        layout.total_len(), num_panels,
                                        &result.flat);
  }
  result.resumed_from_panel = start_panel;

  const StatsBlockView view{result.flat.data() + layout.xy_offset(),
                            result.flat.data() + layout.xx_offset(),
                            result.flat.data() + layout.qtx_offset(), m};

  // The prefetcher keeps the next panel's disk read in flight while the
  // kernels fold the current one. The non-prefetch path reads inline
  // (simpler failure surface; used by tests to isolate kernel behavior).
  std::optional<PanelPrefetcher> prefetcher;
  if (options.prefetch && start_panel < num_panels) {
    prefetcher.emplace(source, start_panel);
  }
  PackedGenotypeMatrix inline_panel(0, 0);
  Vector y_panel;
  Matrix q_panel;

  for (int64_t p = start_panel; p < num_panels; ++p) {
    const PackedGenotypeMatrix* panel = nullptr;
    if (prefetcher.has_value()) {
      DASH_ASSIGN_OR_RETURN(panel, prefetcher->Next());
    } else {
      DASH_RETURN_IF_ERROR(source->ReadPanel(p, &inline_panel));
      panel = &inline_panel;
    }
    const int64_t r0 = source->panel_begin_row(p);
    const int64_t rows = panel->rows();
    DASH_CHECK(rows == source->panel_rows(p) && panel->cols() == m)
        << "panel " << p << " shape drifted from the source's geometry";

    // Slice this panel's rows of y and q into dense scratch the packed
    // kernel can consume directly (q rows are contiguous, one memcpy).
    y_panel.assign(y.begin() + r0, y.begin() + r0 + rows);
    if (q_panel.rows() != rows || q_panel.cols() != k) {
      q_panel = Matrix(rows, k);
    }
    if (k > 0) {  // with no covariates both buffers are null
      std::memcpy(q_panel.data(), q.row_data(r0),
                  static_cast<size_t>(rows * k) * sizeof(double));
    }

    ComputeStatsColumnsPacked(*panel, y_panel, q_panel, 0, m, view,
                              options.pool);
    ++result.panels_streamed;

    if (options.panel_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.panel_delay_ms));
    }

    const bool checkpoint_due =
        !options.checkpoint_path.empty() && p + 1 < num_panels &&
        (p + 1) % options.checkpoint_every_panels == 0;
    if (checkpoint_due) {
      ScanCheckpoint ckpt;
      ckpt.key = key;
      ckpt.panels_done = p + 1;
      ckpt.flat = result.flat;
      DASH_RETURN_IF_ERROR(
          SaveScanCheckpoint(options.checkpoint_path, ckpt));
      ++result.checkpoints_written;
    }

    // Injected crash: stop mid-stream with whatever checkpoints a real
    // SIGKILL would have left (none flushed for this partial tail).
    if (options.fail_after_panels >= 0 &&
        result.panels_streamed >= options.fail_after_panels) {
      return UnavailableError(
          "injected streaming failure after " +
          std::to_string(result.panels_streamed) + " panels (panel " +
          std::to_string(p) + ")");
    }
  }

  // Header statistics come from the RAM-resident factors, after the
  // panel loop — same expressions, same order as the in-memory path
  // (FillHeader in suff_stats.cc), so the header is bit-identical too.
  result.flat[static_cast<size_t>(layout.yy_offset())] = SquaredNorm(y);
  const Vector qty = TransposeMatVec(q, y);
  std::copy(qty.begin(), qty.end(), result.flat.begin() + layout.qty_offset());
  return result;
}

}  // namespace dash
