// Out-of-core sufficient statistics with checkpoint/resume
// (DESIGN.md §15).
//
// ComputeLocalStatsStreamed is the streaming sibling of
// ComputeLocalStatsPackedFlat: it folds the genotype matrix into the
// wire-order accumulator one kStudyPanelRows-row panel at a time from a
// PanelSource (a DASHPACK file, or an in-memory matrix), instead of
// requiring all of X resident. Its correctness contract is the strong
// one the rest of the tree relies on:
//
//   BIT-IDENTITY. The streamed flat vector equals the in-memory
//   ComputeLocalStatsPackedFlat result bit for bit, on every kernel
//   ISA. This falls out of the kernels' accumulate-into-out contract
//   (suff_stats.h): each per-element IEEE-754 add chain is spilled to
//   the arena at panel boundaries and re-seeded by the next call, and
//   panels are exactly the kernels' own row-panel granularity
//   (kStatsRowPanel == kStudyPanelRows), so streaming changes where
//   the accumulator LIVES between rows, never the order or rounding of
//   any add. X·X is integer-exact throughout. y and the covariate
//   block stay RAM-resident; the yy/Qᵀy header is computed from them
//   after the panel loop, exactly as the in-memory path does.
//
//   RESUME. With a checkpoint path set, the accumulator is snapshotted
//   every checkpoint_every_panels panels (atomic + durable;
//   core/scan_checkpoint.h). On entry, a valid snapshot whose key
//   matches this study and shape seeds the accumulator and the panel
//   cursor; anything invalid or mismatched is ignored (fresh start).
//   Because a snapshot IS the accumulator mid-chain, a resumed run's
//   result is bit-identical to an uninterrupted one.
//
// Panels are always read ahead on PanelPrefetcher's I/O thread (double
// buffering), so disk reads overlap kernel compute.

#ifndef DASH_CORE_STREAMING_STATS_H_
#define DASH_CORE_STREAMING_STATS_H_

#include <cstdint>
#include <string>

#include "data/panel_stream.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dash {

struct StreamingStatsOptions {
  // Empty disables checkpointing entirely.
  std::string checkpoint_path;

  // Snapshot cadence, in panels of kStudyPanelRows rows. Each snapshot
  // is an fsynced rewrite of the accumulator, so the cadence trades
  // re-streamed panels after a crash against checkpoint I/O.
  int64_t checkpoint_every_panels = 8;

  // Per-panel stall (test hook so the kill smokes can reliably SIGKILL
  // a party mid-stream). 0 disables.
  int64_t panel_delay_ms = 0;

  // Shards column blocks of each panel across the pool (bit-identity
  // is unaffected: add chains never cross column blocks). May be null.
  ThreadPool* pool = nullptr;
};

struct StreamingStatsResult {
  Vector flat;                    // wire-order summand (StatsWireLayout)
  int64_t num_samples = 0;        // == source->num_samples()
  int64_t resumed_from_panel = 0; // 0 on a fresh start
  int64_t panels_streamed = 0;    // panels folded in by THIS run
  int64_t checkpoints_written = 0;
};

// Streams the study's panels into a local wire-order summand. `y` and
// `q` are this party's RAM-resident phenotype and projected-covariate
// rows (q = Q_p, n x k); both must match source->num_samples(). The
// checkpoint (if any) is left in place on success — the caller owns
// its lifecycle (RunPartySecureScan removes it once the whole round
// has succeeded, so a crash after stats but before the secure sum
// still resumes for free).
Result<StreamingStatsResult> ComputeLocalStatsStreamed(
    PanelSource* source, const Vector& y, const Matrix& q,
    const StreamingStatsOptions& options = {});

}  // namespace dash

#endif  // DASH_CORE_STREAMING_STATS_H_
