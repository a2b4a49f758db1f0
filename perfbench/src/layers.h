// Standalone calls into each layer's public entry points, on the same
// inputs a scan sees, for the traced run's per-layer breakdown.
//
// All P parties run each step at the same time, released by a barrier,
// so they share memory bandwidth and cores the way the real scan's
// parties do. Each step is timed per party and repeated; the median is
// reported. Steps, in scan order (what each one covers is what the
// scan does in the gap before the named round; see metrics.h):
//
//   data.open     PackedStudyReader::Open            (before phase1_probe)
//   data.read     ReadPanel over every panel         (information only)
//   core.rfactor  PartyLocalRFactor                  (before phase1_rfactor)
//   core.localq   CombineRFactors + InvertUpperTriangular + PartyLocalQ
//   core.stats    ComputeLocalStatsPackedFlat, in RAM
//   core.streamed ComputeLocalStatsStreamed, from the file (before
//                 phase0b_keyagree, together with core.localq)
//   mpc.encode    FixedPointCodec::EncodeSecretVector
//   mpc.mask      ApplyPairwiseMasks + MaskAndSerialize  (before phase2)
//   mpc.open      one peer payload parsed + OpenMaskedTotal
//   core.finalize UnflattenStats + FinalizeScan      (before phase4_commit)
//   core.write    ScanResult::WriteCsv               (after phase4_commit)
//
// The masked vectors are exchanged between the party threads in memory
// with pairwise-consistent keys, so the opened total is the real one:
// the finalized result must reproduce the scan's checksum, and the
// streamed summand must equal the in-RAM one bit for bit.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "util/status.h"

namespace perfbench {

struct LayerTimes {
  double open_s = 0.0;
  double read_s = 0.0;
  int64_t read_bytes = 0;
  double rfactor_s = 0.0;
  double localq_s = 0.0;
  double stats_s = 0.0;
  double streamed_s = 0.0;
  int64_t packed_bytes = 0;  // genotype bytes the stats kernel consumes
  double encode_s = 0.0;
  double mask_s = 0.0;
  int64_t mask_bytes = 0;  // serialized masked summand
  double open_mpc_s = 0.0;
  double finalize_s = 0.0;
  double write_s = 0.0;
};

struct LayerOptions {
  uint64_t mask_seed = 1;
  // The scan's result checksum the finalize step must reproduce.
  uint64_t expected_checksum = 0;
  // Per-party CSV output path for the write step.
  std::vector<std::string> csv_paths;
};

// One entry per party, from that party's DASHPACK study file.
dash::Result<std::vector<LayerTimes>> MeasureLayers(
    const std::vector<std::string>& study_paths, const LayerOptions& options);

// data.*, core.* and mpc.* metrics: the mean over parties.
void AddLayerMetrics(const std::vector<LayerTimes>& layers, MetricSet* out);

// The part of one window's gaps the standalone calls of its party
// explain. Cache-hit jobs skip Phase 1 (no phase1_rfactor round), and
// only the scan workloads write a CSV in their tail.
double AttributedSeconds(const LayerTimes& layers, const WindowBreakdown& w,
                         bool writes_csv);

// Mean over windows of (gaps - attributed): the time neither a round
// span nor a standalone layer call accounts for.
double UnattributedSeconds(const RoundAccounting& acc,
                           const std::vector<LayerTimes>& layers,
                           bool writes_csv);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
