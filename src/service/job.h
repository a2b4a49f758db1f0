// Scan jobs as the resident daemon (examples/dash_partyd.cpp) sees
// them: what a client submits, what the scheduler tracks, what the
// control plane reports back.
//
// A job names a deterministic synthetic cohort (the same
// data/workloads.h generator every example and test uses), so all P
// daemons — and the in-process simulator the CI job cross-checks
// against — derive identical party slices from the spec alone. The
// job id doubles as the transport session id (transport/session_mux.h):
// clients submit the SAME id to every daemon, and that id is what keeps
// concurrent jobs' frames and mask keys apart on the shared mesh.

#ifndef DASH_SERVICE_JOB_H_
#define DASH_SERVICE_JOB_H_

#include <cstdint>
#include <string>

#include "core/secure_scan.h"
#include "util/status.h"

namespace dash {

struct JobSpec {
  // Logical session id on the mesh (1..kFrameMaxSessionId). Chosen by
  // the CLIENT and submitted identically to every party's daemon — the
  // parties of one job must agree on it, exactly like a port number.
  uint32_t job_id = 0;

  // Client-declared cohort identity, the Phase-1 cache key. Jobs that
  // share a cohort_key (and genuinely the same cohort data) reuse
  // pooled-QR state and skip Phase 1. A mislabeled key is safe: the
  // cache's content fingerprint misses and the full protocol runs.
  std::string cohort_key = "default";

  // Synthetic-cohort shape (data/workloads.h). The PERMANENT covariates
  // and samples are a function of (cohort_key's data below), while
  // variants may differ between scans of one cohort.
  int64_t variants = 64;
  int64_t samples_per_party = 96;
  int64_t covariates = 3;
  uint64_t data_seed = 7;

  // Protocol knobs.
  AggregationMode mode = AggregationMode::kMasked;
  uint64_t protocol_seed = 0xda5b;

  // Run this party's side out-of-core: pack the cohort slice to a
  // DASHPACK study under the daemon's --checkpoint-dir (reusing the
  // file when its fingerprint already matches), stream the genotype
  // panels through the checkpointed scan loop, and resume from the last
  // durable checkpoint if a previous daemon died mid-job on this
  // cohort. The revealed result is bit-identical to the in-memory path,
  // so streamed and non-streamed daemons may serve the same job.
  bool stream = false;

  // Wall-clock budget for the RUNNING phase; 0 = none. On expiry the
  // scheduler aborts the job's session, which surfaces as
  // DeadlineExceeded here and as a scoped session abort at the peers.
  int64_t deadline_ms = 0;
};

// Largest cohort one job may name, in genotype cells: P parties x
// samples_per_party x variants. Every daemon builds the whole pooled
// cohort from the spec (data/workloads.h), so this bounds one job's
// genotype matrix at 2 GiB of doubles. The largest smoke job,
// 3 x 2,048 x 512, is about 3.1M cells.
inline constexpr int64_t kMaxJobCells = int64_t{1} << 28;

// Parses the SUBMIT verb's arguments (service/control_server.h):
//   <job_id> <cohort> <variants> <samples> <covariates> <data_seed>
//   <mode> <deadline_ms> [protocol_seed] [stream]
// with <mode> an AggregationModeName. Anything else, a missing field or
// a token after `stream` fails InvalidArgument. The SUBMIT verb,
// `dash_partyd --simulate-job` and the per-party CLIs share it, so they
// accept and refuse the same lines. Shape limits are ValidateJobSpec's.
Result<JobSpec> ParseJobSpec(const std::string& args);

// InvalidArgument unless a cohort of `num_parties` parties can be built
// from `spec`: num_parties, variants, samples_per_party and covariates
// all >= 1, and at most kMaxJobCells genotype cells. The SUBMIT verb and
// `dash_partyd --simulate-job` call it before anything is built;
// JobScheduler::Submit does not.
Status ValidateJobSpec(const JobSpec& spec, int num_parties);

enum class JobState {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
};

// Stable name, e.g. "running".
const char* JobStateName(JobState state);

// Everything the control plane can say about one job.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::kQueued;

  // Failure cause when kFailed / kCancelled.
  Status error = Status::Ok();

  // Result identity (core/scan_result.h FNV-1a) when kDone — what the
  // client compares across parties and against the simulator.
  uint64_t checksum = 0;

  // Per-job protocol cost, attributed by the job's own SessionChannel
  // metrics (not the mesh-wide totals). phase1_cache_hit is the
  // observable "Phase 1 was skipped" signal.
  SecureScanMetrics metrics;

  double queue_seconds = 0.0;  // submit -> worker pickup
  double run_seconds = 0.0;    // worker pickup -> terminal state
};

}  // namespace dash

#endif  // DASH_SERVICE_JOB_H_
