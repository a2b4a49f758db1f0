#include "service/job.h"

#include <sstream>
#include <string>

namespace dash {

Result<JobSpec> ParseJobSpec(const std::string& args) {
  std::istringstream in(args);
  JobSpec spec;
  std::string mode;
  in >> spec.job_id >> spec.cohort_key >> spec.variants >>
      spec.samples_per_party >> spec.covariates >> spec.data_seed >> mode >>
      spec.deadline_ms;
  if (in.fail()) {
    return InvalidArgumentError(
        "want <job_id> <cohort> <variants> <samples> <covariates> "
        "<data_seed> <mode> <deadline_ms> [protocol_seed] [stream]");
  }
  DASH_ASSIGN_OR_RETURN(spec.mode, ParseAggregationMode(mode));
  in >> spec.protocol_seed;  // optional; keeps the default on failure
  if (in.fail()) in.clear();  // no seed; "stream" may still follow
  std::string extra;
  if (in >> extra) {
    if (extra != "stream") {
      return InvalidArgumentError("unknown trailing token '" + extra +
                                  "' (only 'stream')");
    }
    spec.stream = true;
    if (in >> extra) {
      return InvalidArgumentError("unknown trailing token '" + extra +
                                  "' after 'stream'");
    }
  }
  return spec;
}

Status ValidateJobSpec(const JobSpec& spec, int num_parties) {
  if (num_parties < 1) {
    return InvalidArgumentError("a job needs at least one party, not " +
                                std::to_string(num_parties));
  }
  if (spec.variants < 1 || spec.samples_per_party < 1 ||
      spec.covariates < 1) {
    return InvalidArgumentError(
        "variants, samples and covariates must each be >= 1 (got " +
        std::to_string(spec.variants) + ", " +
        std::to_string(spec.samples_per_party) + ", " +
        std::to_string(spec.covariates) + ")");
  }
  // P * samples * variants <= cap, without overflowing: for positive
  // integers a * b <= c exactly when a <= c / b.
  const int64_t per_party_cap = kMaxJobCells / num_parties / spec.variants;
  if (spec.samples_per_party > per_party_cap) {
    return InvalidArgumentError(
        "cohort of " + std::to_string(num_parties) + " x " +
        std::to_string(spec.samples_per_party) + " samples x " +
        std::to_string(spec.variants) + " variants exceeds the " +
        std::to_string(kMaxJobCells) + "-cell job cap");
  }
  return Status::Ok();
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

}  // namespace dash
