// dash_pack: writes one party's slice of the deterministic GWAS
// workload as a DASHPACK packed study file (data/panel_stream.h) — the
// input of dash_party --stream and the daemon's streamed jobs.
//
//   $ dash_pack --party 0 --parties 3 --variants 2000 --samples 500
//               --data-seed 42 --out party0.dpk
//
// The same (--parties, --variants, --samples, --data-seed) tuple that
// dash_party uses to self-generate its data yields the same pooled
// study here, so a packed file and an in-memory run describe identical
// bytes: the file carries this party's y, covariate block C, and the
// 2-bit packed genotype panels, all checksummed. Alternatively
// --x/--y/--c read CSV inputs (data/matrix_io.h) for real data.

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "data/matrix_io.h"
#include "data/panel_stream.h"
#include "data/workloads.h"
#include "linalg/packed_matrix.h"
#include "util/strings.h"

namespace {

using namespace dash;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: dash_pack --out FILE\n"
      "  workload mode: --party P --parties N [--variants M]\n"
      "                 [--samples N-per-party] [--data-seed S]\n"
      "  csv mode:      --x genotypes.csv --y phenotype.csv --c covars.csv\n"
      "  [--tag T]  extra fingerprint salt (defaults to the data seed)\n");
}

int RealMain(int argc, char** argv) {
  int64_t party = -1;
  int64_t parties = 3;
  int64_t variants = 2000;
  int64_t samples_per_party = 500;
  int64_t data_seed = 42;
  int64_t tag = -1;
  std::string out_path, x_path, y_path, c_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const auto next_i64 = [&](int64_t* out) {
      const char* value = next();
      if (value == nullptr) return false;
      auto parsed = ParseInt64(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     parsed.status().ToString().c_str());
        return false;
      }
      *out = parsed.value();
      return true;
    };
    const auto next_str = [&](std::string* out) {
      const char* value = next();
      if (value == nullptr) return false;
      *out = value;
      return true;
    };
    if (arg == "--party") {
      if (!next_i64(&party)) return 2;
    } else if (arg == "--parties") {
      if (!next_i64(&parties)) return 2;
    } else if (arg == "--variants") {
      if (!next_i64(&variants)) return 2;
    } else if (arg == "--samples") {
      if (!next_i64(&samples_per_party)) return 2;
    } else if (arg == "--data-seed") {
      if (!next_i64(&data_seed)) return 2;
    } else if (arg == "--tag") {
      if (!next_i64(&tag)) return 2;
    } else if (arg == "--out") {
      if (!next_str(&out_path)) return 2;
    } else if (arg == "--x") {
      if (!next_str(&x_path)) return 2;
    } else if (arg == "--y") {
      if (!next_str(&y_path)) return 2;
    } else if (arg == "--c") {
      if (!next_str(&c_path)) return 2;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "--out is required\n");
    PrintUsage();
    return 2;
  }

  Matrix x(0, 0);
  Vector y;
  Matrix c(0, 0);
  const bool csv_mode = !x_path.empty() || !y_path.empty() || !c_path.empty();
  if (csv_mode) {
    if (x_path.empty() || y_path.empty() || c_path.empty()) {
      std::fprintf(stderr, "csv mode needs all of --x, --y, --c\n");
      return 2;
    }
    auto xr = ReadMatrixCsv(x_path);
    auto yr = ReadVectorCsv(y_path);
    auto cr = ReadMatrixCsv(c_path);
    for (const Status& s :
         {xr.ok() ? Status::Ok() : xr.status(),
          yr.ok() ? Status::Ok() : yr.status(),
          cr.ok() ? Status::Ok() : cr.status()}) {
      if (!s.ok()) {
        std::fprintf(stderr, "read: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    x = std::move(xr).value();
    y = std::move(yr).value();
    c = std::move(cr).value();
  } else {
    if (party < 0 || party >= parties) {
      std::fprintf(stderr, "--party must be in [0, %" PRId64 ")\n", parties);
      return 2;
    }
    GwasWorkloadOptions data_options;
    data_options.party_sizes.assign(static_cast<size_t>(parties),
                                    samples_per_party);
    data_options.num_variants = variants;
    data_options.seed = static_cast<uint64_t>(data_seed);
    auto workload = MakeGwasWorkload(data_options);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    PartyData mine =
        std::move(workload.value().parties[static_cast<size_t>(party)]);
    x = std::move(mine.x);
    y = std::move(mine.y);
    c = std::move(mine.c);
  }

  std::optional<PackedGenotypeMatrix> packed =
      PackedGenotypeMatrix::TryFromDense(x);
  if (!packed.has_value()) {
    std::fprintf(stderr,
                 "genotypes are not hard calls (values outside {0,1,2}); "
                 "DASHPACK stores 2-bit dosages only\n");
    return 1;
  }
  const uint64_t file_tag =
      tag >= 0 ? static_cast<uint64_t>(tag) : static_cast<uint64_t>(data_seed);
  const Status st = WritePackedStudy(out_path, *packed, y, c, file_tag);
  if (!st.ok()) {
    std::fprintf(stderr, "write: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("packed study     %s\n", out_path.c_str());
  std::printf("samples          %" PRId64 "\n", packed->rows());
  std::printf("variants         %" PRId64 "\n", packed->cols());
  std::printf("covariates       %" PRId64 "\n", c.cols());
  std::printf("panels           %" PRId64 " x %" PRId64 " rows\n",
              (packed->rows() + kStudyPanelRows - 1) / kStudyPanelRows,
              kStudyPanelRows);
  std::printf("fingerprint      %016" PRIx64 "\n",
              StudyFingerprint(*packed, y, c, file_tag));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
