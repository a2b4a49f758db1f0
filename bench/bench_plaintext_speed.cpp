// E2 / Figure 1 — "at plaintext speed": secure-vs-plaintext runtime
// ratio as N and M grow, per aggregation mode — plus the scan-kernel
// micro-bench behind it (--kernel-bench).
//
// The paper's claim is that DASH's secure scan costs essentially the
// same as the plaintext distributed scan: per-party compute is identical
// and the SMC layer touches only O(M) aggregates, independent of N. The
// E2 series should show the ratio tending to ~1 as N grows.
//
// --kernel-bench times the sufficient-statistics kernels themselves:
// the original scalar kernel (ComputeLocalStatsScalar), the portable
// blocked kernel pinned to the portable ISA (`blocked/*` — the
// machine-normalization denominator), the auto-dispatched zero-copy
// arena form (`flat/*`), every SIMD dense path this CPU can run
// (`avx2/*`, `avx512/*`), and the 2-bit packed-genotype popcount
// kernels in pre-packed steady state (`packed/*`,
// `packed_<isa>/genotype`, and `packed*/rare` on a rare-variant draw
// whose checksum is asserted against the sparse scalar kernel) — plus
// the sparse-storage kernels, where
// `sparse_packed/genotype` is ComputeLocalStatsSparseFlat's dosage
// repack path. Every variant's result checksum is asserted equal to the
// scalar kernel's — the bench doubles as a bit-identity smoke test.
// With --json PATH the numbers are written in the bench_json.h schema
// for bench/compare_bench.py; the JSON carries an `isas` list so the
// gate can skip (not fail) ISA entries a smaller runner cannot produce.
//
// --stream (with --kernel-bench) adds the out-of-core path: the
// genotype draw is written to a temporary DASHPACK study and streamed
// back through the checkpointed panel loop (core/streaming_stats.h) as
// `stream_file/genotype`. Its checksum is asserted equal to the scalar
// kernel's, extending the bit-identity smoke across the disk round
// trip. compare_bench.py treats `stream_*` as I/O-bound
// info rows: reported, checksum-compared, never speed-gated.
//
// Usage:
//   bench_plaintext_speed                      # E2 ratio series
//   bench_plaintext_speed --kernel-bench [--stream]
//     [--n 100000] [--m 10000] [--k 10] [--reps 1] [--json BENCH_scan.json]

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/association_scan.h"
#include "core/secure_scan.h"
#include "core/streaming_stats.h"
#include "core/suff_stats.h"
#include "data/genotype_generator.h"
#include "data/panel_stream.h"
#include "data/workloads.h"
#include "linalg/packed_matrix.h"
#include "util/isa.h"
#include "util/stopwatch.h"

namespace {

using namespace dash;

// ---------------------------------------------------------------- E2 --

struct Row {
  int64_t n;
  int64_t m;
  double plain_seconds;
  double ratio[3];
};

double TimePlain(const ScanWorkload& w) {
  const PooledData pooled = PoolParties(w.parties).value();
  Stopwatch timer;
  const auto r = AssociationScan(pooled.x, pooled.y, pooled.c);
  DASH_CHECK(r.ok());
  return timer.ElapsedSeconds();
}

double TimeSecure(const ScanWorkload& w, AggregationMode mode) {
  SecureScanOptions opts;
  opts.aggregation = mode;
  opts.frac_bits = 32;  // leaves ring headroom for the largest N here
  const SecureAssociationScan scan(opts);
  Stopwatch timer;
  const auto r = scan.Run(w.parties);
  DASH_CHECK(r.ok()) << r.status();
  return timer.ElapsedSeconds();
}

ScanWorkload MakeSized(int64_t n_total, int64_t m, uint64_t seed) {
  RDemoOptions opts;
  opts.n1 = n_total * 2 / 9;
  opts.n2 = n_total * 4 / 9;
  opts.n3 = n_total - opts.n1 - opts.n2;
  opts.num_variants = m;
  opts.num_covariates = 4;
  opts.seed = seed;
  return MakeRDemoWorkload(opts);
}

void PrintRows(const std::vector<Row>& rows) {
  std::printf("%-8s %-8s %12s | %9s %9s %9s\n", "N", "M", "plain(s)",
              "public", "additive", "masked");
  for (const Row& r : rows) {
    std::printf("%-8lld %-8lld %12.4f | %9.3f %9.3f %9.3f\n",
                static_cast<long long>(r.n), static_cast<long long>(r.m),
                r.plain_seconds, r.ratio[0], r.ratio[1], r.ratio[2]);
  }
}

Row Measure(int64_t n, int64_t m, uint64_t seed) {
  const ScanWorkload w = MakeSized(n, m, seed);
  Row row;
  row.n = n;
  row.m = m;
  row.plain_seconds = TimePlain(w);
  const AggregationMode modes[3] = {AggregationMode::kPublicShare,
                                    AggregationMode::kAdditive,
                                    AggregationMode::kMasked};
  for (int i = 0; i < 3; ++i) {
    row.ratio[i] = TimeSecure(w, modes[i]) / row.plain_seconds;
  }
  return row;
}

int RunE2() {
  std::printf("=== E2 (Figure 1): secure/plaintext runtime ratio ===\n");
  std::printf("P = 3 parties, K = 4; ratio = secure wall / plaintext wall\n\n");

  std::printf("-- sweep N (M = 2000) --\n");
  std::vector<Row> by_n;
  for (const int64_t n : {2000, 4000, 8000, 16000}) {
    by_n.push_back(Measure(n, 2000, 11 + static_cast<uint64_t>(n)));
  }
  PrintRows(by_n);

  std::printf("\n-- sweep M (N = 4500) --\n");
  std::vector<Row> by_m;
  for (const int64_t m : {500, 2000, 8000}) {
    by_m.push_back(Measure(4500, m, 29 + static_cast<uint64_t>(m)));
  }
  PrintRows(by_m);

  std::printf(
      "\nexpected shape: ratios -> ~1 as N grows (per-party compute is the\n"
      "same kernel as plaintext; SMC cost is O(M), independent of N).\n");
  return 0;
}

// ------------------------------------------------------ kernel bench --

struct KernelArgs {
  int64_t n = 100000;
  int64_t m = 10000;
  int64_t k = 10;
  int reps = 1;
  bool stream = false;
  std::string json_path;
};

// Best-of-reps wall time for one kernel invocation; the result checksum
// of the last run is returned through *checksum.
template <typename Fn>
double TimeBest(int reps, uint64_t* checksum, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    *checksum = fn();
    const double s = timer.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

void AddEntry(std::vector<dash_bench::BenchEntry>* entries,
              const KernelArgs& a, const std::string& name, double seconds,
              uint64_t checksum) {
  dash_bench::BenchEntry e;
  e.name = name;
  e.n = a.n;
  e.m = a.m;
  e.k = a.k;
  e.ns = seconds * 1e9;
  // Effective streaming rate over the N x M design sweep.
  e.gb_per_s = static_cast<double>(a.n) * static_cast<double>(a.m) * 8.0 /
               (seconds * 1e9);
  e.checksum = checksum;
  entries->push_back(e);
  std::printf("  %-24s %10.3f s  %8.2f GB/s  checksum %016" PRIx64 "\n",
              name.c_str(), seconds, e.gb_per_s, checksum);
}

// Times scalar vs portable-blocked vs auto-flat vs each SIMD dense path
// this CPU can run, and asserts all produce the identical wire image.
// Returns the scalar reference checksum.
uint64_t BenchDense(const KernelArgs& a, const std::string& dataset,
                    const Matrix& x, const Vector& y, const Matrix& q,
                    std::vector<dash_bench::BenchEntry>* entries) {
  std::printf("-- %s (N=%lld M=%lld K=%lld) --\n", dataset.c_str(),
              static_cast<long long>(a.n), static_cast<long long>(a.m),
              static_cast<long long>(a.k));
  uint64_t scalar_sum = 0;
  uint64_t blocked_sum = 0;
  uint64_t flat_sum = 0;
  const double scalar_s = TimeBest(a.reps, &scalar_sum, [&] {
    return WireChecksum(ComputeLocalStatsScalar(x, y, q));
  });
  AddEntry(entries, a, "scalar/" + dataset, scalar_s, scalar_sum);
  // `blocked/*` is the pre-SIMD portable blocked kernel, pinned to the
  // portable table and the dense (no-repack) path: the denominator the
  // packed kernels' >=5x claim is measured against.
  double blocked_s = 0.0;
  {
    ScopedIsaForTesting pin(Isa::kPortable);
    blocked_s = TimeBest(a.reps, &blocked_sum, [&] {
      return WireChecksum(ComputeLocalStatsDense(x, y, q));
    });
  }
  AddEntry(entries, a, "blocked/" + dataset, blocked_s, blocked_sum);
  const double flat_s = TimeBest(a.reps, &flat_sum, [&] {
    return WireChecksum(ComputeLocalStatsFlat(x, y, q));
  });
  AddEntry(entries, a, "flat/" + dataset, flat_s, flat_sum);
  DASH_CHECK(scalar_sum == blocked_sum)
      << "blocked kernel diverged from scalar on " << dataset;
  DASH_CHECK(scalar_sum == flat_sum)
      << "flat kernel diverged from scalar on " << dataset;
  for (const Isa isa : AvailableIsas()) {
    if (isa == Isa::kPortable) continue;
    ScopedIsaForTesting pin(isa);
    uint64_t isa_sum = 0;
    const double isa_s = TimeBest(a.reps, &isa_sum, [&] {
      return WireChecksum(ComputeLocalStatsDense(x, y, q));
    });
    AddEntry(entries, a,
             std::string(IsaName(isa)) + "/" + dataset, isa_s,
             isa_sum);
    DASH_CHECK(scalar_sum == isa_sum)
        << IsaName(isa) << " dense kernel diverged from "
        << "scalar on " << dataset;
  }
  std::printf("  speedup blocked/scalar: %.2fx, flat/scalar: %.2fx\n\n",
              scalar_s / blocked_s, scalar_s / flat_s);
  return scalar_sum;
}

// Times the packed-genotype popcount kernel in pre-packed steady state
// (the resident scan service packs once per cohort in Phase 1 and
// reuses the packed matrix across scans) on every ISA this CPU can
// run, plus the auto-dispatched default, as `packed/<dataset>` and
// `packed_<isa>/<dataset>`. Each checksum must equal scalar_sum.
void BenchPacked(const KernelArgs& a, const std::string& dataset,
                 const PackedGenotypeMatrix& packed, const Vector& y,
                 const Matrix& q, uint64_t scalar_sum,
                 std::vector<dash_bench::BenchEntry>* entries) {
  std::printf("-- %s, 2-bit packed storage (density %.4f) --\n",
              dataset.c_str(), packed.Density());
  uint64_t packed_sum = 0;
  const double packed_s = TimeBest(a.reps, &packed_sum, [&] {
    return WireChecksum(ComputeLocalStatsPackedFlat(packed, y, q));
  });
  AddEntry(entries, a, "packed/" + dataset, packed_s, packed_sum);
  DASH_CHECK(scalar_sum == packed_sum)
      << "packed kernel diverged from scalar on " << dataset;
  for (const Isa isa : AvailableIsas()) {
    ScopedIsaForTesting pin(isa);
    uint64_t isa_sum = 0;
    const double isa_s = TimeBest(a.reps, &isa_sum, [&] {
      return WireChecksum(ComputeLocalStatsPackedFlat(packed, y, q));
    });
    AddEntry(entries, a,
             std::string("packed_") + IsaName(isa) + "/" +
                 dataset,
             isa_s, isa_sum);
    DASH_CHECK(scalar_sum == isa_sum)
        << "packed " << IsaName(isa)
        << " kernel diverged from scalar on " << dataset;
  }
  std::printf("\n");
}

// The `rare` dataset: MAF 0.001-0.02, drawn sparse and packed from the
// sparse form, so no dense N x M matrix is built. Every 8-column group
// sits below the AVX-512 kernel's lane crossover, so these rows time
// the pair replay, whose flops are proportional to nnz (claim C6).
void BenchPackedRare(const KernelArgs& a, const Vector& y, const Matrix& q,
                     std::vector<dash_bench::BenchEntry>* entries) {
  GenotypeOptions gopts;
  gopts.num_samples = a.n;
  gopts.num_variants = a.m;
  gopts.maf_min = 0.001;
  gopts.maf_max = 0.02;
  gopts.seed = 0x4a7e;
  const SparseColumnMatrix sparse = GenerateSparseGenotypes(gopts);
  const uint64_t scalar_sum =
      WireChecksum(ComputeLocalStatsSparseScalar(sparse, y, q));
  BenchPacked(a, "rare", PackedGenotypeMatrix::FromSparse(sparse), y, q,
              scalar_sum, entries);
}

// Round-trips the genotype draw through a temporary DASHPACK study and
// times the out-of-core panel loop. The interesting assertion is not
// the wall time (I/O-bound; compare_bench.py reports `stream_*` rows as
// info only) but the checksum: streamed-from-disk must equal the
// in-memory scalar kernel bit for bit.
void BenchStream(const KernelArgs& a, const Matrix& x_geno, const Vector& y,
                 const Matrix& q, uint64_t scalar_sum,
                 std::vector<dash_bench::BenchEntry>* entries) {
  const PackedGenotypeMatrix packed = PackedGenotypeMatrix::FromDense(x_geno);
  const std::string path =
      "/tmp/dash_bench_stream_" + std::to_string(getpid()) + ".dpk";
  const Status written = WritePackedStudy(path, packed, y, q, /*tag=*/0xbe9c5);
  DASH_CHECK(written.ok()) << written;
  std::printf("-- genotype, out-of-core DASHPACK stream --\n");
  uint64_t stream_sum = 0;
  // Open inside the timed region: the reader's header/factor load is
  // part of what an out-of-core scan pays per study.
  const double stream_s = TimeBest(a.reps, &stream_sum, [&] {
    auto reader = PackedStudyReader::Open(path);
    DASH_CHECK(reader.ok()) << reader.status();
    const auto r = ComputeLocalStatsStreamed(reader.value().get(), y, q);
    DASH_CHECK(r.ok()) << r.status();
    return WireChecksum(r.value().flat);
  });
  AddEntry(entries, a, "stream_file/genotype", stream_s, stream_sum);
  DASH_CHECK(scalar_sum == stream_sum)
      << "stream_file streamed result diverged from scalar";
  std::remove(path.c_str());
  std::printf("\n");
}

int RunKernelBench(const KernelArgs& a) {
#ifndef __OPTIMIZE__
  std::printf(
      "WARNING: unoptimized build — kernel numbers are meaningless; "
      "configure with -DDASH_RELEASE_FLAGS=\"-O3 -DNDEBUG\" and "
      "-DCMAKE_BUILD_TYPE=Release.\n\n");
#endif
  std::printf("=== scan-kernel bench: scalar vs blocked/zero-copy ===\n\n");
  std::vector<dash_bench::BenchEntry> entries;
  Rng rng(0xbe9c5);
  const Vector y = GaussianVector(a.n, &rng);
  const Matrix q = GaussianMatrix(a.n, a.k, &rng);

  {
    const Matrix x = GaussianMatrix(a.n, a.m, &rng);
    BenchDense(a, "gaussian", x, y, q, &entries);
  }

  GenotypeOptions gopts;
  gopts.num_samples = a.n;
  gopts.num_variants = a.m;
  gopts.seed = 0x9e107;
  const Matrix x_geno = GenerateGenotypes(gopts);
  const uint64_t geno_scalar_sum =
      BenchDense(a, "genotype", x_geno, y, q, &entries);

  BenchPacked(a, "genotype", PackedGenotypeMatrix::FromDense(x_geno), y, q,
              geno_scalar_sum, &entries);
  BenchPackedRare(a, y, q, &entries);

  // Sparse-storage kernels on the same genotype draw. The optimized
  // path (ComputeLocalStatsSparseFlat) repacks dosage columns into the
  // 2-bit layout and runs the popcount kernel.
  const SparseColumnMatrix x_sparse = SparseColumnMatrix::FromDense(x_geno);
  std::printf("-- genotype, sparse storage (density %.2f) --\n",
              x_sparse.Density());
  uint64_t sp_scalar_sum = 0;
  uint64_t sp_packed_sum = 0;
  const double sp_scalar_s = TimeBest(a.reps, &sp_scalar_sum, [&] {
    return WireChecksum(ComputeLocalStatsSparseScalar(x_sparse, y, q));
  });
  AddEntry(&entries, a, "sparse_scalar/genotype", sp_scalar_s, sp_scalar_sum);
  const double sp_packed_s = TimeBest(a.reps, &sp_packed_sum, [&] {
    return WireChecksum(ComputeLocalStatsSparseFlat(x_sparse, y, q));
  });
  AddEntry(&entries, a, "sparse_packed/genotype", sp_packed_s,
           sp_packed_sum);
  DASH_CHECK(sp_scalar_sum == sp_packed_sum)
      << "sparse packed kernel diverged from sparse scalar";
  DASH_CHECK(sp_scalar_sum == geno_scalar_sum)
      << "sparse scalar diverged from dense scalar on the same data";
  std::printf("  speedup sparse packed/scalar: %.2fx\n\n",
              sp_scalar_s / sp_packed_s);

  if (a.stream) {
    BenchStream(a, x_geno, y, q, geno_scalar_sum, &entries);
  }

  if (!a.json_path.empty()) {
    std::vector<std::string> isa_names;
    for (const Isa isa : AvailableIsas()) {
      isa_names.emplace_back(IsaName(isa));
    }
    if (!dash_bench::WriteBenchJson(a.json_path, "scan_kernels", entries,
                                    isa_names)) {
      std::fprintf(stderr, "failed to write %s\n", a.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", a.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool kernel_bench = false;
  KernelArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_i64 = [&](int64_t* out) {
      DASH_CHECK(i + 1 < argc) << arg << " needs a value";
      *out = std::strtoll(argv[++i], nullptr, 10);
    };
    if (arg == "--kernel-bench") {
      kernel_bench = true;
    } else if (arg == "--stream") {
      args.stream = true;
    } else if (arg == "--n") {
      next_i64(&args.n);
    } else if (arg == "--m") {
      next_i64(&args.m);
    } else if (arg == "--k") {
      next_i64(&args.k);
    } else if (arg == "--reps") {
      int64_t r = 1;
      next_i64(&r);
      args.reps = static_cast<int>(r);
    } else if (arg == "--json") {
      DASH_CHECK(i + 1 < argc) << "--json needs a path";
      args.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  return kernel_bench ? RunKernelBench(args) : RunE2();
}
