#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "common.h"
#include "core/party_local.h"
#include "core/scan_result.h"
#include "core/streaming_stats.h"
#include "core/suff_stats.h"
#include "data/panel_stream.h"
#include "data/party_split.h"
#include "linalg/qr.h"
#include "linalg/tsqr.h"
#include "mpc/fixed_point.h"
#include "mpc/masked_aggregation.h"
#include "net/serialization.h"
#include "util/chacha20.h"

namespace perfbench {
namespace {

// Repetitions of every step; each party reports its median.
constexpr int kReps = 5;

// One party's side of MeasureLayers. Every party passes the same
// sequence of barriers whatever happens, so a failing party cannot
// strand the others; after a failure the remaining steps are skipped.
class PartyLayers {
 public:
  struct Shared {
    explicit Shared(int parties)
        : barrier(parties),
          r_factors(static_cast<size_t>(parties)),
          samples(static_cast<size_t>(parties), 0),
          payloads(static_cast<size_t>(parties)) {}
    Barrier barrier;
    std::atomic<bool> failed{false};
    std::vector<dash::Matrix> r_factors;
    std::vector<int64_t> samples;
    std::vector<std::vector<uint8_t>> payloads;
  };

  PartyLayers(int party, int parties, const std::string& path,
              const LayerOptions& options, Shared* shared)
      : party_(party),
        parties_(parties),
        path_(path),
        options_(options),
        shared_(shared) {}

  dash::Status Run(LayerTimes* out) {
    std::vector<std::vector<double>> t(11);
    for (int rep = 0; rep < kReps; ++rep) {
      RunOnce(rep, &t);
    }
    const auto med = [&](int i) { return Median(t[static_cast<size_t>(i)]); };
    out->open_s = med(0);
    out->read_s = med(1);
    out->rfactor_s = med(2);
    out->localq_s = med(3);
    out->stats_s = med(4);
    out->streamed_s = med(5);
    out->encode_s = med(6);
    out->mask_s = med(7);
    out->open_mpc_s = med(8);
    out->finalize_s = med(9);
    out->write_s = med(10);
    out->read_bytes = read_bytes_;
    out->packed_bytes = packed_bytes_;
    out->mask_bytes = mask_bytes_;
    return status_;
  }

 private:
  // Times `fn` after every party has arrived at the barrier.
  double Step(const std::function<dash::Status()>& fn) {
    shared_->barrier.Arrive();
    if (shared_->failed.load()) return 0.0;
    const int64_t start = NowNs();
    dash::Status s = fn();
    const double seconds = NsToSeconds(NowNs() - start);
    if (!s.ok()) {
      if (status_.ok()) status_ = s;
      shared_->failed.store(true);
    }
    return seconds;
  }

  void RunOnce(int rep, std::vector<std::vector<double>>* t) {
    const auto record = [&](int i, double s) {
      (*t)[static_cast<size_t>(i)].push_back(s);
    };
    record(0, Step([&]() -> dash::Status {
             DASH_ASSIGN_OR_RETURN(reader_,
                                   dash::PackedStudyReader::Open(path_));
             return dash::Status::Ok();
           }));
    dash::PackedGenotypeMatrix panel(0, 0);
    record(1, Step([&]() -> dash::Status {
             int64_t bytes = 0;
             for (int64_t p = 0; p < reader_->num_panels(); ++p) {
               DASH_RETURN_IF_ERROR(reader_->ReadPanel(p, &panel));
               bytes += panel.words_per_column() * 8 * panel.cols();
             }
             read_bytes_ = bytes;
             return dash::Status::Ok();
           }));
    if (rep == 0 && !shared_->failed.load()) {
      const dash::Status s = LoadResident();
      if (!s.ok()) {
        status_ = s;
        shared_->failed.store(true);
      }
    }
    record(2, Step([&]() -> dash::Status {
             DASH_ASSIGN_OR_RETURN(
                 shared_->r_factors[static_cast<size_t>(party_)],
                 dash::PartyLocalRFactor(party_data_));
             return dash::Status::Ok();
           }));
    dash::Matrix q;
    record(3, Step([&]() -> dash::Status {
             DASH_ASSIGN_OR_RETURN(const dash::Matrix r,
                                   dash::CombineRFactors(shared_->r_factors));
             DASH_ASSIGN_OR_RETURN(const dash::Matrix r_inverse,
                                   dash::InvertUpperTriangular(r));
             q = dash::PartyLocalQ(party_data_, r_inverse);
             return dash::Status::Ok();
           }));
    dash::Vector flat;
    record(4, Step([&]() -> dash::Status {
             flat = dash::ComputeLocalStatsPackedFlat(x_, party_data_.y, q);
             return dash::Status::Ok();
           }));
    record(5, Step([&]() -> dash::Status {
             DASH_ASSIGN_OR_RETURN(
                 const dash::StreamingStatsResult streamed,
                 dash::ComputeLocalStatsStreamed(reader_.get(), party_data_.y,
                                                 q));
             if (dash::WireChecksum(streamed.flat) != dash::WireChecksum(flat)) {
               return dash::DataLossError(
                   "streamed summand differs from the in-RAM summand");
             }
             return dash::Status::Ok();
           }));
    const dash::FixedPointCodec codec;
    const dash::Secret<dash::Vector> secret_flat(flat);
    dash::Secret<dash::RingVector> encoded;
    record(6, Step([&]() -> dash::Status {
             DASH_ASSIGN_OR_RETURN(encoded, codec.EncodeSecretVector(secret_flat));
             return dash::Status::Ok();
           }));
    const std::vector<dash::Secret<dash::ChaCha20Rng::Key>> keys = PairwiseKeys();
    dash::Masked<dash::RingVector> masked;
    std::vector<uint8_t> payload;
    record(7, Step([&]() -> dash::Status {
             masked = dash::ApplyPairwiseMasks(party_, encoded, keys,
                                               /*round_nonce=*/1);
             payload = dash::MaskAndSerialize(masked);
             return dash::Status::Ok();
           }));
    mask_bytes_ = static_cast<int64_t>(payload.size());
    shared_->payloads[static_cast<size_t>(party_)] = std::move(payload);
    // Every payload is visible once all parties pass the next barrier.
    // All but the last peer's are parsed untimed, as the scan parses them
    // inside its phase2_masked round; the last one and the open are timed.
    int last = parties_ - 1;
    if (last == party_) --last;
    std::vector<dash::RingVector> peers;
    shared_->barrier.Arrive();
    for (int q2 = 0; q2 < parties_ && !shared_->failed.load(); ++q2) {
      if (q2 == party_ || q2 == last) continue;
      const dash::Status s = ParsePeer(q2, &peers);
      if (!s.ok()) {
        status_ = s;
        shared_->failed.store(true);
      }
    }
    dash::Vector total;
    record(8, Step([&]() -> dash::Status {
             DASH_RETURN_IF_ERROR(ParsePeer(last, &peers));
             DASH_ASSIGN_OR_RETURN(total,
                                   dash::OpenMaskedTotal(masked, peers, codec));
             return dash::Status::Ok();
           }));
    dash::ScanResult result;
    record(9, Step([&]() -> dash::Status {
             int64_t n = 0;
             for (const int64_t s : shared_->samples) n += s;
             DASH_ASSIGN_OR_RETURN(
                 dash::ScanSufficientStats totals,
                 dash::UnflattenStats(total, x_.cols(), party_data_.c.cols()));
             totals.num_samples = n;
             DASH_ASSIGN_OR_RETURN(result, dash::FinalizeScan(totals));
             return dash::Status::Ok();
           }));
    if (!shared_->failed.load() &&
        dash::ScanResultChecksum(result) != options_.expected_checksum) {
      status_ = dash::DataLossError(
          "layer-by-layer result differs from the scan's result");
      shared_->failed.store(true);
    }
    record(10, Step([&]() -> dash::Status {
             return result.WriteCsv(
                 options_.csv_paths[static_cast<size_t>(party_)]);
           }));
  }

  dash::Status ParsePeer(int peer, std::vector<dash::RingVector>* peers) const {
    dash::ByteReader r(shared_->payloads[static_cast<size_t>(peer)]);
    DASH_ASSIGN_OR_RETURN(dash::RingVector v, r.GetU64Vector());
    peers->push_back(std::move(v));
    return dash::Status::Ok();
  }

  // The resident inputs of the in-RAM kernel: the whole packed X of
  // this party, assembled panel by panel, plus y and C.
  dash::Status LoadResident() {
    const int64_t n = reader_->num_samples();
    const int64_t m = reader_->num_variants();
    x_ = dash::PackedGenotypeMatrix(n, m);
    dash::PackedGenotypeMatrix panel(0, 0);
    for (int64_t p = 0; p < reader_->num_panels(); ++p) {
      DASH_RETURN_IF_ERROR(reader_->ReadPanel(p, &panel));
      const int64_t word0 = reader_->panel_begin_row(p) /
                            dash::PackedGenotypeMatrix::kRowsPerWord;
      for (int64_t j = 0; j < m; ++j) {
        std::memcpy(x_.mutable_column_words(j) + word0, panel.column_words(j),
                    static_cast<size_t>(panel.words_per_column()) * 8);
      }
    }
    packed_bytes_ = x_.words_per_column() * 8 * m;
    party_data_.x = dash::Matrix(n, 0);
    party_data_.y = reader_->phenotype();
    party_data_.c = reader_->covariates();
    shared_->samples[static_cast<size_t>(party_)] = n;
    return dash::Status::Ok();
  }

  // Keys shared pairwise, so the masks cancel in the opened total.
  std::vector<dash::Secret<dash::ChaCha20Rng::Key>> PairwiseKeys() const {
    std::vector<dash::Secret<dash::ChaCha20Rng::Key>> keys(
        static_cast<size_t>(parties_));
    for (int q2 = 0; q2 < parties_; ++q2) {
      if (q2 == party_) continue;
      const int lo = std::min(party_, q2);
      const int hi = std::max(party_, q2);
      keys[static_cast<size_t>(q2)] = dash::Secret<dash::ChaCha20Rng::Key>(
          dash::ChaCha20Rng::KeyFromSeed(options_.mask_seed * 4096 +
                                         static_cast<uint64_t>(lo * parties_ + hi)));
    }
    return keys;
  }

  const int party_;
  const int parties_;
  const std::string path_;
  const LayerOptions& options_;
  Shared* const shared_;

  dash::Status status_ = dash::Status::Ok();
  std::unique_ptr<dash::PackedStudyReader> reader_;
  dash::PackedGenotypeMatrix x_{0, 0};
  dash::PartyData party_data_;
  int64_t read_bytes_ = 0;
  int64_t packed_bytes_ = 0;
  int64_t mask_bytes_ = 0;
};

}  // namespace

dash::Result<std::vector<LayerTimes>> MeasureLayers(
    const std::vector<std::string>& study_paths, const LayerOptions& options) {
  const int parties = static_cast<int>(study_paths.size());
  PartyLayers::Shared shared(parties);
  std::vector<LayerTimes> times(static_cast<size_t>(parties));
  std::vector<dash::Status> status(static_cast<size_t>(parties));
  std::vector<std::thread> threads;
  for (int p = 0; p < parties; ++p) {
    threads.emplace_back([&, p] {
      PartyLayers layers(p, parties, study_paths[static_cast<size_t>(p)],
                         options, &shared);
      status[static_cast<size_t>(p)] =
          layers.Run(&times[static_cast<size_t>(p)]);
    });
  }
  for (auto& t : threads) t.join();
  for (const dash::Status& s : status) {
    if (!s.ok()) return s;
  }
  return times;
}

void AddLayerMetrics(const std::vector<LayerTimes>& layers, MetricSet* out) {
  const auto mean = [&](auto field) {
    double sum = 0.0;
    for (const LayerTimes& t : layers) sum += static_cast<double>(field(t));
    return layers.empty() ? 0.0 : sum / static_cast<double>(layers.size());
  };
  out->Add("data.open_s", mean([](const LayerTimes& t) { return t.open_s; }), "s");
  out->Add("data.read_s", mean([](const LayerTimes& t) { return t.read_s; }), "s");
  out->Add("data.read_bytes",
           mean([](const LayerTimes& t) { return t.read_bytes; }), "B");
  out->Add("data.stream_overhead_s",
           mean([](const LayerTimes& t) { return t.streamed_s - t.stats_s; }),
           "s");
  const double stats_s = mean([](const LayerTimes& t) { return t.stats_s; });
  out->Add("core.stats_s", stats_s, "s");
  out->Add("core.stats_gbps",
           mean([](const LayerTimes& t) { return t.packed_bytes; }) / stats_s /
               1e9,
           "GB/s");
  out->Add("core.rfactor_s",
           mean([](const LayerTimes& t) { return t.rfactor_s; }), "s");
  out->Add("core.localq_s", mean([](const LayerTimes& t) { return t.localq_s; }),
           "s");
  out->Add("core.finalize_s",
           mean([](const LayerTimes& t) { return t.finalize_s; }), "s");
  out->Add("core.write_s", mean([](const LayerTimes& t) { return t.write_s; }),
           "s");
  out->Add("mpc.encode_s", mean([](const LayerTimes& t) { return t.encode_s; }),
           "s");
  out->Add("mpc.mask_s", mean([](const LayerTimes& t) { return t.mask_s; }), "s");
  out->Add("mpc.open_s", mean([](const LayerTimes& t) { return t.open_mpc_s; }),
           "s");
  out->Add("mpc.mask_bytes",
           mean([](const LayerTimes& t) { return t.mask_bytes; }), "B");
}

double AttributedSeconds(const LayerTimes& t, const WindowBreakdown& w,
                         bool writes_csv) {
  return t.open_s + (w.phase1_ran ? t.rfactor_s + t.localq_s : 0.0) + t.streamed_s +
         t.encode_s + t.mask_s + t.open_mpc_s + t.finalize_s +
         (writes_csv ? t.write_s : 0.0);
}

double UnattributedSeconds(const RoundAccounting& acc,
                           const std::vector<LayerTimes>& layers,
                           bool writes_csv) {
  std::vector<double> rest;
  for (const WindowBreakdown& w : acc.windows) {
    rest.push_back(w.gaps_s - AttributedSeconds(
                                  layers[static_cast<size_t>(w.party)], w,
                                  writes_csv));
  }
  return Mean(rest);
}

}  // namespace perfbench
