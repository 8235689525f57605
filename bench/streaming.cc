// Streaming PCOR bench: epoch-snapshotted appends plus continual release
// over the reduced salary workload.
//
// Three phases, one BENCH_JSON line each:
//   * `streaming_append` — stream the whole dataset through Append,
//     sealing every PCOR_STREAM_SEAL_EVERY rows; appends/s INCLUDES the
//     periodic incremental (segmented) seals — the honest cost of the
//     seal path (see docs/streaming.md).
//   * `streaming_release` — T = PCOR_STREAM_RELEASES continual releases
//     against the sealed tip via ReleaseAsOfNow, reporting releases/s and
//     the memo invalidation count.
//   * `streaming_seal` — seals/s at PCOR_STREAM_SEAL_EPOCHS (default 64)
//     evenly-sized epochs, timing SealEpoch calls only.
//
// Enforced acceptance bars (exit non-zero on violation):
//   * every sealed row lands: the final epoch equals the dataset size;
//   * every continual release succeeds (the planted outliers verify at
//     the tip epoch).
#include <algorithm>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/simd.h"
#include "src/common/timer.h"
#include "src/search/streaming.h"

using namespace pcor;
using namespace pcor::bench;

int main() {
  BenchEnv env = ReadBenchEnv(/*default_scale=*/0.2);
  PrintEnv(env,
           "streaming PCOR: epoch-snapshotted appends + continual release "
           "(BFS, eps=0.2, n=20, lof detector)");

  auto setup = MakeSalarySetup(env, "lof");
  if (!setup) return 1;
  const Dataset& full = setup->workload.data.dataset;

  const size_t seal_every =
      std::max<size_t>(64, strings::EnvSizeOr("PCOR_STREAM_SEAL_EVERY", 2048));
  const size_t releases_target = std::max<size_t>(
      8, strings::EnvSizeOr("PCOR_STREAM_RELEASES", 4 * env.reps));

  PcorOptions release;
  release.sampler = SamplerKind::kBfs;
  release.num_samples = 20;
  release.total_epsilon = 0.2;

  BenchJsonEmitter emitter;
  bool ok = true;

  // Phase 1: appends + periodic seals.
  StreamingPcorEngine stream(full.schema(), *setup->detector);
  WallTimer append_timer;
  for (size_t r = 0; r < full.num_rows(); ++r) {
    std::vector<uint32_t> codes(full.num_attributes());
    for (size_t a = 0; a < full.num_attributes(); ++a) {
      codes[a] = full.code(r, a);
    }
    Status appended = stream.Append(codes, full.metric(r));
    if (!appended.ok()) {
      std::printf("append %zu: %s\n", r, appended.ToString().c_str());
      return 1;
    }
    if ((r + 1) % seal_every == 0) stream.SealEpoch();
  }
  const uint64_t final_epoch = stream.SealEpoch();
  const double append_wall = append_timer.ElapsedSeconds();
  const StreamingStats after_append = stream.stats();
  const double appends_per_s =
      static_cast<double>(full.num_rows()) / std::max(append_wall, 1e-9);
  report::SectionHeader("streaming appends (periodic seals included)");
  std::printf("%zu rows in %.3fs (%.0f appends/s), %llu seals of <= %zu "
              "rows, final epoch %llu\n",
              full.num_rows(), append_wall, appends_per_s,
              static_cast<unsigned long long>(after_append.seals), seal_every,
              static_cast<unsigned long long>(final_epoch));
  if (final_epoch != full.num_rows()) {
    std::printf("ERROR: final epoch %llu != %zu dataset rows\n",
                static_cast<unsigned long long>(final_epoch), full.num_rows());
    ok = false;
  }
  emitter.Emit(strings::Format(
      "{\"bench\":\"streaming_append\",\"rows\":%zu,\"seals\":%llu,"
      "\"seal_every\":%zu,\"wall_s\":%.6f,\"appends_per_s\":%.1f,"
      "\"final_epoch\":%llu,\"kernel_backend\":\"%s\"}",
      full.num_rows(), static_cast<unsigned long long>(after_append.seals),
      seal_every, append_wall, appends_per_s,
      static_cast<unsigned long long>(final_epoch),
      simd::ActiveBackendName()));

  // Phase 2: continual releases against the sealed tip.
  WallTimer release_timer;
  size_t failures = 0;
  for (size_t t = 0; t < releases_target; ++t) {
    const uint32_t v_row = setup->outliers[t % setup->outliers.size()];
    Rng rng(env.seed + t);
    if (!stream.ReleaseAsOfNow(v_row, release, &rng).ok()) ++failures;
  }
  const size_t releases = releases_target - failures;
  const double release_wall = release_timer.ElapsedSeconds();
  const StreamingStats stats = stream.stats();
  const double releases_per_s =
      static_cast<double>(releases) / std::max(release_wall, 1e-9);
  report::SectionHeader("continual release (as-of-now)");
  std::printf("%zu releases in %.3fs (%.1f releases/s), %zu failures, "
              "%zu memo invalidations across seals\n",
              releases, release_wall, releases_per_s, failures,
              stats.cache_invalidations);
  if (failures != 0) {
    std::printf("ERROR: %zu continual releases failed (planted outliers "
                "must verify at the tip epoch)\n",
                failures);
    ok = false;
  }
  emitter.Emit(strings::Format(
      "{\"bench\":\"streaming_release\",\"releases\":%zu,\"failures\":%zu,"
      "\"wall_s\":%.6f,\"releases_per_s\":%.2f,\"epoch\":%llu,"
      "\"cache_invalidations\":%zu,\"kernel_backend\":\"%s\"}",
      releases, failures, release_wall, releases_per_s,
      static_cast<unsigned long long>(stats.epoch), stats.cache_invalidations,
      simd::ActiveBackendName()));

  // Phase 3: seal cost. Only the SealEpoch calls are timed.
  const size_t seal_epochs = std::max<size_t>(
      8, strings::EnvSizeOr("PCOR_STREAM_SEAL_EPOCHS", 64));
  const size_t rows_per_epoch =
      std::max<size_t>(1, full.num_rows() / seal_epochs);
  report::SectionHeader("seal cost (segmented seals)");
  StreamingPcorEngine sealer(full.schema(), *setup->detector);
  double seal_wall = 0.0;
  uint64_t seals_done = 0;
  std::vector<uint32_t> codes(full.num_attributes());
  for (size_t r = 0; r < full.num_rows(); ++r) {
    for (size_t a = 0; a < full.num_attributes(); ++a) {
      codes[a] = full.code(r, a);
    }
    sealer.Append(codes, full.metric(r)).CheckOK();
    if ((r + 1) % rows_per_epoch == 0 || r + 1 == full.num_rows()) {
      WallTimer seal_timer;
      sealer.SealEpoch();
      seal_wall += seal_timer.ElapsedSeconds();
      ++seals_done;
    }
  }
  const StreamingStats seal_stats = sealer.stats();
  const double seals_per_s =
      static_cast<double>(seals_done) / std::max(seal_wall, 1e-9);
  std::printf("segmented: %llu seals of ~%zu rows in %.3fs (%.1f seals/s), "
              "%zu segments at tip, %llu compactions\n",
              static_cast<unsigned long long>(seals_done), rows_per_epoch,
              seal_wall, seals_per_s, seal_stats.segments,
              static_cast<unsigned long long>(seal_stats.compactions));
  emitter.Emit(strings::Format(
      "{\"bench\":\"streaming_seal\",\"mode\":\"segmented\",\"rows\":%zu,"
      "\"seals\":%llu,\"rows_per_epoch\":%zu,\"seal_wall_s\":%.6f,"
      "\"seals_per_s\":%.2f,\"tip_segments\":%zu,\"compactions\":%llu,"
      "\"kernel_backend\":\"%s\"}",
      full.num_rows(), static_cast<unsigned long long>(seals_done),
      rows_per_epoch, seal_wall, seals_per_s, seal_stats.segments,
      static_cast<unsigned long long>(seal_stats.compactions),
      simd::ActiveBackendName()));

  if (!emitter.ok()) {
    std::printf("BENCH_JSON validation failures: %zu\n", emitter.failures());
  }
  return (ok && emitter.ok()) ? 0 : 1;
}
