// The PCOR end-to-end benchmark: three workloads driven through the public
// API of pcor_serve / pcor_search / pcor_exp, measured from outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief One invocation's settings (see main.cc for the command line).
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 20.0;
  /// Traced run: forwarding probe/detector, serve hook, spans.
  bool trace = false;
  /// Self-test sizes: small datasets and rates, one set-up.
  bool tiny = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
  /// Self-test only: XORed into every replay seed, which must then make
  /// the output check fail.
  uint64_t replay_seed_xor = 0;
};

/// \brief One measured value with its unit and the sample count behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// \brief What one workload run measured and checked.
struct Report {
  std::string workload;
  std::vector<Metric> metrics;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> failures;
  /// Extra human-readable lines (lag histograms, acceptance notes).
  std::vector<std::string> notes;
  size_t attempted = 0;  ///< operations issued (releases, appends, seals)
  size_t failed = 0;     ///< failed, refused or thrown operations
  /// Fold of DigestBatchEntry over the deterministic part of the run
  /// (0 where the workload has none); equal across traced and untraced.
  uint64_t digest = 0;

  void Add(std::string name, double value, std::string unit,
           size_t samples);
  /// \brief Records `what` as an output-check failure unless `ok`.
  void Check(bool ok, const std::string& what);
};

/// \brief Workload names, in report order.
const std::vector<std::string>& WorkloadNames();

/// \brief Runs one workload; returns false for an unknown name.
bool RunWorkload(const std::string& name, const RunOptions& options,
                 Report* report);

/// \brief Bit-identity of the forwarding (timed) engine against the
/// standard engine on `workload`'s inputs, at self-test sizes. Appends
/// any mismatch to `*failures`.
void CheckForwardingIdentity(const std::string& workload, uint64_t seed,
                             std::vector<std::string>* failures);

}  // namespace perfbench
