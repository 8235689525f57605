#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/context/context.h"
#include "src/dp/budget.h"
#include "src/dp/utility.h"
#include "src/context/detector_cache.h"

namespace pcor {

/// \brief One sampling request: everything an algorithm needs to collect
/// the candidate multiset C_M for outlier V.
struct SamplerRequest {
  const OutlierVerifier* verifier = nullptr;
  /// Directs DP-DFS/DP-BFS child selection and, through its finite/-inf
  /// contract, doubles as their f_M check, so it must score against
  /// `verifier`; unused by the others.
  const UtilityFunction* utility = nullptr;
  uint32_t v_row = 0;
  /// Starting context C_V; required by graph samplers (random walk, DFS,
  /// BFS), ignored by direct and uniform sampling.
  ContextVec start_context;
  /// n — the number of samples to collect.
  size_t num_samples = 50;
  /// eps1 for the internal Exponential-mechanism draws of DP-DFS/DP-BFS.
  double epsilon1 = 0.1;
  /// Safety cap on candidate-context probes (uniform sampling can stall
  /// when matching contexts are rare; the paper's Table 2 shows Tmax of a
  /// full day). On hitting the cap, the sampler returns what it has.
  size_t max_probes = 20'000'000;
};

/// \brief Sampler outcome: the candidate multiset plus work counters.
struct SamplerOutcome {
  std::vector<ContextVec> samples;  ///< C_M / Visited, in collection order
  /// u_V of each sample, parallel to `samples`, from samplers that scored
  /// them while searching (DP-DFS, DP-BFS); empty from the others, whose
  /// samples the engine scores for the final draw.
  std::vector<double> scores;
  size_t probes = 0;                ///< candidate contexts examined
  bool hit_probe_cap = false;
};

/// \brief Interface over the paper's five candidate-collection strategies.
/// The final private selection from the collected samples (one more
/// Exponential-mechanism draw) is applied by the PCOR engine, identically
/// for every sampler.
class ContextSampler {
 public:
  virtual ~ContextSampler() = default;

  virtual std::string name() const = 0;
  virtual SamplerKind kind() const = 0;

  /// \brief Collects candidate contexts. Every returned context is a
  /// matching context for v_row. Fails with NoValidContext when no
  /// matching context was found at all.
  virtual Result<SamplerOutcome> Sample(const SamplerRequest& request,
                                        Rng* rng) const = 0;
};

/// \brief Factory for the five algorithms.
std::unique_ptr<ContextSampler> MakeSampler(SamplerKind kind);

}  // namespace pcor
