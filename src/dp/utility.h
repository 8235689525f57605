#pragma once

#include <memory>
#include <string>

#include "src/common/bitvector.h"
#include "src/context/context.h"
#include "src/context/detector_cache.h"

namespace pcor {

/// \brief Utility function u_V(D, C) scoring candidate contexts for an
/// outlier V (Section 3.2). Non-matching contexts must score -infinity, and
/// matching ones a finite value, so the Exponential mechanism assigns them
/// zero probability (property (a) of Definition 3.2 — the released context
/// is always valid). The DP-DFS/DP-BFS samplers rely on that: they admit a
/// neighbour iff its score is finite, so verifying and scoring it costs one
/// memo lookup. Sensitivity must
/// stay small (ideally 1) for the privacy bounds to be meaningful.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  virtual std::string name() const = 0;

  /// \brief u_V(D, C); -infinity exactly when f_M(D_C, V) is false.
  virtual double Score(const ContextVec& c, uint32_t v_row) const = 0;

  /// \brief Delta-u: max change of Score under one record add/remove.
  virtual double sensitivity() const { return 1.0; }
};

/// \brief Population-size utility (Section 3.2.1): u = |D_C| for matching
/// contexts. A larger population indicates a more significant outlier.
/// Sensitivity 1 — one record changes any population by at most 1. Scoring
/// is one verifier lookup: the memo entry that answers f_M carries |D_C|.
class PopulationSizeUtility : public UtilityFunction {
 public:
  explicit PopulationSizeUtility(const OutlierVerifier& verifier);

  std::string name() const override { return "population_size"; }
  double Score(const ContextVec& c, uint32_t v_row) const override;

 private:
  const OutlierVerifier* verifier_;
};

/// \brief Overlap utility (Section 3.2.2): u = |D_C ∩ D_{C_V}| for matching
/// contexts, where C_V is a chosen/starting context fixed at construction.
/// Sensitivity 1.
class OverlapUtility : public UtilityFunction {
 public:
  OverlapUtility(const OutlierVerifier& verifier,
                 const ContextVec& starting_context);

  std::string name() const override { return "overlap"; }
  double Score(const ContextVec& c, uint32_t v_row) const override;

  const ContextVec& starting_context() const { return starting_context_; }

 private:
  const OutlierVerifier* verifier_;
  ContextVec starting_context_;
  BitVector starting_population_;  // precomputed D_{C_V}
};

/// \brief Utility families selectable through PcorOptions.
enum class UtilityKind {
  kPopulationSize,
  kOverlapWithStart,
};

/// \brief Factory: builds the utility for `kind`. For kOverlapWithStart the
/// starting context must be the sampler's C_V.
std::unique_ptr<UtilityFunction> MakeUtility(
    UtilityKind kind, const OutlierVerifier& verifier,
    const ContextVec& starting_context);

/// \brief Stable name for reports.
std::string UtilityKindName(UtilityKind kind);

}  // namespace pcor
