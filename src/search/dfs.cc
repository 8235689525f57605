#include "src/search/dfs.h"

#include <cmath>
#include <unordered_set>

#include "src/dp/mechanism.h"

namespace pcor {

Result<SamplerOutcome> DfsSampler::Sample(const SamplerRequest& request,
                                          Rng* rng) const {
  const OutlierVerifier& verifier = *request.verifier;
  const size_t t = verifier.index().schema().total_values();

  if (request.utility == nullptr) {
    return Status::InvalidArgument("DFS requires a utility function");
  }
  // A context is matching iff its utility is finite (the UtilityFunction
  // contract), so scoring doubles as the f_M check: one memo lookup each.
  const double start_score =
      request.utility->Score(request.start_context, request.v_row);
  if (!std::isfinite(start_score)) {
    return Status::InvalidArgument(
        "DFS requires a matching starting context C_V");
  }
  ExponentialMechanism mech(request.epsilon1,
                            request.utility->sensitivity());

  SamplerOutcome out;
  // Stack entries keep the score their context was chosen with, so every
  // sample leaves with the score the final draw needs.
  std::vector<ContextVec> stack{request.start_context};
  std::vector<double> stack_scores{start_score};
  std::unordered_set<ContextVec, ContextVecHash> visited;

  while (visited.size() < request.num_samples && !stack.empty()) {
    if (out.probes >= request.max_probes) {
      out.hit_probe_cap = true;
      break;
    }
    ContextVec current = stack.back();
    if (visited.insert(current).second) {
      out.samples.push_back(current);
      out.scores.push_back(stack_scores.back());
    }

    // Children: matching, unvisited neighbors of the stack top.
    std::vector<ContextVec> children;
    std::vector<double> scores;
    ContextVec neighbor = current;
    for (size_t bit = 0; bit < t; ++bit) {
      neighbor.Flip(bit);
      ++out.probes;
      if (!visited.count(neighbor)) {
        const double score = request.utility->Score(neighbor, request.v_row);
        if (std::isfinite(score)) {
          children.push_back(neighbor);
          scores.push_back(score);
        }
      }
      neighbor.Flip(bit);
    }

    if (children.empty()) {
      stack.pop_back();
      stack_scores.pop_back();
      continue;
    }
    PCOR_ASSIGN_OR_RETURN(size_t pick, mech.Choose(scores, rng));
    stack.push_back(children[pick]);
    stack_scores.push_back(scores[pick]);
  }
  if (out.samples.empty()) {
    return Status::NoValidContext("DFS visited no matching context");
  }
  return out;
}

}  // namespace pcor
