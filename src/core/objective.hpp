#pragma once
// The fault-marginalized architecture objective u(alpha, theta)
// (paper Eq. 3-4): the expected quality of a network under hardware
// faults, estimated by Monte-Carlo sampling of fault realizations.
//
// The paper marginalizes over memristance drift only; the objective here is
// generalized over the pluggable FaultModel zoo (stuck-at, bit-flip,
// variation, quantization, compositions) while keeping the drift-only
// configuration as the default, so every paper experiment reproduces
// unchanged.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "fault/evaluator.hpp"
#include "fault/model.hpp"
#include "models/zoo.hpp"
#include "nn/quant.hpp"

namespace bayesft::core {

/// What to average over fault samples.
enum class ObjectiveMetric {
    kAccuracy,  ///< mean classification accuracy (monotone proxy of -loss)
    kNegLoss,   ///< -E[cross-entropy] exactly as Eq. 3
};

/// Configuration of the Monte-Carlo utility estimate.
///
/// The utility marginalizes over a set of fault scenarios: either the
/// paper's log-normal drift levels (`sigmas`, the default) or an explicit
/// list of FaultModel instances (`faults`, which overrides `sigmas` when
/// non-empty — e.g. stuck-at fractions, composed quantize-then-drift
/// chains).
struct ObjectiveConfig {
    /// Drift levels marginalized over when `faults` is empty (the search
    /// trains robustness across this set; evaluation later sweeps a finer
    /// sigma grid).
    std::vector<double> sigmas{0.3, 0.6, 0.9};
    /// Explicit fault scenarios; overrides `sigmas` when non-empty.
    /// Shared pointers so one configured zoo can be reused across
    /// candidate evaluations and threads (FaultModels are immutable, so
    /// sharing is safe).
    std::vector<std::shared_ptr<const fault::FaultModel>> faults;
    /// Monte-Carlo samples T per fault scenario (Eq. 4).
    std::size_t mc_samples = 4;
    ObjectiveMetric metric = ObjectiveMetric::kAccuracy;
    /// Numeric mode of the forward passes scored under faults: kFloat32
    /// (default, the paper's setting) or a fixed-point deployment view
    /// (kInt8 / kInt12 — see nn/quant.hpp).  Applied to the model for the
    /// duration of the evaluation and restored afterwards; per-thread
    /// replicas inherit it through clone().
    nn::InferenceMode inference = nn::InferenceMode::kFloat32;
};

/// Estimates u(alpha, theta) for the model's *current* weights: perturb
/// with every configured fault scenario, score on (images, labels),
/// restore, and average everything.
///
/// Thread safety: the Monte-Carlo loop fans out over per-thread replicas
/// internally (pool width); call from one thread per (model, rng) pair.
double fault_utility(nn::Module& model, const Tensor& images,
                     const std::vector<int>& labels,
                     const ObjectiveConfig& config, Rng& rng);

/// fault_utility with a caller-supplied metric (e.g. a detector's mAP) in
/// place of `config.metric`; it scores the per-thread replica it is handed.
double fault_utility(nn::Module& model, const ObjectiveConfig& config,
                     Rng& rng,
                     const std::function<double(nn::Module&)>& metric);

/// Digests everything the utility depends on besides alpha and the model
/// weights — metric, MC sample count, and the full fault configuration
/// (describe() + params() of every model, or the sigma grid) — into one
/// key for the EvaluationEngine's memoization / RNG-derivation context.
std::uint64_t objective_digest(const ObjectiveConfig& config);

}  // namespace bayesft::core
