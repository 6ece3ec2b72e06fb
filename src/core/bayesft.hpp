#pragma once
// BayesFT (paper Algorithm 1): alternating optimization of network weights
// theta (SGD) and per-layer dropout rates alpha (Bayesian optimization with
// a GP surrogate over the fault-marginalized utility).  The utility
// marginalizes over the paper's log-normal drift by default; setting
// ObjectiveConfig::faults searches for robustness against any FaultModel
// set (stuck-at, bit flips, variation, quantization, compositions).
//
// The search space is the all-continuous ParamSpace::dropout instance of
// the typed mixed search space (docs/search-space.md) — bit-identical to
// the historical raw-vector path.  For searching architecture dimensions
// (norm, activation, depth, widths) jointly with dropout, see
// core/archsearch.hpp; both run on the one loop in core/search_loop.hpp.

#include <cstdint>
#include <string>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "core/objective.hpp"
#include "core/persist.hpp"
#include "data/dataset.hpp"
#include "data/pedestrians.hpp"
#include "detect/detector.hpp"
#include "models/zoo.hpp"
#include "nn/trainer.hpp"

namespace bayesft::core {

/// Configuration of the full search.
struct BayesFTConfig {
    /// Outer iterations t (each = E training epochs + one BO update).
    std::size_t iterations = 8;
    /// E: epochs of SGD on theta per outer iteration (Alg. 1 lines 5-7).
    std::size_t epochs_per_iteration = 1;
    /// Inner SGD settings for theta.
    nn::TrainConfig train;
    /// Monte-Carlo utility settings (Eq. 4).
    ObjectiveConfig objective;
    /// Acquisition rule: "posterior_mean" (paper), "ei" or "ucb".
    std::string acquisition = "posterior_mean";
    /// Kernel inverse length scales k_i of Eq. 9 (isotropic).
    double kernel_inverse_scale = 4.0;
    /// GP/BO proposal settings.
    bayesopt::BayesOptConfig bo;
    /// Upper bound for the per-layer dropout rate (strictly < 1).
    double max_dropout_rate = 0.6;
    /// Epochs trained with all-zero dropout before the search starts, so
    /// fragile architectures (deep convnets, spatial transformers) reach a
    /// trainable region before aggressive candidate rates are applied.
    std::size_t warmup_epochs = 2;
    /// Extra fine-tuning epochs after the best alpha is installed.
    std::size_t final_epochs = 3;
    /// Candidates proposed and evaluated per GP refit (q).  1 reproduces
    /// the historical strictly serial loop bit-for-bit; larger values
    /// evaluate q candidates concurrently on per-candidate model replicas
    /// (EvaluationEngine) and adopt the best one as the new weights.
    std::size_t batch = 1;
    /// Concurrency of the candidate-evaluation engine (0 = pool width).
    /// Batched results are bit-identical for every value.
    std::size_t eval_threads = 0;
    /// Fault-tolerant trial execution (docs/robustness.md): per-trial
    /// timeout, bounded retries, quarantine.  Like eval_threads, none of
    /// these knobs changes a successful run's results — they are excluded
    /// from the scenario digest.  The evolving-theta loop has no crash
    /// isolation (weights cannot cross the child pipe): `isolate` only
    /// applies to self-contained searches (arch_search).
    ResilienceConfig resilience;
    /// Checkpoint/resume controls (docs/checkpointing.md).  When enabled,
    /// a snapshot of the BO state, the loop RNG, and the model weights is
    /// written after every observed candidate group, and a run that finds
    /// a valid checkpoint at the path resumes it; a resumed run's final
    /// results are bit-identical to an uninterrupted run's.
    CheckpointOptions checkpoint;
};

/// Outcome of a search.
struct BayesFTResult {
    std::vector<double> best_alpha;
    double best_utility = 0.0;
    std::vector<bayesopt::Trial> trials;  ///< full BO history
    /// Human-readable decoded points aligned with `trials`
    /// (ParamSpace::describe of the dropout space) — the strings the run
    /// store persists, so every store consumer formats points one way.
    std::vector<std::string> trial_points;
    /// Candidate evaluations skipped by the engine because the batch
    /// contained duplicate proposals (the search trains between batches,
    /// so cross-batch cache reuse never applies here).
    std::size_t engine_cache_hits = 0;
    /// False when the run halted at CheckpointOptions::stop_after before
    /// exhausting the trial budget (the winner has NOT been installed or
    /// fine-tuned; resume by re-running with the same checkpoint path).
    bool completed = true;
    /// Trials restored from a checkpoint rather than evaluated by this
    /// invocation (a prior run already logged/persisted them).
    std::size_t resumed_trials = 0;
};

/// Runs Algorithm 1 on `model` in place: on return the model holds the
/// trained weights with the best-found dropout rates installed.
///
/// `train_set` drives the SGD steps; `validation_set` scores the
/// drift-marginalized utility (held out from training, so the search does
/// not overfit alpha to training noise).
BayesFTResult bayesft_search(models::ModelHandle& model,
                             const data::Dataset& train_set,
                             const data::Dataset& validation_set,
                             const BayesFTConfig& config, Rng& rng);

/// Algorithm 1 on the Fig. 3(j) grid detector.  `model` holds the searched
/// network (e.g. a clone of detector.network()); `detector` trains whichever
/// network it is handed — a replica when batched — with Adam at
/// config.train's batch size and learning rate, and the utility is the
/// fault-marginalized mAP on `validation_scenes`.
BayesFTResult bayesft_search(models::ModelHandle& model,
                             const detect::GridDetector& detector,
                             const data::DetectionDataset& train_scenes,
                             const data::DetectionDataset& validation_scenes,
                             const BayesFTConfig& config, Rng& rng);

/// Random-search ablation: identical protocol but alpha_t is sampled
/// uniformly instead of by the GP acquisition (for ablation benches).
BayesFTResult random_search(models::ModelHandle& model,
                            const data::Dataset& train_set,
                            const data::Dataset& validation_set,
                            const BayesFTConfig& config, Rng& rng);

}  // namespace bayesft::core
