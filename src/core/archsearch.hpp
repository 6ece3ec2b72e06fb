#pragma once
// Architecture search over a typed mixed space: the generalization of the
// paper's Algorithm 1 from a per-layer dropout vector to a full
// (continuous + integer + categorical) architecture space — normalization,
// activation, depth, widths, and dropout rates searched jointly instead of
// hand-enumerated as in Fig. 2.
//
// Protocol (one candidate): decode the proposed point, build a fresh model
// from the family's builder, train it for the per-candidate budget, and
// score the fault-marginalized utility (Eq. 4) on held-out data.  Unlike
// the dropout-only search there is no shared evolving theta — every
// candidate is self-contained — so the engine keeps its memoization cache
// valid for the whole run (duplicate proposals are free) and each
// candidate's RNG derives purely from (context, point), making results
// invariant to batch size grouping, thread count, and evaluation order.

#include <cstdint>
#include <string>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "core/objective.hpp"
#include "core/param_space.hpp"
#include "core/persist.hpp"
#include "data/dataset.hpp"
#include "models/zoo.hpp"
#include "nn/trainer.hpp"

namespace bayesft::core {

/// Configuration of one architecture search.
struct ArchSearchConfig {
    /// Candidate evaluations (BO trials) in total.
    std::size_t iterations = 12;
    /// Per-candidate training budget (`train.epochs` epochs from scratch).
    nn::TrainConfig train;
    /// Monte-Carlo utility settings; `faults` selects the fault zoo.
    ObjectiveConfig objective;
    /// Acquisition rule.  Expected improvement by default: from-scratch
    /// candidates make the utility landscape multi-modal, where the paper's
    /// pure posterior-mean exploitation stalls in mixed spaces.
    std::string acquisition = "ei";
    /// ARD inverse length scale for numeric dims (ParamSpace::kernel).
    double kernel_inverse_scale = 4.0;
    /// Hamming penalty lambda for categorical mismatches.
    double hamming_weight = 1.0;
    /// GP/BO proposal settings.
    bayesopt::BayesOptConfig bo;
    /// Candidates proposed and evaluated per GP refit (q).
    std::size_t batch = 1;
    /// Concurrency of the candidate evaluations (0 = pool width).
    std::size_t eval_threads = 0;
    /// Distributed evaluation (docs/distributed.md): farm candidate
    /// evaluations to this many forked worker processes (0 = in-process).
    /// Result-invariant like eval_threads — the search outcome is
    /// bit-identical for every worker count — and therefore excluded from
    /// the scenario digest, so a run checkpointed at one worker count
    /// resumes exactly at another.
    std::size_t workers = 0;
    /// Fault-tolerant trial execution (docs/robustness.md).  Candidates
    /// are self-contained, so `isolate` runs each live attempt in a
    /// one-shot forked worker here; results are bit-identical with and
    /// without it (the knobs are excluded from the scenario digest).
    ResilienceConfig resilience;
    /// Extra fine-tuning epochs on the rebuilt winner.
    std::size_t final_epochs = 2;
    /// Checkpoint/resume controls (docs/checkpointing.md).  Candidates are
    /// self-contained, so the snapshot holds the BO state, the loop RNG,
    /// and the engine memo-cache entries (duplicate proposals stay free
    /// after a resume); there are no evolving weights to persist.
    CheckpointOptions checkpoint;
};

/// Outcome of a search.
struct ArchSearchResult {
    ParamPoint best_point;
    double best_utility = 0.0;
    /// Full BO history over the encoded view, plus the decoded points
    /// aligned with it.
    std::vector<bayesopt::Trial> trials;
    std::vector<ParamPoint> trial_points;
    /// The winner, re-materialized on its original candidate RNG stream
    /// (bit-identical weights to the evaluated candidate) and fine-tuned
    /// for `final_epochs`.
    models::ModelHandle best_model;
    /// Duplicate proposals served from the engine's memo cache.
    std::size_t engine_cache_hits = 0;
    /// False when the run halted at CheckpointOptions::stop_after before
    /// exhausting the trial budget; `best_model` is then empty (the winner
    /// is only materialized on completion — resume with the same path).
    bool completed = true;
    /// Trials restored from a checkpoint rather than evaluated here.
    std::size_t resumed_trials = 0;
};

/// Runs the mixed-space search for `family` on (train_set, validation_set).
/// Throws std::invalid_argument on an empty space/builder or zero
/// iterations.
ArchSearchResult arch_search(const models::ArchFamily& family,
                             const data::Dataset& train_set,
                             const data::Dataset& validation_set,
                             const ArchSearchConfig& config, Rng& rng);

}  // namespace bayesft::core
