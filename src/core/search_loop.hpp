#pragma once
// The one search loop behind every BO search (paper Algorithm 1's outer
// loop): propose a group of q points, evaluate it, observe it, checkpoint
// at the group boundary; resume from a valid checkpoint and stop cleanly at
// CheckpointOptions::stop_after (docs/checkpointing.md).  Callers supply
// what differs through hooks.  The evolving-theta callers (bayesft.cpp)
// keep training one model across trials and checkpoint its weights; the
// self-contained caller (archsearch.cpp) builds a model per candidate and
// checkpoints the engine's memo cache.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "core/engine.hpp"
#include "core/param_space.hpp"
#include "core/persist.hpp"

namespace bayesft::core {

/// The proposal and checkpoint settings of one search run.
struct SearchSettings {
    std::string run_id;  ///< checkpoint run_id and log tag
    /// What a resumable checkpoint must match besides the space digest.
    std::uint64_t scenario_digest = 0;
    std::size_t iterations = 0;
    std::size_t batch = 1;  ///< q; 0 counts as 1
    /// False proposes uniformly from the space (the random-search
    /// ablation); the GP still observes every trial.
    bool use_gp = true;
    std::string acquisition;
    double kernel_inverse_scale = 4.0;
    double hamming_weight = 1.0;
    bayesopt::BayesOptConfig bo;
    CheckpointOptions checkpoint;
};

/// What differs between the loop's callers.
struct SearchHooks {
    /// Fresh run, after the optimizer is built: prepares the caller's state
    /// and returns the evaluation context key.
    std::function<std::uint64_t()> start;
    /// Resumed run: checks and restores the caller's part of a checkpoint
    /// whose space and scenario digests matched.
    std::function<void(const SearchCheckpoint&)> resume;
    /// Adds the caller's part to a checkpoint about to be written.
    std::function<void(SearchCheckpoint&)> save;
    /// Evaluates one group of encoded points; may advance `context.stamp`.
    std::function<BatchOutcome(const std::vector<bayesopt::Point>& points,
                               EvalContext& context)>
        evaluate;
};

/// The loop's outcome over the whole run, resumed trials included.
struct SearchOutcome {
    std::vector<bayesopt::Trial> trials;
    bayesopt::Trial best;
    EvalContext context;  ///< the evaluation context at the end of the run
    /// False when the run stopped at stop_after before its budget ran out.
    bool completed = true;
    std::size_t resumed_trials = 0;  ///< restored, not evaluated here
};

/// Runs the loop over `space`.  `rng` is the caller's loop generator: the
/// optimizer splits its stream off it first, and a resume restores it.
SearchOutcome run_search_loop(const ParamSpace& space,
                              const SearchSettings& settings,
                              const SearchHooks& hooks, Rng& rng);

}  // namespace bayesft::core
