#include "core/archsearch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/search_loop.hpp"

namespace bayesft::core {

namespace {

/// Everything that shapes the architecture search besides the RNG streams
/// (the space itself is validated separately via its own digest).
std::uint64_t archsearch_scenario_digest(const ArchSearchConfig& config,
                                         const RngState& entry) {
    std::uint64_t key = objective_digest(config.objective);
    key = mix_key(key, static_cast<std::uint64_t>(config.iterations));
    key = mix_key(key, static_cast<std::uint64_t>(config.final_epochs));
    key = mix_key(key, static_cast<std::uint64_t>(
                           std::max<std::size_t>(1, config.batch)));
    key = mix_key(key, std::string_view(config.acquisition));
    const double reals[] = {config.kernel_inverse_scale,
                            config.hamming_weight};
    key = mix_key(key, reals, 2);
    key = mix_bo_config(key, config.bo);
    key = mix_train_config(key, config.train);
    key = mix_key(key, kNumericsGeneration);
    return mix_rng_state(key, entry);
}

}  // namespace

ArchSearchResult arch_search(const models::ArchFamily& family,
                             const data::Dataset& train_set,
                             const data::Dataset& validation_set,
                             const ArchSearchConfig& config, Rng& rng) {
    if (family.space.size() == 0 || !family.build) {
        throw std::invalid_argument(
            "arch_search: family needs a non-empty space and a builder");
    }
    if (config.iterations == 0) {
        throw std::invalid_argument("arch_search: zero iterations");
    }
    const ParamSpace& space = family.space;

    EvaluationEngine engine({.threads = config.eval_threads,
                             .resilience = config.resilience,
                             .workers = config.workers});
    const PointEvaluator evaluator = [&](const Alpha& encoded, Rng& r) {
        const ParamPoint point = space.decode(encoded);
        models::ModelHandle model = family.build(space, point, r);
        nn::train_classifier(*model.net, train_set.images, train_set.labels,
                             config.train, r);
        return fault_utility(*model.net, validation_set.images,
                             validation_set.labels, config.objective, r);
    };

    const SearchSettings settings{
        .run_id = "arch_search:" + family.name,
        .scenario_digest = archsearch_scenario_digest(config, rng.state()),
        .iterations = config.iterations,
        .batch = config.batch,
        .acquisition = config.acquisition,
        .kernel_inverse_scale = config.kernel_inverse_scale,
        .hamming_weight = config.hamming_weight,
        .bo = config.bo,
        .checkpoint = config.checkpoint,
    };
    SearchHooks hooks;
    // The context digests everything a candidate's utility depends on
    // besides its point: objective, space structure, training budget, and a
    // per-run nonce so two searches differing only in seed draw distinct
    // candidate streams.  The stamp stays 0 for the whole run — candidates
    // are built from scratch, so memoized utilities never go stale and
    // repeated proposals (common once integer/categorical snapping kicks
    // in) cost nothing.
    hooks.start = [&] {
        std::uint64_t key = objective_digest(config.objective);
        key = mix_key(key, space.digest());
        key = mix_key(key, static_cast<std::uint64_t>(config.train.epochs));
        return mix_key(key, rng());
    };
    // Re-seed the memo cache: duplicate proposals after a resume are as
    // free as they were in the writing run.
    hooks.resume = [&](const SearchCheckpoint& cp) {
        engine.import_cache({cp.context_key, cp.context_stamp}, cp.cache);
    };
    hooks.save = [&](SearchCheckpoint& cp) {
        cp.cache = engine.export_cache();
    };
    hooks.evaluate = [&](const std::vector<bayesopt::Point>& points,
                         EvalContext& context) {
        return engine.evaluate_points(points, evaluator, context);
    };
    const SearchOutcome search = run_search_loop(space, settings, hooks, rng);

    ArchSearchResult result;
    result.best_utility = search.best.y;
    result.best_point = space.decode(search.best.x);
    result.trials = search.trials;
    for (const bayesopt::Trial& trial : result.trials) {
        result.trial_points.push_back(space.decode(trial.x));
    }
    result.engine_cache_hits = engine.cache_hits();
    result.completed = search.completed;
    result.resumed_trials = search.resumed_trials;
    if (!result.completed) return result;

    // Re-materialize the winner on its original candidate stream: the same
    // derived seed replays build + training bit for bit, so the returned
    // model is exactly the candidate the GP scored.
    Rng winner_rng(candidate_seed(search.context, search.best.x));
    result.best_model = family.build(space, result.best_point, winner_rng);
    nn::train_classifier(*result.best_model.net, train_set.images,
                         train_set.labels, config.train, winner_rng);
    if (config.final_epochs > 0) {
        nn::TrainConfig final_config = config.train;
        final_config.epochs = config.final_epochs;
        nn::train_classifier(*result.best_model.net, train_set.images,
                             train_set.labels, final_config, rng);
    }
    return result;
}

}  // namespace bayesft::core
