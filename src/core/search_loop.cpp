#include "core/search_loop.hpp"

#include <algorithm>
#include <stdexcept>

#include "bayesopt/acquisition.hpp"
#include "utils/logging.hpp"

namespace bayesft::core {

SearchOutcome run_search_loop(const ParamSpace& space,
                              const SearchSettings& settings,
                              const SearchHooks& hooks, Rng& rng) {
    bayesopt::BayesOpt bo(
        space.encoded_bounds(),
        space.kernel(settings.kernel_inverse_scale, settings.hamming_weight),
        bayesopt::make_acquisition(settings.acquisition), settings.bo,
        rng.split(), space.projection());

    const CheckpointOptions& checkpoint = settings.checkpoint;
    SearchOutcome outcome;
    EvalContext& context = outcome.context;
    std::size_t done = 0;
    if (checkpoint.enabled() && checkpoint_exists(checkpoint.path)) {
        // Resume: restore the caller's state, the optimizer, the loop RNG
        // (which replaces the draws a fresh start would have made) and the
        // evaluation context, then continue as if the writing run had
        // never stopped.
        const SearchCheckpoint cp = load_checkpoint(checkpoint.path);
        validate_checkpoint(cp, space.digest(), settings.scenario_digest,
                            checkpoint.path);
        if (cp.trials_done > settings.iterations) {
            throw std::runtime_error(
                "checkpoint: " + checkpoint.path + " holds " +
                std::to_string(cp.trials_done) +
                " trials but the configured budget is " +
                std::to_string(settings.iterations));
        }
        hooks.resume(cp);
        bo.import_state(cp.bo);
        rng.set_state(cp.run_rng);
        context = {cp.context_key, cp.context_stamp};
        done = cp.trials_done;
        outcome.resumed_trials = done;
        log_info() << settings.run_id << " resumed from " << checkpoint.path
                   << " at trial " << done << "/" << settings.iterations;
    } else {
        context.key = hooks.start();
    }

    const std::size_t q = std::max<std::size_t>(1, settings.batch);
    std::size_t new_trials = 0;
    while (done < settings.iterations) {
        const std::size_t group = std::min(q, settings.iterations - done);
        std::vector<bayesopt::Point> points;
        if (settings.use_gp) {
            points = bo.suggest_batch(group);
        } else {
            // Typed uniform sampling; for the all-continuous dropout space
            // this draws the stream BoxBounds::sample drew.
            for (std::size_t j = 0; j < group; ++j) {
                points.push_back(space.encode(space.sample(rng)));
            }
        }
        const BatchOutcome evaluated = hooks.evaluate(points, context);
        bo.observe_batch(points, evaluated.utilities, evaluated.statuses);
        for (std::size_t j = 0; j < group; ++j) {
            log_debug() << settings.run_id << " trial " << (done + j) << " ["
                        << space.describe(space.decode(points[j]))
                        << "] utility " << evaluated.utilities[j];
        }
        done += group;
        new_trials += group;
        if (!checkpoint.enabled()) continue;
        SearchCheckpoint cp;
        cp.run_id = settings.run_id;
        cp.build = build_stamp();
        cp.space_digest = space.digest();
        cp.scenario_digest = settings.scenario_digest;
        cp.context_key = context.key;
        cp.context_stamp = context.stamp;
        cp.trials_done = done;
        cp.run_rng = rng.state();
        cp.bo = bo.export_state();
        hooks.save(cp);
        save_checkpoint(cp, checkpoint.path);
        if (checkpoint.stop_after != 0 &&
            new_trials >= checkpoint.stop_after &&
            done < settings.iterations) {
            outcome.completed = false;  // the boundary checkpoint is on disk
            break;
        }
    }
    outcome.trials = bo.trials();
    outcome.best = *bo.best();
    return outcome;
}

}  // namespace bayesft::core
