#include "core/bayesft.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/param_space.hpp"
#include "core/search_loop.hpp"

namespace bayesft::core {

namespace {

/// Everything that shapes the dropout search besides the RNG streams; a
/// checkpoint written under any other value resumes nothing.
std::uint64_t bayesft_scenario_digest(const BayesFTConfig& config,
                                      bool use_gp, const RngState& entry) {
    std::uint64_t key = objective_digest(config.objective);
    key = mix_key(key, static_cast<std::uint64_t>(config.iterations));
    key = mix_key(key,
                  static_cast<std::uint64_t>(config.epochs_per_iteration));
    key = mix_key(key, static_cast<std::uint64_t>(config.warmup_epochs));
    key = mix_key(key, static_cast<std::uint64_t>(config.final_epochs));
    key = mix_key(key, static_cast<std::uint64_t>(
                           std::max<std::size_t>(1, config.batch)));
    key = mix_key(key, static_cast<std::uint64_t>(use_gp ? 1 : 0));
    key = mix_key(key, std::string_view(config.acquisition));
    const double reals[] = {config.kernel_inverse_scale,
                            config.max_dropout_rate};
    key = mix_key(key, reals, 2);
    key = mix_bo_config(key, config.bo);
    key = mix_train_config(key, config.train);
    key = mix_key(key, kNumericsGeneration);
    return mix_rng_state(key, entry);
}

/// The two steps Algorithm 1 alternates on theta: train for some epochs
/// under the installed dropout rates (lines 5-7), and score the
/// fault-marginalized utility (Eq. 4) on held-out data (lines 8-9).
struct ThetaSteps {
    std::function<void(nn::Module& net, std::size_t epochs, Rng& rng)> train;
    std::function<double(nn::Module& net, Rng& rng)> score;
};

/// The evolving-theta caller of the search loop, behind both bayesft_search
/// overloads and random_search: every group trains theta further through
/// evaluate_batch (per-candidate replicas, winner adoption), so the stamp
/// advances per group and checkpoints carry the weights.
BayesFTResult evolving_search(models::ModelHandle& model,
                              const ThetaSteps& steps,
                              const BayesFTConfig& config, Rng& rng,
                              bool use_gp) {
    if (model.dropout_sites.empty()) {
        throw std::invalid_argument(
            "bayesft_search: model has no dropout sites to search over");
    }
    if (config.iterations == 0) {
        throw std::invalid_argument("bayesft_search: zero iterations");
    }
    if (!(config.max_dropout_rate > 0.0) || config.max_dropout_rate >= 1.0) {
        throw std::invalid_argument(
            "bayesft_search: max_dropout_rate must be in (0, 1)");
    }
    const std::size_t dims = model.dropout_sites.size();
    // The dropout vector as a typed search space: all-continuous dims in
    // native units, so the encoded view, kernel values, and RNG streams are
    // bit-identical to the historical BoxBounds path (gtest-enforced by
    // the serial-reference comparison in tests/test_engine.cpp).
    const ParamSpace space =
        ParamSpace::dropout(dims, config.max_dropout_rate);

    // Crash isolation and distributed workers never apply here (evolving
    // theta cannot cross a child pipe); the in-process guards — timeout
    // classification, retries with state rollback, quarantine — carry the
    // fault tolerance.
    ResilienceConfig resilience = config.resilience;
    resilience.isolate = false;
    EvaluationEngine engine(
        {.threads = config.eval_threads, .resilience = resilience});
    const CandidateEvaluator evaluator =
        [&](models::ModelHandle& candidate, const Alpha&, Rng& r) {
            steps.train(*candidate.net, config.epochs_per_iteration, r);
            return steps.score(*candidate.net, r);
        };

    const SearchSettings settings{
        .run_id = use_gp ? "bayesft_search" : "random_search",
        .scenario_digest =
            bayesft_scenario_digest(config, use_gp, rng.state()),
        .iterations = config.iterations,
        .batch = config.batch,
        .use_gp = use_gp,
        .acquisition = config.acquisition,
        .kernel_inverse_scale = config.kernel_inverse_scale,
        .bo = config.bo,
        .checkpoint = config.checkpoint,
    };
    SearchHooks hooks;
    hooks.start = [&] {
        if (config.warmup_epochs > 0) {
            // Warm-up at alpha = 0 so theta starts the search trainable.
            model.set_dropout_rates(std::vector<double>(dims, 0.0));
            steps.train(*model.net, config.warmup_epochs, rng);
        }
        const std::uint64_t key =
            mix_key(objective_digest(config.objective),
                    static_cast<std::uint64_t>(config.epochs_per_iteration));
        // Per-run nonce: batched candidate RNG streams derive from the
        // context key, so without it two searches differing only in seed
        // would reuse identical noise for identical (alpha, stamp) pairs.
        // Never drawn at q == 1, which must replay the serial loop exactly.
        return config.batch > 1 ? mix_key(key, rng()) : key;
    };
    hooks.resume = [&](const SearchCheckpoint& cp) {
        if (cp.model_digest != model_structure_digest(*model.net)) {
            throw std::runtime_error(
                "checkpoint: model structure mismatch — the checkpoint at " +
                config.checkpoint.path +
                " was written for a different architecture");
        }
        restore_model(*model.net, cp.model_bits);
        restore_model_rngs(*model.net, cp.model_rngs);
    };
    hooks.save = [&](SearchCheckpoint& cp) {
        cp.model_bits = snapshot_model(*model.net);
        cp.model_rngs = snapshot_model_rngs(*model.net);
        cp.model_digest = model_structure_digest(*model.net);
    };
    hooks.evaluate = [&](const std::vector<bayesopt::Point>& alphas,
                         EvalContext& context) {
        const BatchOutcome outcome = engine.evaluate_batch(
            model, alphas, evaluator, rng, context, /*adopt_winner=*/true);
        ++context.stamp;  // theta advanced: cached utilities are stale
        return outcome;
    };
    const SearchOutcome search = run_search_loop(space, settings, hooks, rng);

    BayesFTResult result;
    result.best_alpha = search.best.x;
    result.best_utility = search.best.y;
    result.trials = search.trials;
    for (const bayesopt::Trial& trial : result.trials) {
        result.trial_points.push_back(space.describe(space.decode(trial.x)));
    }
    result.engine_cache_hits = engine.cache_hits();
    result.completed = search.completed;
    result.resumed_trials = search.resumed_trials;
    if (!result.completed) return result;  // the winner stays uninstalled

    // Install the winner and fine-tune theta under it.
    model.set_dropout_rates(result.best_alpha);
    if (config.final_epochs > 0) {
        steps.train(*model.net, config.final_epochs, rng);
    }
    return result;
}

/// A classifier's steps: SGD on cross-entropy with config.train's recipe,
/// scored by the fault-marginalized accuracy (or negative loss).
ThetaSteps classifier_steps(const data::Dataset& train_set,
                            const data::Dataset& validation_set,
                            const BayesFTConfig& config) {
    return {[&](nn::Module& net, std::size_t epochs, Rng& rng) {
                nn::TrainConfig train = config.train;
                train.epochs = epochs;
                nn::train_classifier(net, train_set.images, train_set.labels,
                                     train, rng);
            },
            [&](nn::Module& net, Rng& rng) {
                return fault_utility(net, validation_set.images,
                                     validation_set.labels, config.objective,
                                     rng);
            }};
}

}  // namespace

BayesFTResult bayesft_search(models::ModelHandle& model,
                             const data::Dataset& train_set,
                             const data::Dataset& validation_set,
                             const BayesFTConfig& config, Rng& rng) {
    return evolving_search(model,
                           classifier_steps(train_set, validation_set, config),
                           config, rng, /*use_gp=*/true);
}

BayesFTResult bayesft_search(models::ModelHandle& model,
                             const detect::GridDetector& detector,
                             const data::DetectionDataset& train_scenes,
                             const data::DetectionDataset& validation_scenes,
                             const BayesFTConfig& config, Rng& rng) {
    const ThetaSteps steps{
        [&](nn::Module& net, std::size_t epochs, Rng& r) {
            const detect::DetectorTrainConfig train{
                .epochs = epochs,
                .batch_size = config.train.batch_size,
                .learning_rate = config.train.learning_rate};
            detector.train_with(net, train_scenes.images, train_scenes.boxes,
                                train, r);
        },
        [&](nn::Module& net, Rng& r) {
            return fault_utility(net, config.objective, r, [&](nn::Module& m) {
                return detector.evaluate_map_with(m, validation_scenes.images,
                                                  validation_scenes.boxes);
            });
        }};
    return evolving_search(model, steps, config, rng, /*use_gp=*/true);
}

BayesFTResult random_search(models::ModelHandle& model,
                            const data::Dataset& train_set,
                            const data::Dataset& validation_set,
                            const BayesFTConfig& config, Rng& rng) {
    return evolving_search(model,
                           classifier_steps(train_set, validation_set, config),
                           config, rng, /*use_gp=*/false);
}

}  // namespace bayesft::core
