// search_long: core::arch_search over the MLP architecture family on
// synthetic digits at 500 trials, q = 4, drift sigma 0.9, checkpointing
// every group.  The GP surrogate (bayesopt/, linalg/), the engine and the
// checkpoint writes dominate; conv GEMM is absent and training is small.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "bayesopt/acquisition.hpp"
#include "bench.hpp"
#include "core/archsearch.hpp"
#include "core/engine.hpp"
#include "core/persist.hpp"
#include "core/runstore.hpp"
#include "data/digits.hpp"
#include "fault/evaluator.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace bayesft;

namespace {

constexpr std::size_t kTrials = 500;
constexpr std::size_t kGroup = 4;
constexpr std::size_t kSamples = 1000;
constexpr int kSetups = 10;
constexpr const char* kCheckpointName = "search.ckpt";

struct Task {
    data::TrainTestSplit parts;
    models::ArchFamily family;
};

models::MlpOptions base_mlp() {
    models::MlpOptions base;  // registry base_mlp_options()
    base.input_features = 256;
    base.hidden = 64;
    base.hidden_layers = 2;
    return base;
}

Task make_task(std::uint64_t seed) {
    Rng data_rng(191 + seed);
    data::DigitConfig config;
    config.samples = kSamples;
    config.image_size = 16;
    data::Dataset full;
    {
        Span span("data.synth");
        full = data::synthetic_digits(config, data_rng);
    }
    Rng split_rng(192 + seed);
    return {data::split(full, 0.25, split_rng),
            models::mlp_arch_family(base_mlp(), /*max_hidden_layers=*/4,
                                    /*max_dropout_rate=*/0.5)};
}

core::ArchSearchConfig search_config(const std::string& checkpoint) {
    core::ArchSearchConfig config;
    config.iterations = kTrials;
    config.batch = kGroup;
    config.train.epochs = 1;
    config.train.batch_size = 32;
    config.train.learning_rate = 0.05;
    config.objective.sigmas = {0.9};
    config.objective.mc_samples = 2;
    config.bo.initial_random_trials = 8;
    config.final_epochs = 1;
    config.checkpoint.path = checkpoint;
    return config;
}

std::string checkpoint_path() { return scratch_dir() + "/" + kCheckpointName; }

/// The search loop of core::arch_search rebuilt from public calls, with a
/// span around each; same streams, so the same trials and best utility.
struct Mirror {
    double best = 0.0;
    std::size_t rows = 0;
    std::size_t cache_hits = 0;
    std::size_t failed = 0;
    std::vector<core::RunRecord> records;
};

Mirror mirror_search(const models::ArchFamily& family,
                     const data::Dataset& train, const data::Dataset& val,
                     const core::ArchSearchConfig& config, Rng& rng) {
    const core::ParamSpace& space = family.space;
    bayesopt::BayesOpt bo(
        space.encoded_bounds(),
        space.kernel(config.kernel_inverse_scale, config.hamming_weight),
        bayesopt::make_acquisition(config.acquisition), config.bo,
        rng.split(), space.projection());
    core::EngineConfig engine_config;
    engine_config.threads = config.eval_threads;
    engine_config.resilience = config.resilience;
    core::EvaluationEngine engine(engine_config);
    core::EvalContext context;
    context.key = core::objective_digest(config.objective);
    context.key = core::mix_key(context.key, space.digest());
    context.key = core::mix_key(
        context.key, static_cast<std::uint64_t>(config.train.epochs));
    context.key = core::mix_key(context.key, rng());

    const core::PointEvaluator evaluator = [&](const core::Alpha& encoded,
                                               Rng& r) {
        const core::ParamPoint point = space.decode(encoded);
        models::ModelHandle model = family.build(space, point, r);
        {
            Span span("nn.train");
            nn::train_classifier(*model.net, train.images, train.labels,
                                 config.train, r);
        }
        return traced_fault_utility(*model.net, val, config.objective, r);
    };

    Mirror mirror;
    std::size_t done = 0;
    while (done < config.iterations) {
        const std::size_t group =
            std::min(config.batch, config.iterations - done);
        std::vector<bayesopt::Point> encoded;
        core::BatchOutcome outcome;
        {
            Span span("bo.suggest");
            encoded = bo.suggest_batch(group);
        }
        {
            Span span("engine.eval");
            outcome = engine.evaluate_points(encoded, evaluator, context);
        }
        {
            Span span("bo.observe");
            bo.observe_batch(encoded, outcome.utilities, outcome.statuses);
        }
        done += group;
        {
            Span span("persist.checkpoint");
            core::SearchCheckpoint cp;
            cp.run_id = "arch_search:" + family.name;
            cp.build = core::build_stamp();
            cp.space_digest = space.digest();
            cp.context_key = context.key;
            cp.context_stamp = context.stamp;
            cp.trials_done = done;
            cp.run_rng = rng.state();
            cp.bo = bo.export_state();
            cp.cache = engine.export_cache();
            core::save_checkpoint(cp, config.checkpoint.path);
        }
        for (std::size_t j = 0; j < group; ++j) {
            if (outcome.statuses[j] != TrialStatus::kOk) ++mirror.failed;
        }
    }
    const auto best = bo.best();
    // The winner's re-materialization and fine-tuning, as arch_search ends.
    Rng winner_rng(core::candidate_seed(context, best->x));
    models::ModelHandle winner =
        family.build(space, space.decode(best->x), winner_rng);
    {
        Span span("nn.train");
        nn::train_classifier(*winner.net, train.images, train.labels,
                             config.train, winner_rng);
        nn::TrainConfig final_config = config.train;
        final_config.epochs = config.final_epochs;
        nn::train_classifier(*winner.net, train.images, train.labels,
                             final_config, rng);
    }
    mirror.best = best->y;
    mirror.rows = bo.trials().size();
    mirror.cache_hits = engine.cache_hits();
    for (std::size_t i = 0; i < bo.trials().size(); ++i) {
        core::RunRecord record;
        record.kind = "trial";
        record.scenario = "search_long";
        record.family = "archsearch";
        record.batch = config.batch;
        record.trial = i;
        record.point = space.describe(space.decode(bo.trials()[i].x));
        record.objective = bo.trials()[i].y;
        record.status = trial_status_name(bo.trials()[i].status);
        record.build = core::build_stamp();
        mirror.records.push_back(std::move(record));
    }
    return mirror;
}

}  // namespace

Result run_search(const Options& options) {
    Result result;
    Trace::set_enabled(options.trace);
    // Set-up is timed at the start and again at the end of the run, so its
    // median spans the run rather than one moment of the host.
    std::vector<double> setups;
    Task task;
    const auto set_up = [&] {
        for (int i = 0; i < kSetups; ++i) {
            const double start = now_s();
            task = make_task(options.seed);
            setups.push_back(now_s() - start);
        }
        result.metrics["setup_s"] = median(setups);
    };
    set_up();
    const data::Dataset& train = task.parts.train;
    const data::Dataset& val = task.parts.test;
    const std::string path = checkpoint_path();
    const core::ArchSearchConfig config = search_config(path);

    if (options.trace) {
        result.metrics["data.synth_s"] =
            median(Trace::aggregates().at("data.synth").durations_s);
        Trace::set_enabled(false);
        tensor_replay(result);
        const EpochTimes epochs = measure_epochs(
            [](Rng& rng) { return models::make_mlp(base_mlp(), rng); }, train,
            config.train, options.seed);
        result.metrics["nn.fwd_s"] = epochs.fwd_s;
        result.metrics["nn.bwd_s"] = epochs.bwd_s;
        result.metrics["nn.step_s"] = epochs.step_s;

        std::filesystem::remove(path);
        Rng real_rng(193 + options.seed);
        double start = now_s();
        const core::ArchSearchResult real =
            core::arch_search(task.family, train, val, config, real_rng);
        const double real_s = now_s() - start;

        std::filesystem::remove(path);
        Rng mirror_rng(193 + options.seed);
        Trace::reset();
        Trace::set_enabled(true);
        start = now_s();
        const Mirror mirror =
            mirror_search(task.family, train, val, config, mirror_rng);
        const double mirror_s = now_s() - start;
        Trace::set_enabled(false);
        if (mirror.best != real.best_utility) {
            note("mirror best utility " + std::to_string(mirror.best) +
                 " differs from arch_search's " +
                 std::to_string(real.best_utility));
        }

        const auto agg = Trace::aggregates();
        const auto total = [&](const char* name) {
            const auto it = agg.find(name);
            return it == agg.end() ? 0.0 : it->second.total_s;
        };
        std::vector<double> suggest_ms;
        for (double s : agg.at("bo.suggest").durations_s) {
            suggest_ms.push_back(1e3 * s);
        }
        result.metrics["nn.train_s"] = total("nn.train");
        result.metrics["fault.mc_eval_s"] = total("fault.mc_eval");
        result.metrics["fault.mc_eval_calls"] =
            static_cast<double>(agg.at("fault.mc_eval").calls);
        result.metrics["bo.suggest_s"] = total("bo.suggest");
        result.metrics["bo.suggest_ms_p99"] =
            tail_percentile(suggest_ms).value;
        result.metrics["bo.observe_s"] = total("bo.observe");
        result.metrics["bo.gp_rows"] = static_cast<double>(mirror.rows);
        result.metrics["engine.eval_s"] = total("engine.eval");
        result.metrics["engine.cache_hits"] =
            static_cast<double>(mirror.cache_hits);
        result.metrics["engine.failed"] = static_cast<double>(mirror.failed);
        result.metrics["persist.checkpoint_s"] = total("persist.checkpoint");
        result.metrics["persist.checkpoints"] =
            static_cast<double>(agg.at("persist.checkpoint").calls);
        result.metrics["persist.checkpoint_bytes"] =
            static_cast<double>(std::filesystem::file_size(path));
        result.metrics["trace.overhead_frac"] = mirror_s / real_s - 1.0;
        result.metrics["trace.unattributed_frac"] =
            1.0 - covered_seconds(Trace::top_intervals(), start,
                                  start + mirror_s) /
                      mirror_s;

        // The run store receives the finished search's trial records.
        core::RunStore store(scratch_dir() + "/runs");
        start = now_s();
        store.append("search_long", mirror.records);
        result.metrics["runstore.append_s"] = now_s() - start;
        serve_probe(result, options.seed);
        result.attempted = mirror.rows;
        result.failed = mirror.failed;
        return result;
    }

    const double start = now_s();
    std::vector<double> walls, best, robust;
    do {
        std::filesystem::remove(path);
        // Each repeat searches from its own stream, so the quality figures
        // are medians over searches rather than one search's luck.
        const std::uint64_t unit_seed = options.seed + 1000 * walls.size();
        Rng rng(193 + unit_seed);
        const double t0 = now_s();
        const core::ArchSearchResult search =
            core::arch_search(task.family, train, val, config, rng);
        walls.push_back(now_s() - t0);

        std::size_t quarantined = 0;
        for (const bayesopt::Trial& trial : search.trials) {
            if (trial.status != TrialStatus::kOk) ++quarantined;
        }
        result.attempted += kTrials;
        result.failed += quarantined + (kTrials - std::min(
                                                      kTrials,
                                                      search.trials.size()));
        result.check(search.completed && search.trials.size() == kTrials,
                     "search observed " +
                         std::to_string(search.trials.size()) +
                         " trials, expected 500");
        result.check(quarantined == 0, std::to_string(quarantined) +
                                           " trials quarantined");
        result.check(core::checkpoint_exists(path) &&
                         core::load_checkpoint(path).trials_done == kTrials,
                     "the last checkpoint does not hold all 500 trials");
        result.check(std::isfinite(search.best_utility) &&
                         search.best_utility > 0.0,
                     "search best utility is not a positive number");
        best.push_back(search.best_utility);

        // The winner's accuracy across the drift grid of the figures.
        Rng sweep_rng(194 + unit_seed);
        const std::vector<double> sweep = fault::sigma_sweep(
            *search.best_model.net, val.images, val.labels,
            {0.3, 0.6, 0.9, 1.2, 1.5}, 4, sweep_rng);
        double mean = 0.0;
        for (double v : sweep) mean += v / static_cast<double>(sweep.size());
        robust.push_back(mean);
    } while (now_s() - start + median(walls) <= options.seconds);
    std::filesystem::remove(path);
    note("arch_search runs: " + seconds_list(walls) +
         "; wall_s is the fastest");

    result.metrics["wall_s"] = fastest(walls);
    result.metrics["best_utility"] = median(best);
    result.metrics["robust_acc"] = median(robust);
    result.metrics["ok_frac"] =
        1.0 - static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted);
    set_up();
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    return result;
}

}  // namespace perfbench
