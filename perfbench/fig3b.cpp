// fig3b_lenet: the full Fig. 3(b) scenario through the experiment registry
// (five methods on LeNet-5, the BayesFT search, the sigma sweep).  Training
// dominates it, so it is where tensor/, simd/ and nn/ do most of the work.

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "core/registry.hpp"
#include "data/digits.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace bayesft;

namespace {

constexpr std::size_t kSamples = 1000;  // digits_task(1000, 41, ...)
constexpr int kSetups = 10;

data::TrainTestSplit make_task(std::uint64_t seed) {
    Rng data_rng(41 + seed);
    data::DigitConfig config;
    config.samples = kSamples;
    config.image_size = 16;
    data::Dataset full;
    {
        Span span("data.synth");
        full = data::synthetic_digits(config, data_rng);
    }
    Rng split_rng(42 + seed);
    return data::split(full, 0.25, split_rng);
}

models::ModelHandle make_lenet(Rng& rng) {
    return models::make_lenet5(1, 16, 10, rng);
}

nn::TrainConfig lenet_train_config() {
    nn::TrainConfig config;  // run_fig3b: batch 32, lr 0.03
    config.batch_size = 32;
    config.learning_rate = 0.03;
    return config;
}

/// Checks one registry result; returns (robust_acc, best_utility).
std::pair<double, double> check_run(const core::RegistryResult& run,
                                    Result& result, bool print) {
    bool finite = true;
    double robust = 0.0;
    std::size_t robust_points = 0;
    std::ostringstream clean;
    for (const core::NamedCurve& curve : run.curves) {
        for (double v : curve.values) finite = finite && std::isfinite(v);
        const double clean_acc = curve.values.empty() ? 0.0 : curve.values[0];
        clean << " " << curve.label << "=" << clean_acc;
        if (curve.label == "ERM" || curve.label == "BayesFT") {
            result.check(clean_acc >= 0.5,
                         curve.label + " clean accuracy " +
                             std::to_string(clean_acc) + " below 0.5");
        }
        if (curve.label == "BayesFT") {
            for (std::size_t i = 0; i < run.xs.size(); ++i) {
                if (run.xs[i] >= 0.3 - 1e-9) {
                    robust += curve.values[i];
                    ++robust_points;
                }
            }
        }
    }
    result.check(finite, "fig3b curve holds a non-finite value");
    result.check(run.xs.size() == 6 && run.xs[0] == 0.0,
                 "fig3b sigma grid is not {0, 0.3, ..., 1.5}");
    result.check(robust_points == 5, "fig3b has no BayesFT curve");
    double best = 0.0;
    for (const core::TrialRecord& trial : run.trials) {
        if (trial.status == "ok") best = std::max(best, trial.objective);
    }
    result.check(!run.trials.empty() && best > 0.0,
                 "fig3b BayesFT search observed no successful trial");
    if (print) note("clean accuracy (AWP shown, not checked):" + clean.str());
    return {robust_points ? robust / robust_points : 0.0, best};
}

}  // namespace

Result run_fig3b(const Options& options) {
    Result result;
    Trace::set_enabled(options.trace);
    // Set-up is timed at the start and again at the end of the run, so its
    // median spans the run rather than one moment of the host.
    std::vector<double> setups;
    data::TrainTestSplit parts;
    const auto set_up = [&] {
        for (int i = 0; i < kSetups; ++i) {
            const double start = now_s();
            parts = make_task(options.seed);
            Rng rng(options.seed);
            const models::ModelHandle model = make_lenet(rng);
            setups.push_back(now_s() - start);
        }
        result.metrics["setup_s"] = median(setups);
    };
    set_up();

    if (options.trace) {
        result.metrics["data.synth_s"] =
            median(Trace::aggregates().at("data.synth").durations_s);
        Trace::set_enabled(false);
        tensor_replay(result);
        const EpochTimes epochs = measure_epochs(
            make_lenet, parts.train, lenet_train_config(), options.seed);
        result.metrics["nn.fwd_s"] = epochs.fwd_s;
        result.metrics["nn.bwd_s"] = epochs.bwd_s;
        result.metrics["nn.step_s"] = epochs.step_s;
        result.metrics["nn.train_s"] = epochs.train_s;
        result.metrics["trace.overhead_frac"] =
            epochs.traced_s / epochs.untraced_s - 1.0;
        result.metrics["trace.unattributed_frac"] =
            1.0 - epochs.covered_s / epochs.traced_s;

        // The Monte-Carlo utility the BayesFT search scores each candidate
        // with (default_config: sigmas {0.3, 0.6, 0.9}, 3 samples).
        Rng rng(options.seed);
        models::ModelHandle model = make_lenet(rng);
        nn::train_classifier(*model.net, parts.train.images,
                             parts.train.labels, lenet_train_config(), rng);
        core::ObjectiveConfig objective;
        objective.mc_samples = 3;
        Trace::reset();
        Trace::set_enabled(true);
        for (int i = 0; i < 3; ++i) {
            traced_fault_utility(*model.net, parts.test, objective, rng);
        }
        Trace::set_enabled(false);
        const Trace::Aggregate mc = Trace::aggregates().at("fault.mc_eval");
        result.metrics["fault.mc_eval_s"] = mc.total_s;
        result.metrics["fault.mc_eval_calls"] = static_cast<double>(mc.calls);
        result.attempted = 1;
        return result;
    }

    // The scenario itself, repeated while the budget allows, each repeat on
    // its own seed so the quality figures are medians over tasks.
    const double start = now_s();
    core::RunOptions run_options;
    std::vector<double> walls, robust, best;
    do {
        run_options.seed = options.seed + 1000 * walls.size();
        const double t0 = now_s();
        const core::RegistryResult run =
            core::ExperimentRegistry::instance().run("fig3b_lenet_mnist",
                                                     run_options);
        walls.push_back(now_s() - t0);
        ++result.attempted;
        const bool before = result.correct;
        const auto [r, b] = check_run(run, result, walls.size() == 1);
        if (before && !result.correct) ++result.failed;
        robust.push_back(r);
        best.push_back(b);
    } while (now_s() - start + median(walls) <= options.seconds);
    note("fig3b_lenet_mnist runs: " + seconds_list(walls) +
         "; wall_s is the fastest");

    result.metrics["wall_s"] = fastest(walls);
    result.metrics["robust_acc"] = median(robust);
    result.metrics["best_utility"] = median(best);
    result.metrics["ok_frac"] =
        1.0 - static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted);
    set_up();
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    return result;
}

}  // namespace perfbench
