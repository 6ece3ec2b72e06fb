#include "core/experiment.hpp"

#include <stdexcept>

#include "core/method.hpp"
#include "fault/evaluator.hpp"

namespace bayesft::core {

ResultTable RegistryResult::to_table(const std::string& title,
                                     double scale) const {
    std::vector<std::string> columns{x_label};
    for (const NamedCurve& curve : curves) columns.push_back(curve.label);
    ResultTable table(title, columns);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        std::vector<double> row{xs[i]};
        for (const NamedCurve& curve : curves) {
            row.push_back(curve.values[i] * scale);
        }
        table.add_row(row);
    }
    return table;
}

std::unique_ptr<fault::FaultModel> lognormal_drift(double sigma) {
    return std::make_unique<fault::LogNormalDrift>(sigma);
}

std::function<double(nn::Module&)> accuracy_on(const data::Dataset& test_set) {
    return [&test_set](nn::Module& m) {
        return nn::evaluate_accuracy(m, test_set.images, test_set.labels);
    };
}

std::vector<NamedCurve> sweep_levels(const std::vector<SweepCurve>& curves,
                                     const std::vector<double>& levels,
                                     std::size_t mc_samples, Rng& rng) {
    std::vector<NamedCurve> out;
    for (const SweepCurve& curve : curves) out.push_back({curve.label, {}});
    for (double level : levels) {
        for (std::size_t i = 0; i < curves.size(); ++i) {
            const SweepCurve& curve = curves[i];
            const std::unique_ptr<fault::FaultModel> fault =
                curve.fault(level);
            const nn::ScopedInferenceMode mode(*curve.net, curve.mode);
            out[i].values.push_back(
                fault::evaluate_metric_under_faults(*curve.net, *fault,
                                                    mc_samples, rng,
                                                    curve.metric,
                                                    curve.threads)
                    .mean_accuracy);
        }
    }
    return out;
}

std::vector<TrialRecord> to_trial_records(
    const std::vector<bayesopt::Trial>& trials,
    const std::vector<std::string>& points) {
    std::vector<TrialRecord> records;
    records.reserve(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
        records.push_back(
            {i, i < points.size() ? points[i] : std::string(),
             trials[i].y, trial_status_name(trials[i].status)});
    }
    return records;
}

RegistryResult run_classification_experiment(
    const ModelFactory& factory, const data::Dataset& train_set,
    const data::Dataset& test_set, std::size_t num_classes,
    const ExperimentConfig& config) {
    if (!factory) {
        throw std::invalid_argument("run_classification_experiment: no factory");
    }
    RegistryResult result;
    result.x_label = "sigma";
    result.xs = config.sigmas;

    for (const auto& method : make_methods(config.methods)) {
        Rng rng(config.seed + method->seed_offset());
        const TrainedMethod trained = method->train(
            factory, train_set, test_set, num_classes, config, rng);
        if (!trained.trials.empty()) {
            result.trials =
                to_trial_records(trained.trials, trained.trial_points);
            result.resumed_trials = trained.resumed_trials;
        }
        if (!trained.search_completed) {
            // The search checkpointed out mid-run (stop_after): its model
            // is half-searched state, so skip the sweep — the caller
            // resumes with the same checkpoint path to finish the figure.
            result.search_completed = false;
            break;
        }
        const std::vector<NamedCurve> curve = sweep_levels(
            {{method->name(), trained.net, trained.metric, lognormal_drift,
              nn::InferenceMode::kFloat32, trained.sweep_threads}},
            config.sigmas, config.eval_samples, rng);
        result.curves.push_back(curve.front());
        if (!trained.best_alpha.empty()) {
            result.bayesft_alpha = trained.best_alpha;
        }
    }
    return result;
}

}  // namespace bayesft::core
