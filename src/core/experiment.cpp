#include "core/experiment.hpp"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "fault/evaluator.hpp"
#include "utils/logging.hpp"

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

    // The paper's column order.  Method i draws from its own stream,
    // seed + i + 1, so disabling one method does not reshuffle the others'.
    const std::pair<const char*, bool> methods[] = {
        {"ERM", config.methods.erm},
        {"FTNA", config.methods.ftna},
        {"ReRAM-V", config.methods.reram_v},
        {"AWP", config.methods.awp},
        {"BayesFT", config.methods.bayesft}};
    for (std::size_t i = 0; i < std::size(methods); ++i) {
        if (!methods[i].second) continue;
        const std::string name = methods[i].first;
        Rng rng(config.seed + i + 1);
        SweepCurve curve{name, nullptr, accuracy_on(test_set)};
        models::ModelHandle model;
        std::unique_ptr<FtnaClassifier> ftna;
        if (name == "FTNA") {
            model = factory(config.ftna_code_bits, rng);
            log_info() << "[experiment] training FTNA / " << model.name;
            ftna = std::make_unique<FtnaClassifier>(
                std::move(model), num_classes, config.ftna_code_bits, rng);
            ftna->train(train_set, config.train, rng);
            curve.net = &ftna->network();
            curve.metric = [&ftna, &test_set](nn::Module&) {
                return ftna->evaluate_accuracy(test_set.images,
                                               test_set.labels);
            };
            // The metric decodes through the wrapper's own network, not
            // the module it is handed, so the sweep must stay serial.
            curve.threads = 1;
        } else {
            model = factory(num_classes, rng);
            if (name == "BayesFT") {
                log_info() << "[experiment] running BayesFT search / "
                           << model.name;
                // Hold out part of the training set for the search's utility.
                Rng split_rng(config.seed + 6);
                const data::TrainTestSplit inner =
                    data::split(train_set, 0.25, split_rng);
                const BayesFTResult search = bayesft_search(
                    model, inner.train, inner.test, config.bayesft, rng);
                result.trials = to_trial_records(search.trials,
                                                 search.trial_points);
                result.resumed_trials = search.resumed_trials;
                if (!search.completed) {
                    // The search checkpointed out mid-run (stop_after): its
                    // model is half-searched state, so skip the sweep — the
                    // caller resumes with the same checkpoint path to
                    // finish the figure.
                    result.search_completed = false;
                    break;
                }
                result.bayesft_alpha = search.best_alpha;
            } else {
                log_info() << "[experiment] training " << name << " / "
                           << model.name;
                if (name == "ERM") {
                    train_erm(model, train_set, config.train, rng);
                } else if (name == "ReRAM-V") {
                    ReRamVConfig reram = config.reram_v;
                    reram.pretrain = config.train;
                    train_reram_v(model, train_set, reram, rng);
                } else {
                    AwpConfig awp = config.awp;
                    awp.train = config.train;
                    train_awp(model, train_set, awp, rng);
                }
            }
            // Taken after training: a batched search installs the winning
            // replica's network in place of the one it was handed.
            curve.net = model.net.get();
        }
        result.curves.push_back(
            sweep_levels({curve}, config.sigmas, config.eval_samples, rng)
                .front());
    }
    return result;
}

}  // namespace bayesft::core
