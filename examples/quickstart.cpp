// Quickstart: the 60-second tour of the BayesFT library.
//
//   1. Generate a synthetic digit dataset (MNIST substitute).
//   2. Train a small MLP with plain ERM.
//   3. Simulate ReRAM weight drift (Eq. 1) and watch accuracy collapse.
//   4. Run the BayesFT search (Algorithm 1) and compare.
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "core/baselines.hpp"
#include "core/bayesft.hpp"
#include "data/digits.hpp"
#include "fault/evaluator.hpp"
#include "models/zoo.hpp"
#include "utils/logging.hpp"
#include "utils/table.hpp"

int main() {
    using namespace bayesft;
    set_log_level(LogLevel::Warn);

    // 1. Data: 1000 synthetic 16x16 digits, 75/25 train/test split.
    Rng rng(7);
    data::DigitConfig digit_config;
    digit_config.samples = 1000;
    digit_config.image_size = 16;
    const data::Dataset digits = data::synthetic_digits(digit_config, rng);
    Rng split_rng(8);
    const data::TrainTestSplit parts = data::split(digits, 0.25, split_rng);

    // 2. A 3-layer MLP trained with plain empirical risk minimization.
    models::MlpOptions options;
    options.input_features = 16 * 16;
    options.hidden = 64;
    options.hidden_layers = 2;
    models::ModelHandle erm_model = models::make_mlp(options, rng);
    nn::TrainConfig train_config;
    train_config.epochs = 10;
    core::train_erm(erm_model, parts.train, train_config, rng);
    std::cout << "ERM clean test accuracy: "
              << nn::evaluate_accuracy(*erm_model.net, parts.test.images,
                                       parts.test.labels) *
                     100.0
              << "%\n";

    // 3. Drift the weights: theta' = theta * exp(N(0, sigma^2)).
    //    WeightSnapshot-based evaluation restores clean weights afterwards.
    std::cout << "\nAccuracy under memristance drift (5 MC samples each):\n";
    for (double sigma : {0.3, 0.6, 0.9, 1.2}) {
        const fault::LogNormalDrift drift(sigma);
        const auto report = fault::evaluate_under_faults(
            *erm_model.net, parts.test.images, parts.test.labels, drift, 5,
            rng);
        std::cout << "  sigma = " << sigma << ": "
                  << format_double(report.mean_accuracy * 100.0, 1) << "% (+/- "
                  << format_double(report.std_accuracy * 100.0, 1) << ")\n";
    }

    // 4. BayesFT: search per-layer dropout rates that maximize the
    //    drift-marginalized utility, alternating with SGD on the weights.
    std::cout << "\nRunning BayesFT search (Algorithm 1)...\n";
    models::ModelHandle bft_model = models::make_mlp(options, rng);
    core::BayesFTConfig search_config;
    search_config.iterations = 8;
    search_config.epochs_per_iteration = 1;
    search_config.objective.sigmas = {0.3, 0.6, 0.9};
    search_config.objective.mc_samples = 3;
    search_config.final_epochs = 3;
    const core::BayesFTResult result = core::bayesft_search(
        bft_model, parts.train, parts.test, search_config, rng);

    std::cout << "Best per-layer dropout rates:";
    for (double a : result.best_alpha) {
        std::cout << ' ' << format_double(a, 3);
    }
    std::cout << "\n\nERM vs BayesFT under drift:\n";
    ResultTable table("quickstart", {"sigma", "ERM %", "BayesFT %"});
    for (double sigma : {0.0, 0.3, 0.6, 0.9, 1.2}) {
        const fault::LogNormalDrift drift(sigma);
        const double erm_acc =
            fault::evaluate_under_faults(*erm_model.net, parts.test.images,
                                         parts.test.labels, drift, 5, rng)
                .mean_accuracy;
        const double bft_acc =
            fault::evaluate_under_faults(*bft_model.net, parts.test.images,
                                         parts.test.labels, drift, 5, rng)
                .mean_accuracy;
        table.add_row({sigma, erm_acc * 100.0, bft_acc * 100.0});
    }
    std::cout << table;
    return 0;
}
