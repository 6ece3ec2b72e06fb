// Domain example: fault-tolerant traffic-sign recognition (the paper's
// Fig. 3(i) scenario — 43 classes, spatial-transformer classifier).
//
// Demonstrates:
//   - the STN-lite model with a differentiable affine warp front-end,
//   - running BayesFT on a many-class task,
//   - comparing the searched architecture against ERM across drift levels.
//
// Build & run:  ./build/examples/traffic_sign_search

#include <iostream>

#include "core/baselines.hpp"
#include "core/bayesft.hpp"
#include "data/traffic_signs.hpp"
#include "fault/evaluator.hpp"
#include "models/zoo.hpp"
#include "utils/logging.hpp"
#include "utils/table.hpp"

int main() {
    using namespace bayesft;
    set_log_level(LogLevel::Info);

    Rng rng(21);
    data::TrafficSignConfig sign_config;
    sign_config.samples = 1720;  // 40 per class
    const data::Dataset signs =
        data::synthetic_traffic_signs(sign_config, rng);
    Rng split_rng(22);
    const data::TrainTestSplit parts = data::split(signs, 0.25, split_rng);
    std::cout << "Dataset: " << parts.train.size() << " train / "
              << parts.test.size() << " test, " << signs.num_classes
              << " classes\n";

    // ERM baseline.
    Rng erm_rng(23);
    models::ModelHandle erm_model =
        models::make_stn_classifier(43, erm_rng);
    nn::TrainConfig train_config;
    train_config.epochs = 10;
    train_config.learning_rate = 0.02;
    core::train_erm(erm_model, parts.train, train_config, erm_rng);
    std::cout << "ERM clean accuracy: "
              << format_double(
                     nn::evaluate_accuracy(*erm_model.net,
                                           parts.test.images,
                                           parts.test.labels) *
                         100.0,
                     1)
              << "%\n";

    // BayesFT search over the classifier's dropout sites.
    Rng bft_rng(24);
    models::ModelHandle bft_model =
        models::make_stn_classifier(43, bft_rng);
    core::BayesFTConfig search_config;
    search_config.iterations = 8;
    search_config.epochs_per_iteration = 2;
    // The STN needs the same gentle learning rate the ERM baseline uses —
    // the default (0.05) destabilizes the localization head.
    search_config.train = train_config;
    search_config.warmup_epochs = 3;
    search_config.objective.sigmas = {0.3, 0.6};
    search_config.objective.mc_samples = 2;
    // Cap the per-layer rate: beyond ~0.5 a searching STN can warp itself
    // into a degenerate transform it cannot train out of.
    search_config.max_dropout_rate = 0.5;
    search_config.final_epochs = 4;
    const core::BayesFTResult result = core::bayesft_search(
        bft_model, parts.train, parts.test, search_config, bft_rng);
    std::cout << "BayesFT best alpha:";
    for (double a : result.best_alpha) {
        std::cout << ' ' << format_double(a, 3);
    }
    std::cout << '\n';

    ResultTable table("Traffic-sign robustness (43 classes, STN-lite)",
                      {"sigma", "ERM %", "BayesFT %"});
    Rng eval_rng(25);
    for (double sigma : {0.0, 0.2, 0.4, 0.6, 0.8}) {
        const fault::LogNormalDrift drift(sigma);
        const double erm_acc =
            fault::evaluate_under_faults(*erm_model.net, parts.test.images,
                                         parts.test.labels, drift, 4,
                                         eval_rng)
                .mean_accuracy;
        const double bft_acc =
            fault::evaluate_under_faults(*bft_model.net, parts.test.images,
                                         parts.test.labels, drift, 4,
                                         eval_rng)
                .mean_accuracy;
        table.add_row({sigma, erm_acc * 100.0, bft_acc * 100.0});
    }
    std::cout << table;
    return 0;
}
