// Cross-module integration: the full paper pipeline on small synthetic
// image tasks — train models from the zoo on generated datasets, inject
// drift, and verify the qualitative claims the figures rest on.

#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/bayesft.hpp"
#include "data/digits.hpp"
#include "fault/evaluator.hpp"
#include "models/zoo.hpp"
#include "nn/trainer.hpp"
#include "utils/logging.hpp"

namespace bayesft {
namespace {

class IntegrationFixture : public ::testing::Test {
protected:
    void SetUp() override {
        set_log_level(LogLevel::Error);
        Rng rng(42);
        data::DigitConfig config;
        config.samples = 600;
        config.image_size = 16;
        const data::Dataset full = data::synthetic_digits(config, rng);
        Rng split_rng(43);
        auto parts = data::split(full, 0.25, split_rng);
        train_ = std::move(parts.train);
        test_ = std::move(parts.test);
    }
    data::Dataset train_;
    data::Dataset test_;
};

TEST_F(IntegrationFixture, MlpLearnsSyntheticDigits) {
    Rng rng(1);
    models::MlpOptions options;
    options.input_features = 256;
    options.hidden = 64;
    models::ModelHandle model = models::make_mlp(options, rng);
    nn::TrainConfig config;
    config.epochs = 8;
    core::train_erm(model, train_, config, rng);
    EXPECT_GT(nn::evaluate_accuracy(*model.net, test_.images, test_.labels),
              0.9);
}

TEST_F(IntegrationFixture, LeNetLearnsSyntheticDigits) {
    Rng rng(2);
    models::ModelHandle model = models::make_lenet5(1, 16, 10, rng);
    nn::TrainConfig config;
    config.epochs = 12;
    config.learning_rate = 0.03;
    core::train_erm(model, train_, config, rng);
    EXPECT_GT(nn::evaluate_accuracy(*model.net, test_.images, test_.labels),
              0.85);
}

TEST_F(IntegrationFixture, DriftDegradesErmMonotonically) {
    // The foundational observation behind Fig. 1/Fig. 3: accuracy is a
    // decreasing function of sigma (up to MC noise, so we compare ends).
    Rng rng(3);
    models::MlpOptions options;
    options.input_features = 256;
    models::ModelHandle model = models::make_mlp(options, rng);
    nn::TrainConfig config;
    config.epochs = 8;
    core::train_erm(model, train_, config, rng);
    const auto curve = fault::sigma_sweep(
        *model.net, test_.images, test_.labels, {0.0, 0.6, 1.8}, 4, rng);
    EXPECT_GT(curve[0], 0.9);
    EXPECT_GT(curve[0], curve[2]);
    EXPECT_GE(curve[1] + 0.05, curve[2]);  // allow MC slack in the middle
}

TEST_F(IntegrationFixture, FixedDropoutImprovesDriftRobustness) {
    // Fig. 2(a) claim in miniature: the same MLP trained with dropout holds
    // up better under drift than without.
    Rng rng_plain(4);
    Rng rng_drop(5);
    models::MlpOptions options;
    options.input_features = 256;
    models::ModelHandle plain = models::make_mlp(options, rng_plain);
    models::ModelHandle dropped = models::make_mlp(options, rng_drop);
    dropped.set_dropout_rates({0.25, 0.25});

    nn::TrainConfig config;
    config.epochs = 10;
    Rng train_rng_a(6);
    nn::train_classifier(*plain.net, train_.images, train_.labels, config,
                         train_rng_a);
    Rng train_rng_b(7);
    nn::train_classifier(*dropped.net, train_.images, train_.labels, config,
                         train_rng_b);

    Rng eval_rng(8);
    const fault::LogNormalDrift drift(0.9);
    const double plain_acc =
        fault::evaluate_under_faults(*plain.net, test_.images, test_.labels,
                                     drift, 6, eval_rng)
            .mean_accuracy;
    const double dropped_acc =
        fault::evaluate_under_faults(*dropped.net, test_.images, test_.labels,
                                     drift, 6, eval_rng)
            .mean_accuracy;
    EXPECT_GT(dropped_acc, plain_acc);
}

TEST_F(IntegrationFixture, BayesFTSearchRunsOnImageTask) {
    Rng rng(9);
    models::MlpOptions options;
    options.input_features = 256;
    options.hidden = 48;
    models::ModelHandle model = models::make_mlp(options, rng);
    core::BayesFTConfig config;
    config.iterations = 4;
    config.epochs_per_iteration = 2;
    config.objective.sigmas = {0.6};
    config.objective.mc_samples = 2;
    config.final_epochs = 1;
    const auto result =
        core::bayesft_search(model, train_, test_, config, rng);
    EXPECT_EQ(result.trials.size(), 4U);
    // Search must leave a usable classifier behind.
    EXPECT_GT(nn::evaluate_accuracy(*model.net, test_.images, test_.labels),
              0.8);
    // And the drift utility of the best trial should be meaningful.
    EXPECT_GT(result.best_utility, 0.3);
}

TEST_F(IntegrationFixture, SnapshotDisciplineSurvivesFullPipeline) {
    // After any number of drift evaluations the clean weights are intact:
    // accuracy without drift is bit-identical before and after.
    Rng rng(10);
    models::ModelHandle model = models::make_lenet5(1, 16, 10, rng);
    nn::TrainConfig config;
    config.epochs = 3;
    core::train_erm(model, train_, config, rng);
    const double before =
        nn::evaluate_accuracy(*model.net, test_.images, test_.labels);
    fault::sigma_sweep(*model.net, test_.images, test_.labels,
                       {0.3, 0.9, 1.5}, 3, rng);
    const double after =
        nn::evaluate_accuracy(*model.net, test_.images, test_.labels);
    EXPECT_DOUBLE_EQ(before, after);
}

}  // namespace
}  // namespace bayesft
