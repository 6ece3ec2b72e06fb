// The BayesFT core: drift utility, Algorithm 1 search, and all four
// baselines, on fast low-dimensional tasks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/baselines.hpp"
#include "core/bayesft.hpp"
#include "core/experiment.hpp"
#include "core/objective.hpp"
#include "data/digits.hpp"
#include "data/toy.hpp"
#include "utils/logging.hpp"

namespace bayesft::core {
namespace {

/// Shared quick task: 3-class blobs, small MLP over 2 features.
class CoreFixture : public ::testing::Test {
protected:
    static models::ModelHandle make_model(std::size_t outputs, Rng& rng) {
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 24;
        options.hidden_layers = 2;
        options.classes = outputs;
        return models::make_mlp(options, rng);
    }

    void SetUp() override {
        set_log_level(LogLevel::Error);
        Rng rng(1);
        const data::Dataset full = data::make_blobs(600, 3, 4.0, 0.6, rng);
        Rng split_rng(2);
        auto parts = data::split(full, 0.3, split_rng);
        train_ = std::move(parts.train);
        test_ = std::move(parts.test);
    }
    data::Dataset train_;
    data::Dataset test_;
};

TEST_F(CoreFixture, DriftUtilityIsHighForTrainedRobustModel) {
    Rng rng(3);
    models::ModelHandle model = make_model(3, rng);
    nn::TrainConfig config;
    config.epochs = 10;
    train_erm(model, train_, config, rng);

    ObjectiveConfig objective;
    objective.sigmas = {0.0};
    objective.mc_samples = 2;
    const double clean_utility = fault_utility(
        *model.net, test_.images, test_.labels, objective, rng);
    EXPECT_GT(clean_utility, 0.9);

    objective.sigmas = {2.5};
    const double drifted_utility = fault_utility(
        *model.net, test_.images, test_.labels, objective, rng);
    EXPECT_LT(drifted_utility, clean_utility);
}

TEST_F(CoreFixture, DriftUtilityValidatesConfig) {
    Rng rng(4);
    models::ModelHandle model = make_model(3, rng);
    ObjectiveConfig objective;
    objective.sigmas = {};
    EXPECT_THROW(fault_utility(*model.net, test_.images, test_.labels,
                               objective, rng),
                 std::invalid_argument);
}

TEST_F(CoreFixture, NegLossMetricIsFiniteAndOrdersLikeAccuracy) {
    Rng rng(5);
    models::ModelHandle model = make_model(3, rng);
    nn::TrainConfig config;
    config.epochs = 10;
    train_erm(model, train_, config, rng);
    ObjectiveConfig objective;
    objective.metric = ObjectiveMetric::kNegLoss;
    objective.sigmas = {0.2};
    objective.mc_samples = 2;
    const double utility = fault_utility(*model.net, test_.images,
                                         test_.labels, objective, rng);
    EXPECT_TRUE(std::isfinite(utility));
    EXPECT_LT(utility, 0.0);  // -loss is negative
}

TEST_F(CoreFixture, BayesFTSearchProducesValidAlphaAndTrains) {
    Rng rng(6);
    models::ModelHandle model = make_model(3, rng);
    BayesFTConfig config;
    config.iterations = 5;
    config.epochs_per_iteration = 2;
    config.train.epochs = 2;
    config.objective.sigmas = {0.5};
    config.objective.mc_samples = 2;
    config.final_epochs = 1;
    const BayesFTResult result =
        bayesft_search(model, train_, test_, config, rng);

    EXPECT_EQ(result.trials.size(), 5U);
    EXPECT_EQ(result.best_alpha.size(), model.dropout_sites.size());
    for (double a : result.best_alpha) {
        EXPECT_GE(a, 0.0);
        EXPECT_LE(a, config.max_dropout_rate);
    }
    // Best alpha must be installed on the returned model.
    EXPECT_EQ(model.dropout_rates(), result.best_alpha);
    // Network trains to usable clean accuracy despite the dropout search.
    EXPECT_GT(nn::evaluate_accuracy(*model.net, test_.images, test_.labels),
              0.8);
}

TEST_F(CoreFixture, BayesFTImprovesDriftRobustnessOverErm) {
    // The headline claim on a toy scale: under heavy drift, the searched
    // architecture retains more accuracy than plain ERM.  Averaged over
    // seeds for statistical stability.
    double erm_total = 0.0;
    double bayesft_total = 0.0;
    const std::vector<double> eval_sigma{1.0};
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        Rng erm_rng(100 + seed);
        models::ModelHandle erm_model = make_model(3, erm_rng);
        nn::TrainConfig train_config;
        train_config.epochs = 12;
        train_erm(erm_model, train_, train_config, erm_rng);

        Rng bft_rng(200 + seed);
        models::ModelHandle bft_model = make_model(3, bft_rng);
        BayesFTConfig config;
        config.iterations = 6;
        config.epochs_per_iteration = 2;
        config.objective.sigmas = {0.6, 1.0};
        config.objective.mc_samples = 3;
        config.final_epochs = 2;
        bayesft_search(bft_model, train_, test_, config, bft_rng);

        ObjectiveConfig eval;
        eval.sigmas = eval_sigma;
        eval.mc_samples = 6;
        Rng eval_rng(300 + seed);
        erm_total += fault_utility(*erm_model.net, test_.images,
                                   test_.labels, eval, eval_rng);
        bayesft_total += fault_utility(*bft_model.net, test_.images,
                                       test_.labels, eval, eval_rng);
    }
    EXPECT_GT(bayesft_total, erm_total);
}

TEST_F(CoreFixture, RandomSearchAlsoRunsButUsesNoSurrogate) {
    Rng rng(7);
    models::ModelHandle model = make_model(3, rng);
    BayesFTConfig config;
    config.iterations = 3;
    config.epochs_per_iteration = 1;
    config.objective.sigmas = {0.5};
    config.objective.mc_samples = 1;
    config.final_epochs = 0;
    const BayesFTResult result =
        random_search(model, train_, test_, config, rng);
    EXPECT_EQ(result.trials.size(), 3U);
}

TEST_F(CoreFixture, SearchRejectsModelsWithoutSites) {
    Rng rng(8);
    models::MlpOptions options;
    options.input_features = 2;
    options.dropout = models::DropoutKind::kNone;
    models::ModelHandle model = models::make_mlp(options, rng);
    BayesFTConfig config;
    EXPECT_THROW(bayesft_search(model, train_, test_, config, rng),
                 std::invalid_argument);
}

TEST_F(CoreFixture, ReRamVAdaptsToOneDevicePattern) {
    Rng rng(9);
    models::ModelHandle model = make_model(3, rng);
    ReRamVConfig config;
    config.pretrain.epochs = 10;
    config.adapt_epochs = 3;
    config.device_sigma = 0.4;
    train_reram_v(model, train_, config, rng);
    // After diagnose-and-retrain the model works on clean evaluation.
    EXPECT_GT(nn::evaluate_accuracy(*model.net, test_.images, test_.labels),
              0.8);
}

TEST_F(CoreFixture, AwpTrainsToUsableAccuracy) {
    Rng rng(10);
    models::ModelHandle model = make_model(3, rng);
    AwpConfig config;
    config.train.epochs = 12;
    config.gamma = 0.01;
    train_awp(model, train_, config, rng);
    EXPECT_GT(nn::evaluate_accuracy(*model.net, test_.images, test_.labels),
              0.8);
    EXPECT_THROW(
        [&] {
            AwpConfig bad;
            bad.gamma = -1.0;
            train_awp(model, train_, bad, rng);
        }(),
        std::invalid_argument);
}

/// At gamma = 0 AWP's ascent step moves no weight, so its descent takes
/// ERM's gradient and it must end on ERM's weights bit for bit (LeNet, 300
/// digits, two epochs).  This pins both of its backward passes.
TEST(Awp, ZeroGammaMatchesErmBitwise) {
    data::DigitConfig digits;
    digits.samples = 300;
    Rng data_rng(31);
    const data::Dataset train = data::synthetic_digits(digits, data_rng);
    Rng init_erm(32);
    Rng init_awp(32);
    models::ModelHandle erm = models::make_lenet5(1, 16, 10, init_erm);
    models::ModelHandle awp = models::make_lenet5(1, 16, 10, init_awp);
    AwpConfig config;
    config.train.epochs = 2;
    config.gamma = 0.0;
    Rng rng_erm(33);
    Rng rng_awp(33);
    train_erm(erm, train, config.train, rng_erm);
    train_awp(awp, train, config, rng_awp);

    const auto pe = erm.net->parameters();
    const auto pa = awp.net->parameters();
    ASSERT_EQ(pe.size(), pa.size());
    for (std::size_t i = 0; i < pe.size(); ++i) {
        EXPECT_EQ(std::memcmp(pe[i]->value.data(), pa[i]->value.data(),
                              pe[i]->value.size() * sizeof(float)),
                  0)
            << "parameter " << i << " (" << pe[i]->name << ")";
    }
}

TEST_F(CoreFixture, FtnaTrainsAndDecodesAboveChance) {
    Rng rng(11);
    const std::size_t code_bits = 12;
    models::ModelHandle model = make_model(code_bits, rng);
    FtnaClassifier ftna(std::move(model), 3, code_bits, rng);
    nn::TrainConfig config;
    config.epochs = 15;
    ftna.train(train_, config, rng);
    const double acc = ftna.evaluate_accuracy(test_.images, test_.labels);
    EXPECT_GT(acc, 0.85);  // well above the 1/3 chance level
}

TEST_F(CoreFixture, FtnaCodebookIsDistinctPerClass) {
    Rng rng(12);
    models::ModelHandle model = make_model(8, rng);
    FtnaClassifier ftna(std::move(model), 4, 8, rng);
    const auto& codebook = ftna.codebook();
    ASSERT_EQ(codebook.size(), 4U);
    for (std::size_t a = 0; a < 4; ++a) {
        EXPECT_EQ(codebook[a].size(), 8U);
        for (std::size_t b = a + 1; b < 4; ++b) {
            EXPECT_NE(codebook[a], codebook[b]);
        }
    }
    EXPECT_THROW(FtnaClassifier(make_model(2, rng), 1, 8, rng),
                 std::invalid_argument);
}

TEST_F(CoreFixture, ExperimentHarnessProducesAllCurves) {
    ExperimentConfig config;
    config.sigmas = {0.0, 0.8};
    config.eval_samples = 2;
    config.train.epochs = 4;
    config.bayesft.iterations = 3;
    config.bayesft.epochs_per_iteration = 1;
    config.bayesft.objective.sigmas = {0.5};
    config.bayesft.objective.mc_samples = 1;
    config.bayesft.final_epochs = 1;
    config.ftna_code_bits = 8;

    const RegistryResult result = run_classification_experiment(
        [](std::size_t outputs, Rng& rng) { return make_model(outputs, rng); },
        train_, test_, 3, config);

    EXPECT_EQ(result.x_label, "sigma");
    EXPECT_EQ(result.xs, config.sigmas);
    ASSERT_EQ(result.curves.size(), 5U);
    EXPECT_EQ(result.curves[0].label, "ERM");
    EXPECT_EQ(result.curves[4].label, "BayesFT");
    for (const auto& curve : result.curves) {
        ASSERT_EQ(curve.values.size(), 2U);
        for (double acc : curve.values) {
            EXPECT_GE(acc, 0.0);
            EXPECT_LE(acc, 1.0);
        }
    }
    EXPECT_FALSE(result.bayesft_alpha.empty());
    EXPECT_EQ(result.trials.size(), 3U);  // the search's iterations
    EXPECT_TRUE(result.search_completed);

    const ResultTable table = result.to_table("test", 100.0);
    EXPECT_EQ(table.columns().size(), 6U);  // sigma + 5 methods
    EXPECT_EQ(table.row_count(), 2U);
}

TEST_F(CoreFixture, ExperimentMethodSubsetRespected) {
    ExperimentConfig config;
    config.sigmas = {0.0};
    config.eval_samples = 1;
    config.train.epochs = 2;
    config.methods.ftna = false;
    config.methods.reram_v = false;
    config.methods.awp = false;
    config.methods.bayesft = false;
    const RegistryResult result = run_classification_experiment(
        [](std::size_t outputs, Rng& rng) { return make_model(outputs, rng); },
        train_, test_, 3, config);
    ASSERT_EQ(result.curves.size(), 1U);
    EXPECT_EQ(result.curves[0].label, "ERM");
    EXPECT_TRUE(result.trials.empty());
}

}  // namespace
}  // namespace bayesft::core
