// Fault injection: drift model statistics, RAII snapshot/restore semantics,
// and Monte-Carlo robustness evaluation.

#include <gtest/gtest.h>

#include <cmath>

#include "data/toy.hpp"
#include "fault/drift.hpp"
#include "fault/evaluator.hpp"
#include "fault/injector.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/trainer.hpp"

namespace bayesft::fault {
namespace {

std::vector<float> constant_weights(std::size_t n, float value) {
    return std::vector<float>(n, value);
}

TEST(LogNormalDrift, ZeroSigmaIsIdentity) {
    LogNormalDrift drift(0.0);
    Rng rng(1);
    auto w = constant_weights(100, 2.0F);
    drift.perturb(w, rng);
    for (float v : w) EXPECT_FLOAT_EQ(v, 2.0F);
}

TEST(LogNormalDrift, PreservesSignAndMedian) {
    // theta' = theta * exp(lambda) never changes sign, and the multiplier's
    // median is 1 (Eq. 1).
    LogNormalDrift drift(0.8);
    Rng rng(2);
    auto w = constant_weights(100000, -1.0F);
    drift.perturb(w, rng);
    std::size_t above = 0;
    for (float v : w) {
        EXPECT_LT(v, 0.0F);
        if (v < -1.0F) ++above;  // |w| grew
    }
    EXPECT_NEAR(static_cast<double>(above) / w.size(), 0.5, 0.01);
}

TEST(LogNormalDrift, MeanMultiplierMatchesTheory) {
    const double sigma = 0.6;
    LogNormalDrift drift(sigma);
    Rng rng(3);
    auto w = constant_weights(200000, 1.0F);
    drift.perturb(w, rng);
    double mean = 0.0;
    for (float v : w) mean += v;
    mean /= static_cast<double>(w.size());
    EXPECT_NEAR(mean, std::exp(sigma * sigma / 2.0), 0.02);
}

TEST(LogNormalDrift, RejectsNegativeSigma) {
    EXPECT_THROW(LogNormalDrift(-0.1), std::invalid_argument);
}

TEST(GaussianAdditiveDrift, ShiftsByNoise) {
    GaussianAdditiveDrift drift(0.5);
    Rng rng(4);
    auto w = constant_weights(100000, 3.0F);
    drift.perturb(w, rng);
    double mean = 0.0, var = 0.0;
    for (float v : w) mean += v;
    mean /= static_cast<double>(w.size());
    for (float v : w) var += (v - mean) * (v - mean);
    var /= static_cast<double>(w.size());
    EXPECT_NEAR(mean, 3.0, 0.01);
    EXPECT_NEAR(var, 0.25, 0.01);
}

TEST(UniformScaleDrift, StaysWithinBand) {
    UniformScaleDrift drift(0.2);
    Rng rng(5);
    auto w = constant_weights(10000, 1.0F);
    drift.perturb(w, rng);
    for (float v : w) {
        EXPECT_GE(v, 0.8F - 1e-6F);
        EXPECT_LE(v, 1.2F + 1e-6F);
    }
}

TEST(StuckAtZeroDrift, ZeroesExpectedFraction) {
    StuckAtZeroDrift drift(0.25);
    Rng rng(6);
    auto w = constant_weights(100000, 1.0F);
    drift.perturb(w, rng);
    std::size_t zeros = 0;
    for (float v : w) {
        if (v == 0.0F) ++zeros;
    }
    EXPECT_NEAR(static_cast<double>(zeros) / w.size(), 0.25, 0.01);
    EXPECT_THROW(StuckAtZeroDrift(1.5), std::invalid_argument);
}

TEST(SignFlipDrift, FlipsExpectedFraction) {
    SignFlipDrift drift(0.1);
    Rng rng(7);
    auto w = constant_weights(100000, 1.0F);
    drift.perturb(w, rng);
    std::size_t flipped = 0;
    for (float v : w) {
        if (v < 0.0F) ++flipped;
    }
    EXPECT_NEAR(static_cast<double>(flipped) / w.size(), 0.1, 0.01);
}

TEST(ComposedFault, AppliesStagesInSequence) {
    std::vector<std::unique_ptr<FaultModel>> stages;
    stages.push_back(std::make_unique<UniformScaleDrift>(0.0));  // identity
    stages.push_back(std::make_unique<StuckAtZeroDrift>(1.0));   // zero all
    ComposedFault composed(std::move(stages));
    Rng rng(8);
    auto w = constant_weights(10, 5.0F);
    composed.perturb(w, rng);
    for (float v : w) EXPECT_FLOAT_EQ(v, 0.0F);
    EXPECT_NE(composed.describe().find("StuckAtZero"), std::string::npos);
}

TEST(WeightSnapshot, RestoresOnDestruction) {
    Rng rng(9);
    nn::Sequential model;
    model.emplace<nn::Linear>(4, 4, rng);
    const Tensor before = model.parameters()[0]->value;
    {
        WeightSnapshot snapshot(model);
        LogNormalDrift drift(1.0);
        inject(model, drift, rng);
        EXPECT_FALSE(model.parameters()[0]->value.allclose(before, 1e-6F));
    }
    EXPECT_TRUE(model.parameters()[0]->value.equals(before));
}

TEST(WeightSnapshot, ManualRestoreIsIdempotent) {
    Rng rng(10);
    nn::Sequential model;
    model.emplace<nn::Linear>(3, 3, rng);
    WeightSnapshot snapshot(model);
    inject(model, LogNormalDrift(0.7), rng);
    snapshot.restore();
    const Tensor after_first = model.parameters()[0]->value;
    snapshot.restore();
    EXPECT_TRUE(model.parameters()[0]->value.equals(after_first));
    EXPECT_GT(snapshot.scalar_count(), 0U);
}

TEST(WeightSnapshot, SkipsNonDriftableParameters) {
    Rng rng(11);
    nn::Sequential model;
    model.emplace<nn::Linear>(2, 2, rng);
    model.parameters()[0]->driftable = false;
    model.parameters()[1]->driftable = false;
    WeightSnapshot snapshot(model);
    EXPECT_EQ(snapshot.scalar_count(), 0U);
    const Tensor before = model.parameters()[0]->value;
    inject(model, LogNormalDrift(1.0), rng);
    EXPECT_TRUE(model.parameters()[0]->value.equals(before));
}

class EvaluatorFixture : public ::testing::Test {
protected:
    void SetUp() override {
        Rng rng(12);
        blobs_ = data::make_blobs(300, 3, 4.0, 0.4, rng);
        model_ = std::make_unique<nn::Sequential>();
        model_->emplace<nn::Linear>(2, 16, rng);
        model_->emplace<nn::ReLU>();
        model_->emplace<nn::Linear>(16, 3, rng);
        nn::TrainConfig config;
        config.epochs = 15;
        nn::train_classifier(*model_, blobs_.images, blobs_.labels, config,
                             rng);
    }
    data::Dataset blobs_;
    std::unique_ptr<nn::Sequential> model_;
};

TEST_F(EvaluatorFixture, ZeroDriftEqualsCleanAccuracy) {
    Rng rng(13);
    const double clean =
        nn::evaluate_accuracy(*model_, blobs_.images, blobs_.labels);
    const auto report = evaluate_under_faults(
        *model_, blobs_.images, blobs_.labels, LogNormalDrift(0.0), 3, rng);
    EXPECT_DOUBLE_EQ(report.mean_accuracy, clean);
    EXPECT_DOUBLE_EQ(report.std_accuracy, 0.0);
}

TEST_F(EvaluatorFixture, WeightsRestoredAfterEvaluation) {
    Rng rng(14);
    const Tensor before = model_->parameters()[0]->value;
    evaluate_under_faults(*model_, blobs_.images, blobs_.labels,
                          LogNormalDrift(1.0), 5, rng);
    EXPECT_TRUE(model_->parameters()[0]->value.equals(before));
}

TEST_F(EvaluatorFixture, AccuracyDegradesWithSigma) {
    Rng rng(15);
    const auto curve = sigma_sweep(*model_, blobs_.images, blobs_.labels,
                                   {0.0, 2.0}, 8, rng);
    EXPECT_GT(curve[0], 0.9);          // trained model is accurate
    EXPECT_LT(curve[1], curve[0]);     // heavy drift hurts
}

TEST_F(EvaluatorFixture, ReportStatisticsConsistent) {
    Rng rng(16);
    const auto report = evaluate_under_faults(
        *model_, blobs_.images, blobs_.labels, LogNormalDrift(0.8), 10, rng);
    EXPECT_EQ(report.samples.size(), 10U);
    EXPECT_LE(report.min_accuracy, report.mean_accuracy);
    EXPECT_GE(report.max_accuracy, report.mean_accuracy);
    double mean = 0.0;
    for (double s : report.samples) mean += s;
    EXPECT_NEAR(report.mean_accuracy, mean / 10.0, 1e-12);
}

TEST_F(EvaluatorFixture, RejectsZeroSamples) {
    Rng rng(17);
    EXPECT_THROW(evaluate_under_faults(*model_, blobs_.images, blobs_.labels,
                                       LogNormalDrift(0.5), 0, rng),
                 std::invalid_argument);
}

TEST_F(EvaluatorFixture, CustomMetricVariant) {
    Rng rng(18);
    int calls = 0;
    const auto report = evaluate_metric_under_faults(
        *model_, LogNormalDrift(0.5), 4, rng, [&](nn::Module&) {
            ++calls;
            return 0.5;
        });
    EXPECT_EQ(calls, 4);
    EXPECT_DOUBLE_EQ(report.mean_accuracy, 0.5);
}

}  // namespace
}  // namespace bayesft::fault
