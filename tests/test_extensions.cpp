// Extensions beyond the paper's minimal pipeline: model files,
// Latin-hypercube initial design, GP hyperparameter selection, and the
// per-parameter drift sensitivity analyzer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "bayesopt/design.hpp"
#include "core/persist.hpp"
#include "data/toy.hpp"
#include "fault/drift.hpp"
#include "fault/sensitivity.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/residual.hpp"
#include "nn/trainer.hpp"

namespace bayesft {
namespace {

// ---------------------------------------------------------- model files --

class SerializeFixture : public ::testing::Test {
protected:
    void TearDown() override { std::remove(kPath); }
    static constexpr const char* kPath = "/tmp/bayesft_model_test.model";

    static std::unique_ptr<nn::Sequential> make_model(std::uint64_t seed) {
        Rng rng(seed);
        auto model = std::make_unique<nn::Sequential>();
        model->emplace<nn::Linear>(4, 8, rng);
        model->emplace<nn::ReLU>();
        model->emplace<nn::Linear>(8, 3, rng);
        return model;
    }
};

TEST_F(SerializeFixture, RoundTripRestoresExactWeights) {
    auto source = make_model(1);
    auto target = make_model(2);  // same structure, different weights
    ASSERT_FALSE(source->parameters()[0]->value.equals(
        target->parameters()[0]->value));

    core::save_model(*source, kPath);
    core::load_model(*target, kPath);
    const auto src_params = source->parameters();
    const auto dst_params = target->parameters();
    for (std::size_t i = 0; i < src_params.size(); ++i) {
        EXPECT_TRUE(dst_params[i]->value.equals(src_params[i]->value));
    }
}

TEST_F(SerializeFixture, RoundTripPreservesPredictions) {
    Rng rng(3);
    auto source = make_model(1);
    auto target = make_model(2);
    const Tensor input = Tensor::randn({5, 4}, rng);
    core::save_model(*source, kPath);
    core::load_model(*target, kPath);
    source->set_training(false);
    target->set_training(false);
    EXPECT_TRUE(source->forward(input).equals(target->forward(input)));
}

TEST_F(SerializeFixture, RoundTripsBatchNormRunningStatistics) {
    // Regression test: running statistics are buffers, not Parameters —
    // a model file that dropped them would restore eval-mode predictions
    // of normalized models wrongly.
    Rng rng(11);
    nn::Sequential source;
    source.emplace<nn::Linear>(4, 6, rng);
    source.emplace<nn::BatchNorm>(6);
    source.set_training(true);
    for (int i = 0; i < 20; ++i) {
        Tensor batch = Tensor::randn({16, 4}, rng);
        batch.add_scalar_(3.0F);  // push running mean away from init
        source.forward(batch);
    }
    core::save_model(source, kPath);

    Rng rng2(12);
    nn::Sequential target;
    target.emplace<nn::Linear>(4, 6, rng2);
    target.emplace<nn::BatchNorm>(6);
    core::load_model(target, kPath);

    const auto src_buffers = source.buffers();
    const auto dst_buffers = target.buffers();
    ASSERT_EQ(src_buffers.size(), 2U);
    ASSERT_EQ(dst_buffers.size(), 2U);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(dst_buffers[i]->equals(*src_buffers[i]));
    }
    // Eval-mode predictions must match exactly.
    source.set_training(false);
    target.set_training(false);
    const Tensor probe = Tensor::randn({3, 4}, rng);
    EXPECT_TRUE(source.forward(probe).equals(target.forward(probe)));
}

TEST_F(SerializeFixture, BuffersRecurseThroughContainers) {
    Rng rng(13);
    auto inner = std::make_unique<nn::Sequential>();
    inner->emplace<nn::Linear>(4, 4, rng);
    inner->emplace<nn::BatchNorm>(4);
    nn::Residual residual(std::move(inner));
    EXPECT_EQ(residual.buffers().size(), 2U);  // mean + var via Residual
}

TEST_F(SerializeFixture, RejectsStructuralMismatch) {
    auto source = make_model(1);
    core::save_model(*source, kPath);
    Rng rng(4);
    nn::Sequential wider;
    wider.emplace<nn::Linear>(4, 16, rng);  // shape mismatch
    wider.emplace<nn::Linear>(16, 3, rng);
    const Tensor before = wider.parameters()[0]->value;
    EXPECT_THROW(core::load_model(wider, kPath), std::runtime_error);
    EXPECT_TRUE(wider.parameters()[0]->value.equals(before));  // untouched
    nn::Sequential fewer;
    fewer.emplace<nn::Linear>(4, 8, rng);  // parameter count mismatch
    EXPECT_THROW(core::load_model(fewer, kPath), std::runtime_error);
}

TEST_F(SerializeFixture, RejectsGarbageFile) {
    {
        std::FILE* f = std::fopen(kPath, "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a checkpoint", f);
        std::fclose(f);
    }
    auto model = make_model(1);
    EXPECT_THROW(core::load_model(*model, kPath), std::runtime_error);
    EXPECT_THROW(core::load_model(*model, "/no/such/file.model"),
                 std::runtime_error);
    EXPECT_THROW(core::save_model(*model, "/no/such/dir/x.model"),
                 std::runtime_error);
}

// --------------------------------------------------------------- design --

TEST(LatinHypercube, OnePointPerStratumPerDimension) {
    Rng rng(5);
    const auto bounds = bayesopt::BoxBounds::uniform(3, 0.0, 1.0);
    const std::size_t n = 10;
    const auto points = bayesopt::latin_hypercube(n, bounds, rng);
    ASSERT_EQ(points.size(), n);
    for (std::size_t d = 0; d < 3; ++d) {
        std::set<std::size_t> strata;
        for (const auto& p : points) {
            EXPECT_GE(p[d], 0.0);
            EXPECT_LT(p[d], 1.0);
            strata.insert(static_cast<std::size_t>(p[d] * n));
        }
        EXPECT_EQ(strata.size(), n) << "dimension " << d;
    }
}

TEST(LatinHypercube, RespectsNonUnitBounds) {
    Rng rng(6);
    bayesopt::BoxBounds bounds;
    bounds.lower = {-2.0, 10.0};
    bounds.upper = {2.0, 20.0};
    const auto points = bayesopt::latin_hypercube(8, bounds, rng);
    for (const auto& p : points) {
        EXPECT_GE(p[0], -2.0);
        EXPECT_LT(p[0], 2.0);
        EXPECT_GE(p[1], 10.0);
        EXPECT_LT(p[1], 20.0);
    }
    EXPECT_THROW(bayesopt::latin_hypercube(0, bounds, rng),
                 std::invalid_argument);
}

TEST(SelectInverseScale, RecoversSensibleScale) {
    // Data from a smooth sinusoid: a moderate inverse scale should beat
    // wildly small/large extremes.
    std::vector<bayesopt::Point> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 12; ++i) {
        const double x = i / 12.0;
        xs.push_back({x});
        ys.push_back(std::sin(4.0 * x));
    }
    const double chosen = bayesopt::select_inverse_scale(
        xs, ys, {0.001, 1.0, 10.0, 100000.0});
    EXPECT_GE(chosen, 1.0);
    EXPECT_LE(chosen, 10.0);
}

TEST(SelectInverseScale, ValidatesInput) {
    EXPECT_THROW(bayesopt::select_inverse_scale({{0.1}, {0.2}}, {1.0, 2.0},
                                                {}),
                 std::invalid_argument);
    EXPECT_THROW(bayesopt::select_inverse_scale({{0.1}}, {1.0}, {1.0}),
                 std::invalid_argument);
}

// ---------------------------------------------------------- sensitivity --

TEST(Sensitivity, IdentifiesTheFragileParameter) {
    // Train a model, then compare sensitivity of the first-layer weights
    // against the (zero-initialized, tiny) biases: drifting a zero bias
    // multiplicatively is a no-op, so weights must rank strictly worse.
    Rng rng(7);
    const data::Dataset blobs = data::make_blobs(300, 3, 4.0, 0.5, rng);
    nn::Sequential model;
    model.emplace<nn::Linear>(2, 16, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Linear>(16, 3, rng);
    nn::TrainConfig config;
    config.epochs = 10;
    nn::train_classifier(model, blobs.images, blobs.labels, config, rng);

    const fault::LogNormalDrift drift(1.5);
    auto records = fault::per_parameter_sensitivity(
        model, blobs.images, blobs.labels, drift, 4, rng);
    ASSERT_EQ(records.size(), 4U);  // 2 x (weight, bias)
    for (const auto& record : records) {
        EXPECT_GT(record.clean_accuracy, 0.9);
        EXPECT_LE(record.drifted_accuracy, record.clean_accuracy + 1e-9);
        EXPECT_GT(record.scalar_count, 0U);
    }
    const auto ranked = fault::rank_by_drop(records);
    EXPECT_EQ(ranked.front().name, "weight");  // weights dominate drops
    EXPECT_GE(ranked.front().accuracy_drop(),
              ranked.back().accuracy_drop());
}

TEST(Sensitivity, RestoresWeightsAfterAnalysis) {
    Rng rng(8);
    const data::Dataset blobs = data::make_blobs(100, 2, 3.0, 0.5, rng);
    nn::Sequential model;
    model.emplace<nn::Linear>(2, 2, rng);
    const Tensor before = model.parameters()[0]->value;
    fault::per_parameter_sensitivity(model, blobs.images, blobs.labels,
                                     fault::LogNormalDrift(1.0), 3, rng);
    EXPECT_TRUE(model.parameters()[0]->value.equals(before));
}

TEST(Sensitivity, ValidatesSampleCount) {
    Rng rng(9);
    const data::Dataset blobs = data::make_blobs(50, 2, 3.0, 0.5, rng);
    nn::Sequential model;
    model.emplace<nn::Linear>(2, 2, rng);
    EXPECT_THROW(
        fault::per_parameter_sensitivity(model, blobs.images, blobs.labels,
                                         fault::LogNormalDrift(1.0), 0, rng),
        std::invalid_argument);
}

TEST(Sensitivity, NormAffineParametersAreAchillesHeel) {
    // The paper's Fig. 2(b) mechanism at parameter granularity: with a
    // batch-normalized model, drifting gamma/beta hurts despite their
    // small scalar count.
    Rng rng(10);
    const data::Dataset blobs = data::make_blobs(300, 3, 2.5, 1.0, rng);
    nn::Sequential model;
    model.emplace<nn::Linear>(2, 16, rng);
    model.emplace<nn::BatchNorm>(16);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Linear>(16, 3, rng);
    nn::TrainConfig config;
    config.epochs = 12;
    nn::train_classifier(model, blobs.images, blobs.labels, config, rng);

    const auto records = fault::per_parameter_sensitivity(
        model, blobs.images, blobs.labels, fault::LogNormalDrift(2.0), 4,
        rng);
    double gamma_drop = 0.0;
    double beta_drop = 0.0;
    for (const auto& record : records) {
        if (record.name == "gamma") gamma_drop = record.accuracy_drop();
        if (record.name == "beta") beta_drop = record.accuracy_drop();
    }
    // Drifting the 16+16 affine norm scalars must cause measurable drops —
    // tiny tensors, outsized damage (the paper's "Achilles' heel").
    EXPECT_GT(gamma_drop, 0.02);
    EXPECT_GT(beta_drop, 0.05);
}

}  // namespace
}  // namespace bayesft
