// Optimizers: convergence on quadratic objectives, momentum behaviour,
// Adam bias correction, weight decay, and the training loop.

#include <gtest/gtest.h>

#include <cmath>

#include "data/toy.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/norm.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

namespace bayesft::nn {
namespace {

/// A single free parameter as a trivial module, for optimizer unit tests.
class ScalarParam : public Module {
public:
    explicit ScalarParam(float init)
        : param_("x", Tensor({1}, {init})) {}
    Tensor forward(const Tensor&) override { return param_.value; }
    Tensor backward(const Tensor& g) override {
        param_.grad.add_(g);
        return g;
    }
    void collect_parameters(std::vector<Parameter*>& out) override {
        out.push_back(&param_);
    }
    std::string name() const override { return "ScalarParam"; }
    float value() const { return param_.value[0]; }
    Parameter& param() { return param_; }

private:
    Parameter param_;
};

TEST(Sgd, ConvergesOnQuadratic) {
    // minimize f(x) = (x - 3)^2, grad = 2 (x - 3).
    ScalarParam p(0.0F);
    Sgd opt(p.parameters(), 0.1, 0.0);
    for (int i = 0; i < 100; ++i) {
        opt.zero_grad();
        p.param().grad[0] = 2.0F * (p.value() - 3.0F);
        opt.step();
    }
    EXPECT_NEAR(p.value(), 3.0F, 1e-4F);
}

TEST(Sgd, MomentumAcceleratesDescent) {
    auto run = [](double momentum) {
        ScalarParam p(10.0F);
        Sgd opt(p.parameters(), 0.01, momentum);
        for (int i = 0; i < 30; ++i) {
            opt.zero_grad();
            p.param().grad[0] = 2.0F * p.value();
            opt.step();
        }
        return std::abs(p.value());
    };
    EXPECT_LT(run(0.9), run(0.0));  // momentum closes the gap faster
}

TEST(Sgd, WeightDecayShrinksWeights) {
    ScalarParam p(1.0F);
    Sgd opt(p.parameters(), 0.1, 0.0, 0.5);
    for (int i = 0; i < 50; ++i) {
        opt.zero_grad();  // zero loss gradient: only decay acts
        opt.step();
    }
    EXPECT_LT(std::abs(p.value()), 0.1F);
}

TEST(Sgd, RejectsBadLearningRate) {
    ScalarParam p(0.0F);
    EXPECT_THROW(Sgd(p.parameters(), 0.0), std::invalid_argument);
    Sgd opt(p.parameters(), 0.1);
    EXPECT_THROW(opt.set_learning_rate(-1.0), std::invalid_argument);
}

TEST(Adam, ConvergesOnQuadratic) {
    ScalarParam p(-5.0F);
    Adam opt(p.parameters(), 0.1);
    for (int i = 0; i < 300; ++i) {
        opt.zero_grad();
        p.param().grad[0] = 2.0F * (p.value() - 1.0F);
        opt.step();
    }
    EXPECT_NEAR(p.value(), 1.0F, 1e-2F);
}

TEST(Adam, FirstStepIsLearningRateSized) {
    // With bias correction the very first Adam step is ~lr * sign(grad).
    ScalarParam p(0.0F);
    Adam opt(p.parameters(), 0.1);
    opt.zero_grad();
    p.param().grad[0] = 42.0F;
    opt.step();
    EXPECT_NEAR(p.value(), -0.1F, 1e-3F);
}

TEST(Optimizer, ZeroGradClears) {
    ScalarParam p(0.0F);
    Sgd opt(p.parameters(), 0.1);
    p.param().grad[0] = 5.0F;
    opt.zero_grad();
    EXPECT_FLOAT_EQ(p.param().grad[0], 0.0F);
}

TEST(Optimizer, NullParameterRejected) {
    EXPECT_THROW(Sgd({nullptr}, 0.1), std::invalid_argument);
}

TEST(Trainer, GatherBatchExtractsRows) {
    Tensor images({3, 2}, std::vector<float>{0, 1, 10, 11, 20, 21});
    const std::vector<int> labels{0, 1, 2};
    const std::vector<std::size_t> order{2, 0, 1};
    const Batch b = gather_batch(images, labels, order, 0, 2);
    EXPECT_EQ(b.labels, (std::vector<int>{2, 0}));
    EXPECT_FLOAT_EQ(b.images(0, 0), 20.0F);
    EXPECT_FLOAT_EQ(b.images(1, 1), 1.0F);
    EXPECT_THROW(gather_batch(images, labels, order, 2, 2),
                 std::invalid_argument);
}

TEST(Trainer, LearnsLinearlySeparableBlobs) {
    Rng rng(11);
    const data::Dataset blobs = data::make_blobs(400, 3, 4.0, 0.5, rng);
    Sequential model;
    model.emplace<Linear>(2, 16, rng);
    model.emplace<ReLU>();
    model.emplace<Linear>(16, 3, rng);
    TrainConfig config;
    config.epochs = 20;
    config.learning_rate = 0.05;
    const auto history = train_classifier(model, blobs.images, blobs.labels,
                                          config, rng);
    EXPECT_EQ(history.size(), 20U);
    EXPECT_GT(history.back().train_accuracy, 0.95);
    EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
    EXPECT_GT(evaluate_accuracy(model, blobs.images, blobs.labels), 0.95);
}

/// Identity layer that records the batch size of every forward call.
class BatchSizeProbe : public Module {
public:
    explicit BatchSizeProbe(std::vector<std::size_t>* sizes)
        : sizes_(sizes) {}
    Tensor forward(const Tensor& input) override {
        sizes_->push_back(input.dim(0));
        return input;
    }
    Tensor backward(const Tensor& g) override { return g; }
    std::string name() const override { return "BatchSizeProbe"; }

private:
    std::vector<std::size_t>* sizes_;
};

TEST(Trainer, TrailingSingleSampleJoinsTheLastBatch) {
    // 65 rows at batch 32 used to end in a batch of one, which BatchNorm's
    // training forward rejects; the last sample now joins the batch before.
    Rng rng(14);
    const data::Dataset blobs = data::make_blobs(65, 3, 4.0, 0.5, rng);
    std::vector<std::size_t> sizes;
    Sequential model;
    model.emplace<Linear>(2, 8, rng);
    model.emplace<BatchSizeProbe>(&sizes);
    model.emplace<BatchNorm>(8);
    model.emplace<ReLU>();
    model.emplace<Linear>(8, 3, rng);
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 32;
    EXPECT_NO_THROW(
        train_classifier(model, blobs.images, blobs.labels, config, rng));
    EXPECT_EQ(sizes, (std::vector<std::size_t>{32, 33, 32, 33}));

    // Batch size 1 asks for single-sample batches; none is merged.
    sizes.clear();
    Sequential plain;
    plain.emplace<BatchSizeProbe>(&sizes);
    plain.emplace<Linear>(2, 3, rng);
    config.epochs = 1;
    config.batch_size = 1;
    const data::Dataset three = data::make_blobs(3, 3, 4.0, 0.5, rng);
    train_classifier(plain, three.images, three.labels, config, rng);
    EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(Trainer, PredictLogitsMatchesBatchedEval) {
    Rng rng(12);
    const data::Dataset blobs = data::make_blobs(50, 2, 3.0, 0.5, rng);
    Sequential model;
    model.emplace<Linear>(2, 2, rng);
    const Tensor all = predict_logits(model, blobs.images, 7);  // odd batch
    const Tensor full = predict_logits(model, blobs.images, 50);
    EXPECT_TRUE(all.allclose(full, 1e-5F));
}

TEST(Trainer, EmptyDatasetThrows) {
    Rng rng(13);
    Sequential model;
    model.emplace<Linear>(2, 2, rng);
    TrainConfig config;
    EXPECT_THROW(
        train_classifier(model, Tensor({0, 2}), {}, config, rng),
        std::invalid_argument);
}

TEST(Trainer, EvalRestoresTrainingFlag) {
    Rng rng(14);
    Sequential model;
    model.emplace<Linear>(2, 2, rng);
    model.set_training(true);
    const data::Dataset blobs = data::make_blobs(10, 2, 3.0, 0.5, rng);
    evaluate_accuracy(model, blobs.images, blobs.labels);
    EXPECT_TRUE(model.training());
}

}  // namespace
}  // namespace bayesft::nn
