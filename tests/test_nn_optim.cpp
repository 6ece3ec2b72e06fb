// Optimizers: convergence on quadratic objectives, momentum behaviour,
// Adam bias correction, weight decay, and the training loop.

#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.hpp"
#include "data/pedestrians.hpp"
#include "data/toy.hpp"
#include "detect/detector.hpp"
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
    Tensor forward(Tensor) override { return param_.value; }
    Tensor backward(Tensor g) override {
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
    EXPECT_THROW(Sgd(p.parameters(), -1.0), std::invalid_argument);
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
    const double before = evaluate_loss(model, blobs.images, blobs.labels);
    const double last_epoch = train_classifier(model, blobs.images,
                                               blobs.labels, config, rng);
    const double after = evaluate_loss(model, blobs.images, blobs.labels);
    EXPECT_LT(after, 0.5 * before);
    EXPECT_TRUE(std::isfinite(last_epoch));
    EXPECT_LT(last_epoch, before);
    EXPECT_GT(evaluate_accuracy(model, blobs.images, blobs.labels), 0.95);
}

/// Identity layer that records the batch size of every forward call.
class BatchSizeProbe : public Module {
public:
    explicit BatchSizeProbe(std::vector<std::size_t>* sizes)
        : sizes_(sizes) {}
    Tensor forward(Tensor input) override {
        sizes_->push_back(input.dim(0));
        return input;
    }
    Tensor backward(Tensor g) override { return g; }
    std::string name() const override { return "BatchSizeProbe"; }

private:
    std::vector<std::size_t>* sizes_;
};

TEST(Trainer, TrailingSingleSampleJoinsTheLastBatch) {
    // 65 rows at batch 32 used to end in a batch of one, which BatchNorm's
    // training forward rejects; the last sample now joins the batch before.
    // ERM, AWP, FTNA and the detector all cut their epochs this way.
    Rng rng(14);
    const data::Dataset blobs = data::make_blobs(65, 3, 4.0, 0.5, rng);
    std::vector<std::size_t> sizes;
    // A BatchNorm MLP with `outputs` logits, the probe before its norm.
    const auto probed_mlp = [&](std::size_t outputs) {
        auto net = std::make_unique<Sequential>();
        net->emplace<Linear>(2, 8, rng);
        net->emplace<BatchSizeProbe>(&sizes);
        net->emplace<BatchNorm>(8);
        net->emplace<ReLU>();
        net->emplace<Linear>(8, outputs, rng);
        return net;
    };
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 32;
    const std::vector<std::size_t> two_epochs{32, 33, 32, 33};

    const auto erm = probed_mlp(3);
    EXPECT_NO_THROW(
        train_classifier(*erm, blobs.images, blobs.labels, config, rng));
    EXPECT_EQ(sizes, two_epochs);

    // AWP runs each batch twice: the ascent, then the adversarial pass.
    sizes.clear();
    models::ModelHandle awp{probed_mlp(3), {}, "awp"};
    core::AwpConfig awp_config;
    awp_config.train = config;
    EXPECT_NO_THROW(core::train_awp(awp, blobs, awp_config, rng));
    EXPECT_EQ(sizes,
              (std::vector<std::size_t>{32, 32, 33, 33, 32, 32, 33, 33}));

    sizes.clear();
    core::FtnaClassifier ftna({probed_mlp(8), {}, "ftna"}, 3, 8, rng);
    EXPECT_NO_THROW(ftna.train(blobs, config, rng));
    EXPECT_EQ(sizes, two_epochs);

    // The detector's network, wrapped with the probe: 33 scenes at
    // batch 16.
    sizes.clear();
    data::PedestrianConfig scene_config;
    scene_config.samples = 33;
    const data::DetectionDataset scenes =
        data::synthetic_pedestrians(scene_config, rng);
    detect::GridDetector detector(detect::GridDetectorConfig{}, rng);
    Sequential probed;
    probed.emplace<BatchSizeProbe>(&sizes);
    probed.add(detector.network().clone());
    EXPECT_NO_THROW(detector.train_with(probed, scenes.images, scenes.boxes,
                                        {.epochs = 1, .batch_size = 16},
                                        rng));
    EXPECT_EQ(sizes, (std::vector<std::size_t>{16, 17}));

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
    const data::Dataset blobs = data::make_blobs(10, 2, 3.0, 0.5, rng);
    config.batch_size = 0;
    EXPECT_THROW(
        train_classifier(model, blobs.images, blobs.labels, config, rng),
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
