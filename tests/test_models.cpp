// Model zoo: forward/backward shape correctness for every architecture,
// backward_params against backward, dropout-site bookkeeping, and
// trainability smoke checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "data/digits.hpp"
#include "detect/detector.hpp"
#include "models/zoo.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"

namespace bayesft::models {
namespace {

struct ZooCase {
    std::string name;
    std::function<ModelHandle(Rng&)> make;
    std::vector<std::size_t> input_shape;
    std::size_t outputs;
};

class ZooShapes : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooShapes, ForwardBackwardRoundTrip) {
    const ZooCase& zoo_case = GetParam();
    Rng rng(7);
    ModelHandle model = zoo_case.make(rng);
    ASSERT_NE(model.net, nullptr);
    EXPECT_FALSE(model.dropout_sites.empty()) << zoo_case.name;
    EXPECT_GT(model.net->parameter_count(), 0U);

    const Tensor input = Tensor::randn(zoo_case.input_shape, rng, 0.5F);
    const Tensor logits = model.net->forward(input);
    ASSERT_EQ(logits.rank(), 2U);
    EXPECT_EQ(logits.dim(0), zoo_case.input_shape[0]);
    EXPECT_EQ(logits.dim(1), zoo_case.outputs);
    for (std::size_t i = 0; i < logits.size(); ++i) {
        EXPECT_TRUE(std::isfinite(logits[i])) << zoo_case.name;
    }

    // One full backward pass with a real loss gradient.
    std::vector<int> labels(zoo_case.input_shape[0], 0);
    const nn::LossResult loss = nn::cross_entropy(logits, labels);
    const Tensor grad_input = model.net->backward(loss.grad);
    EXPECT_EQ(grad_input.shape(), input.shape());
    for (std::size_t i = 0; i < grad_input.size(); ++i) {
        EXPECT_TRUE(std::isfinite(grad_input[i])) << zoo_case.name;
    }
}

std::vector<ZooCase> zoo_cases() {
    std::vector<ZooCase> cases;
    cases.push_back({"Mlp3Layer",
                     [](Rng& rng) {
                         MlpOptions options;
                         options.input_features = 256;
                         return make_mlp(options, rng);
                     },
                     {4, 1, 16, 16},
                     10});
    cases.push_back({"MlpWithBatchNorm",
                     [](Rng& rng) {
                         MlpOptions options;
                         options.input_features = 64;
                         options.norm = NormKind::kBatch;
                         return make_mlp(options, rng);
                     },
                     {4, 64},
                     10});
    cases.push_back({"MlpGelu",
                     [](Rng& rng) {
                         MlpOptions options;
                         options.input_features = 64;
                         options.activation = "gelu";
                         return make_mlp(options, rng);
                     },
                     {4, 64},
                     10});
    cases.push_back({"LeNet5",
                     [](Rng& rng) { return make_lenet5(1, 16, 10, rng); },
                     {4, 1, 16, 16},
                     10});
    cases.push_back({"AlexNetS",
                     [](Rng& rng) { return make_alexnet_s(10, rng); },
                     {2, 3, 16, 16},
                     10});
    cases.push_back({"Vgg11S",
                     [](Rng& rng) { return make_vgg11_s(10, rng); },
                     {2, 3, 16, 16},
                     10});
    cases.push_back({"ResNet18S",
                     [](Rng& rng) { return make_resnet18_s(10, rng); },
                     {2, 3, 16, 16},
                     10});
    cases.push_back({"ResNet18SNoNorm",
                     [](Rng& rng) {
                         return make_resnet18_s(10, rng, NormKind::kNone);
                     },
                     {2, 3, 16, 16},
                     10});
    cases.push_back({"PreActS1",
                     [](Rng& rng) {
                         return make_preact_resnet_s(1, 10, rng);
                     },
                     {2, 3, 16, 16},
                     10});
    cases.push_back({"PreActS2",
                     [](Rng& rng) {
                         return make_preact_resnet_s(2, 10, rng);
                     },
                     {2, 3, 16, 16},
                     10});
    cases.push_back({"StnClassifier",
                     [](Rng& rng) { return make_stn_classifier(43, rng); },
                     {2, 3, 16, 16},
                     43});
    return cases;
}

bool same_bits(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Every parameter gradient of `a` equals `b`'s, bit for bit.
void expect_same_grads(nn::Module& a, nn::Module& b, const std::string& tag) {
    const auto pa = a.parameters();
    const auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size()) << tag;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->grad.size(), pb[i]->grad.size()) << tag;
        EXPECT_EQ(std::memcmp(pa[i]->grad.data(), pb[i]->grad.data(),
                              pa[i]->grad.size() * sizeof(float)),
                  0)
            << tag << ": parameter " << i << " (" << pa[i]->name << ")";
    }
}

/// backward_params accumulates backward's parameter gradients bit for bit:
/// a root Sequential skips its parameter-free prefix (an MLP's Flatten)
/// and the first conv or Linear skips its input gradient.  The twins come
/// from one seed with dropout 0.2 at every site, so both draw the same
/// masks.
TEST_P(ZooShapes, BackwardParamsMatchesBackwardBitwise) {
    const ZooCase& zoo_case = GetParam();
    Rng rng_full(7);
    Rng rng_params(7);
    ModelHandle full = zoo_case.make(rng_full);
    ModelHandle params_only = zoo_case.make(rng_params);
    const std::vector<double> rates(full.dropout_sites.size(), 0.2);
    full.set_dropout_rates(rates);
    params_only.set_dropout_rates(rates);

    Rng data(8);
    const Tensor input = Tensor::randn(zoo_case.input_shape, data, 0.5F);
    std::vector<int> labels(zoo_case.input_shape[0]);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<int>(i % zoo_case.outputs);
    }
    const nn::LossResult loss =
        nn::cross_entropy(full.net->forward(input), labels);
    params_only.net->forward(input);
    full.net->backward(loss.grad);
    params_only.net->backward_params(loss.grad);
    expect_same_grads(*full.net, *params_only.net, zoo_case.name);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooShapes,
                         ::testing::ValuesIn(zoo_cases()),
                         [](const auto& info) { return info.param.name; });

/// The detector's network under both entry points, as above.
TEST(Detector, BackwardParamsMatchesBackwardBitwise) {
    const detect::GridDetectorConfig config;
    Rng rng_full(9);
    Rng rng_params(9);
    detect::GridDetector full(config, rng_full);
    detect::GridDetector params_only(config, rng_params);
    for (detect::GridDetector* d : {&full, &params_only}) {
        for (nn::Dropout* site : d->dropout_sites()) site->set_rate(0.2);
    }
    Rng data(10);
    const Tensor input =
        Tensor::randn({2, 3, config.image_size, config.image_size}, data);
    const Tensor out = full.network().forward(input);
    params_only.network().forward(input);
    const Tensor grad = Tensor::randn(out.shape(), data);
    full.network().backward(grad);
    params_only.network().backward_params(grad);
    expect_same_grads(full.network(), params_only.network(), "detector");
}

/// Every zoo model takes its tensors by value: forward, backward and
/// backward_params leave an lvalue argument as it was, and moving the
/// argument in gives the bits copying it in gives, in training mode with
/// every dropout site active and in eval mode.
class ZooOwnership : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooOwnership, MovedArgumentsGiveCopiedArgumentsBits) {
    const ZooCase& zoo_case = GetParam();
    Rng rng_copy(21);
    Rng rng_move(21);
    ModelHandle by_copy = zoo_case.make(rng_copy);
    ModelHandle by_move = zoo_case.make(rng_move);
    const std::vector<double> rates(by_copy.dropout_sites.size(), 0.25);
    by_copy.set_dropout_rates(rates);
    by_move.set_dropout_rates(rates);
    Rng data(22);
    const Tensor x = Tensor::randn(zoo_case.input_shape, data, 0.5F);

    Tensor input = x;
    const Tensor logits = by_copy.net->forward(input);
    EXPECT_TRUE(same_bits(input, x)) << "forward changed its lvalue";
    EXPECT_TRUE(same_bits(by_move.net->forward(Tensor(x)), logits))
        << "forward";
    const std::vector<int> labels(zoo_case.input_shape[0], 1);
    const Tensor g = nn::cross_entropy(logits, labels).grad;
    Tensor grad = g;
    const Tensor dx = by_copy.net->backward(grad);
    EXPECT_TRUE(same_bits(grad, g)) << "backward changed its lvalue";
    EXPECT_TRUE(same_bits(by_move.net->backward(Tensor(g)), dx))
        << "backward";
    expect_same_grads(*by_copy.net, *by_move.net, zoo_case.name);

    by_copy.net->forward(input);
    by_move.net->forward(Tensor(x));
    by_copy.net->backward_params(grad);
    EXPECT_TRUE(same_bits(grad, g)) << "backward_params changed its lvalue";
    by_move.net->backward_params(Tensor(g));
    expect_same_grads(*by_copy.net, *by_move.net,
                      zoo_case.name + " backward_params");

    by_copy.net->set_training(false);
    by_move.net->set_training(false);
    const Tensor eval_logits = by_copy.net->forward(input);
    EXPECT_TRUE(same_bits(input, x)) << "eval forward changed its lvalue";
    EXPECT_TRUE(same_bits(by_move.net->forward(Tensor(x)), eval_logits))
        << "eval forward";
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooOwnership,
                         ::testing::ValuesIn(zoo_cases()),
                         [](const auto& info) { return info.param.name; });

/// Hides a model's backward_params overrides: a training loop calling it
/// runs the Module default, the full backward with the input gradient
/// dropped.
class FullBackward : public nn::Module {
public:
    explicit FullBackward(nn::Module& inner) : inner_(inner) {}
    Tensor forward(Tensor input) override {
        return inner_.forward(std::move(input));
    }
    Tensor backward(Tensor grad_output) override {
        return inner_.backward(std::move(grad_output));
    }
    void collect_parameters(std::vector<nn::Parameter*>& out) override {
        inner_.collect_parameters(out);
    }
    void set_training(bool training) override {
        training_ = training;
        inner_.set_training(training);
    }
    std::string name() const override { return "FullBackward"; }

private:
    nn::Module& inner_;
};

/// A whole train_classifier run (LeNet, dropout 0.2, two epochs) ends on
/// the same weights whether each step enters through backward_params or
/// through the full backward.
TEST(Training, BackwardParamsTrainsToTheSameWeights) {
    data::DigitConfig digits;
    digits.samples = 200;
    Rng data_rng(11);
    const data::Dataset train = data::synthetic_digits(digits, data_rng);
    Rng rng_fast(12);
    Rng rng_full(12);
    ModelHandle fast = make_lenet5(1, 16, 10, rng_fast);
    ModelHandle full = make_lenet5(1, 16, 10, rng_full);
    const std::vector<double> rates(fast.dropout_sites.size(), 0.2);
    fast.set_dropout_rates(rates);
    full.set_dropout_rates(rates);

    nn::TrainConfig config;
    config.epochs = 2;
    Rng order_fast(13);
    Rng order_full(13);
    nn::train_classifier(*fast.net, train.images, train.labels, config,
                         order_fast);
    FullBackward wrapped(*full.net);
    nn::train_classifier(wrapped, train.images, train.labels, config,
                         order_full);

    const auto pf = fast.net->parameters();
    const auto pw = full.net->parameters();
    ASSERT_EQ(pf.size(), pw.size());
    for (std::size_t i = 0; i < pf.size(); ++i) {
        EXPECT_EQ(std::memcmp(pf[i]->value.data(), pw[i]->value.data(),
                              pf[i]->value.size() * sizeof(float)),
                  0)
            << "parameter " << i << " (" << pf[i]->name << ")";
    }
}

TEST(ModelHandle, SetDropoutRatesInstallsAndValidates) {
    Rng rng(1);
    MlpOptions options;
    options.input_features = 16;
    options.hidden_layers = 3;
    ModelHandle model = make_mlp(options, rng);
    ASSERT_EQ(model.dropout_sites.size(), 3U);
    model.set_dropout_rates({0.1, 0.2, 0.3});
    EXPECT_EQ(model.dropout_rates(), (std::vector<double>{0.1, 0.2, 0.3}));
    EXPECT_THROW(model.set_dropout_rates({0.1}), std::invalid_argument);
    EXPECT_THROW(model.set_dropout_rates({0.1, 0.2, 1.5}),
                 std::invalid_argument);
}

TEST(Mlp, HiddenLayerCountControlsDepth) {
    Rng rng(2);
    MlpOptions shallow;
    shallow.input_features = 16;
    shallow.hidden_layers = 1;
    MlpOptions deep = shallow;
    deep.hidden_layers = 5;
    const auto shallow_params = make_mlp(shallow, rng).net->parameter_count();
    const auto deep_params = make_mlp(deep, rng).net->parameter_count();
    EXPECT_GT(deep_params, shallow_params);
    EXPECT_EQ(make_mlp(deep, rng).dropout_sites.size(), 5U);
}

TEST(Mlp, AlphaDropoutVariantHasNoSearchSites) {
    Rng rng(3);
    MlpOptions options;
    options.input_features = 16;
    options.dropout = DropoutKind::kAlpha;
    options.initial_dropout_rate = 0.2;
    const ModelHandle model = make_mlp(options, rng);
    EXPECT_TRUE(model.dropout_sites.empty());
}

TEST(Mlp, NoDropoutVariant) {
    Rng rng(4);
    MlpOptions options;
    options.input_features = 16;
    options.dropout = DropoutKind::kNone;
    EXPECT_TRUE(make_mlp(options, rng).dropout_sites.empty());
}

TEST(PreAct, DeeperVariantsHaveMoreParameters) {
    Rng rng(5);
    const auto p1 = make_preact_resnet_s(1, 10, rng).net->parameter_count();
    const auto p2 = make_preact_resnet_s(2, 10, rng).net->parameter_count();
    const auto p4 = make_preact_resnet_s(4, 10, rng).net->parameter_count();
    EXPECT_LT(p1, p2);
    EXPECT_LT(p2, p4);
}

TEST(PreAct, DropoutSitesScaleWithDepth) {
    Rng rng(6);
    const auto s1 = make_preact_resnet_s(1, 10, rng).dropout_sites.size();
    const auto s2 = make_preact_resnet_s(2, 10, rng).dropout_sites.size();
    EXPECT_EQ(s2 - s1, 3U);  // one extra block (and site) per stage
}

TEST(Stn, IdentityInitializationPreservesInputEarly) {
    // At initialization the STN head outputs the identity transform, so the
    // transformer stage must be a no-op (weights were zeroed, bias set).
    Rng rng(7);
    ModelHandle model = make_stn_classifier(43, rng);
    model.net->set_training(false);
    const Tensor input = Tensor::randn({1, 3, 16, 16}, rng);
    // Can't peek inside Sequential easily; instead check determinism and
    // finiteness of the full forward (identity warp keeps values bounded).
    const Tensor out = model.net->forward(input);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(std::isfinite(out[i]));
    }
}

TEST(Zoo, DropoutRatesDefaultToZero) {
    Rng rng(8);
    const ModelHandle model = make_alexnet_s(10, rng);
    for (double rate : model.dropout_rates()) {
        EXPECT_DOUBLE_EQ(rate, 0.0);
    }
}

TEST(Zoo, InvalidConfigurationsThrow) {
    Rng rng(9);
    MlpOptions zero_layers;
    zero_layers.hidden_layers = 0;
    EXPECT_THROW(make_mlp(zero_layers, rng), std::invalid_argument);
    EXPECT_THROW(make_lenet5(1, 6, 10, rng), std::invalid_argument);
    EXPECT_THROW(make_preact_resnet_s(0, 10, rng), std::invalid_argument);
}

}  // namespace
}  // namespace bayesft::models
