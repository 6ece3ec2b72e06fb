// Model zoo: forward/backward shape correctness for every architecture,
// backward_params against backward, dropout-site bookkeeping, the module
// walk's pinned output, and trainability smoke checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "core/persist.hpp"
#include "data/digits.hpp"
#include "detect/detector.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/norm.hpp"
#include "nn/residual.hpp"
#include "nn/stn.hpp"
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
    void collect_children(std::vector<nn::Module*>& out) override {
        out.push_back(&inner_);
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

/// A SpatialTransformer, a Residual whose branches are a Sequential and a
/// 1x1 Conv2d, an AlphaDropout and two Dropouts inside one Sequential.
std::unique_ptr<nn::Module> make_composite(Rng& rng) {
    auto loc = std::make_unique<nn::Sequential>();
    loc->emplace<nn::Conv2d>(2, 4, 3, 2, 1, rng);
    loc->emplace<nn::ReLU>();
    loc->emplace<nn::Flatten>();
    loc->emplace<nn::Linear>(4 * 4 * 4, 6, rng);
    auto main = std::make_unique<nn::Sequential>();
    main->emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng);
    main->emplace<nn::BatchNorm>(4);
    main->emplace<nn::Dropout>(0.1);
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::SpatialTransformer>(std::move(loc));
    auto shortcut = std::make_unique<nn::Conv2d>(2, 4, 1, 1, 0, rng);
    net->emplace<nn::Residual>(std::move(main), std::move(shortcut));
    net->emplace<nn::AlphaDropout>(0.1);
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dropout>(0.2);
    net->emplace<nn::Linear>(4 * 8 * 8, 3, rng);
    return net;
}

/// What the module-tree walk yields for one model, built from Rng(7).
struct WalkPin {
    const char* name;
    std::uint64_t structure_digest;
    std::size_t parameters;
    std::size_t scalars;
    std::size_t buffers;
    std::size_t dropout_sites;
    std::size_t mask_streams;
    /// FNV-1a over snapshot_model's words: the parameters' and buffers'
    /// values in walk order.
    std::uint64_t value_hash;
};

std::uint64_t value_hash(nn::Module& net) {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const std::uint32_t word : core::snapshot_model(net)) {
        hash ^= word;
        hash *= 1099511628211ULL;
    }
    return hash;
}

/// The walk's output for every zoo model, an MLP with AlphaDropout and a
/// composite container tree, against constants recorded before the
/// containers' traversal overrides were folded into Module: a walk that
/// drops, adds or reorders a parameter, buffer or dropout site fails here
/// by model name.
TEST(ModuleWalk, MatchesPinnedStructureOfEveryModel) {
    const WalkPin pins[] = {
        {"Mlp3Layer", 0xe7c8122c29425b26ULL, 6, 21258, 0, 2, 2,
         0x9c401006d9f23fd3ULL},
        {"MlpWithBatchNorm", 0x692d5fb2519980d1ULL, 10, 9226, 4, 2, 2,
         0xd95ec77ff3eda5baULL},
        {"MlpGelu", 0xaaaec14f36ccdac9ULL, 6, 8970, 0, 2, 2,
         0x75e0574eb6ee0dbaULL},
        {"LeNet5", 0xd869b549fce064abULL, 10, 19894, 0, 4, 4,
         0x2b9676f9eec4d8d1ULL},
        {"AlexNetS", 0xd5a943818c6d4615ULL, 12, 41722, 0, 5, 5,
         0xbf1ecc36b1a1b44cULL},
        {"Vgg11S", 0x0e5ce2666e6a7769ULL, 16, 75514, 0, 7, 7,
         0xb0292d674d1f5c86ULL},
        {"ResNet18S", 0xefc7ad978bf8c3c8ULL, 62, 175818, 30, 8, 8,
         0x368a130c9821daf8ULL},
        {"ResNet18SNoNorm", 0x8ebf9f82327558c6ULL, 32, 174698, 0, 8, 8,
         0x0e982e447f6d6778ULL},
        {"PreActS1", 0x27319e2dfcdb39f1ULL, 34, 78186, 14, 5, 5,
         0x74471ca7d7fcc6a2ULL},
        {"PreActS2", 0x672df67305360ddeULL, 58, 175626, 26, 8, 8,
         0x2287f66ea1bc18f8ULL},
        {"StnClassifier", 0xfdfb5052ba5c44baULL, 16, 45849, 0, 3, 3,
         0x3a32a7e7af33b7d5ULL},
        {"MlpAlphaDropoutBatchNorm", 0x692d5fb2519980d1ULL, 10, 9226, 4, 0,
         2, 0xd95ec77ff3eda5baULL},
        {"Composite", 0x383b3a815fb689ebULL, 12, 1333, 2, 2, 3,
         0x7de407557e52c49dULL},
    };
    std::vector<std::pair<std::string, std::function<std::unique_ptr<
                                            nn::Module>(Rng&)>>>
        makers;
    for (const ZooCase& zoo_case : zoo_cases()) {
        makers.emplace_back(zoo_case.name, [make = zoo_case.make](Rng& rng) {
            return make(rng).net;
        });
    }
    makers.emplace_back("MlpAlphaDropoutBatchNorm", [](Rng& rng) {
        MlpOptions options;
        options.input_features = 64;
        options.norm = NormKind::kBatch;
        options.dropout = DropoutKind::kAlpha;
        return make_mlp(options, rng).net;
    });
    makers.emplace_back("Composite", make_composite);
    ASSERT_EQ(makers.size(), std::size(pins));
    for (std::size_t i = 0; i < makers.size(); ++i) {
        const WalkPin& pin = pins[i];
        ASSERT_EQ(makers[i].first, pin.name);
        Rng rng(7);
        const std::unique_ptr<nn::Module> net = makers[i].second(rng);
        EXPECT_EQ(core::model_structure_digest(*net), pin.structure_digest)
            << pin.name;
        EXPECT_EQ(net->parameters().size(), pin.parameters) << pin.name;
        EXPECT_EQ(net->parameter_count(), pin.scalars) << pin.name;
        EXPECT_EQ(net->buffers().size(), pin.buffers) << pin.name;
        EXPECT_EQ(nn::collect_dropout_layers(*net).size(), pin.dropout_sites)
            << pin.name;
        EXPECT_EQ(core::snapshot_model_rngs(*net).size(), pin.mask_streams)
            << pin.name;
        EXPECT_EQ(value_hash(*net), pin.value_hash) << pin.name;
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
