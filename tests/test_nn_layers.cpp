// Layer correctness: shapes, known values, and — the core property — exact
// agreement between every layer's analytic backward pass and central finite
// differences (parameterized over the whole layer family).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gradcheck.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/norm.hpp"
#include "nn/residual.hpp"
#include "tensor/ops.hpp"

namespace bayesft::nn {
namespace {

using bayesft::testing::gradcheck;

// ---------------------------------------------------------------------
// Parameterized gradient checks across the layer family.
// ---------------------------------------------------------------------

struct LayerCase {
    std::string name;
    std::function<std::unique_ptr<Module>(Rng&)> make;
    std::vector<std::size_t> input_shape;
};

class LayerGradCheck : public ::testing::TestWithParam<LayerCase> {};

TEST_P(LayerGradCheck, AnalyticBackwardMatchesFiniteDifferences) {
    const LayerCase& layer_case = GetParam();
    Rng rng(99);
    auto module = layer_case.make(rng);
    const Tensor input = Tensor::randn(layer_case.input_shape, rng);
    const auto result = gradcheck(*module, input, rng);
    EXPECT_TRUE(result.ok) << layer_case.name << ": " << result.detail;
}

std::vector<LayerCase> layer_cases() {
    std::vector<LayerCase> cases;
    cases.push_back({"Linear",
                     [](Rng& rng) {
                         return std::make_unique<Linear>(6, 4, rng);
                     },
                     {3, 6}});
    cases.push_back({"Conv2dNoPad",
                     [](Rng& rng) {
                         return std::make_unique<Conv2d>(2, 3, 3, 1, 0, rng);
                     },
                     {2, 2, 5, 5}});
    cases.push_back({"Conv2dPadded",
                     [](Rng& rng) {
                         return std::make_unique<Conv2d>(2, 3, 3, 1, 1, rng);
                     },
                     {2, 2, 4, 4}});
    cases.push_back({"Conv2dStrided",
                     [](Rng& rng) {
                         return std::make_unique<Conv2d>(1, 2, 3, 2, 1, rng);
                     },
                     {2, 1, 6, 6}});
    cases.push_back({"Conv2d1x1",
                     [](Rng& rng) {
                         return std::make_unique<Conv2d>(3, 2, 1, 1, 0, rng);
                     },
                     {2, 3, 4, 4}});
    cases.push_back({"MaxPool2d",
                     [](Rng&) { return std::make_unique<MaxPool2d>(2); },
                     {2, 2, 4, 4}});
    cases.push_back({"AvgPool2d",
                     [](Rng&) { return std::make_unique<AvgPool2d>(2); },
                     {2, 2, 4, 4}});
    cases.push_back({"AvgPool2dOddInput",
                     [](Rng&) { return std::make_unique<AvgPool2d>(2); },
                     {2, 2, 5, 5}});
    cases.push_back({"AvgPool2dOverlapping",
                     [](Rng&) { return std::make_unique<AvgPool2d>(3, 1); },
                     {2, 2, 5, 5}});
    cases.push_back({"GlobalAvgPool",
                     [](Rng&) { return std::make_unique<GlobalAvgPool>(); },
                     {2, 3, 4, 4}});
    cases.push_back({"Flatten",
                     [](Rng&) { return std::make_unique<Flatten>(); },
                     {2, 2, 3, 3}});
    cases.push_back({"ReLU",
                     [](Rng&) { return std::make_unique<ReLU>(); },
                     {4, 7}});
    cases.push_back({"LeakyReLU",
                     [](Rng&) { return std::make_unique<LeakyReLU>(0.1F); },
                     {4, 7}});
    cases.push_back({"ELU",
                     [](Rng&) { return std::make_unique<ELU>(); },
                     {4, 7}});
    cases.push_back({"GELU",
                     [](Rng&) { return std::make_unique<GELU>(); },
                     {4, 7}});
    cases.push_back({"Sigmoid",
                     [](Rng&) { return std::make_unique<Sigmoid>(); },
                     {4, 7}});
    cases.push_back({"Tanh",
                     [](Rng&) { return std::make_unique<Tanh>(); },
                     {4, 7}});
    cases.push_back({"BatchNorm2d",
                     [](Rng&) { return std::make_unique<BatchNorm>(3); },
                     {4, 3, 3, 3}});
    cases.push_back({"BatchNorm1d",
                     [](Rng&) { return std::make_unique<BatchNorm>(5); },
                     {6, 5}});
    cases.push_back({"LayerNorm",
                     [](Rng&) { return std::make_unique<LayerNorm>(4); },
                     {3, 4, 2, 2}});
    cases.push_back({"InstanceNorm",
                     [](Rng&) { return std::make_unique<InstanceNorm>(3); },
                     {2, 3, 4, 4}});
    cases.push_back({"GroupNorm",
                     [](Rng&) { return std::make_unique<GroupNorm>(2, 4); },
                     {2, 4, 3, 3}});
    cases.push_back(
        {"ResidualIdentity",
         [](Rng& rng) {
             auto main = std::make_unique<Sequential>();
             main->emplace<Linear>(5, 5, rng);
             main->emplace<Tanh>();
             return std::make_unique<Residual>(std::move(main));
         },
         {3, 5}});
    cases.push_back(
        {"ResidualProjection",
         [](Rng& rng) {
             auto main = std::make_unique<Sequential>();
             main->emplace<Linear>(5, 4, rng);
             auto shortcut = std::make_unique<Sequential>();
             shortcut->emplace<Linear>(5, 4, rng);
             return std::make_unique<Residual>(std::move(main),
                                               std::move(shortcut));
         },
         {3, 5}});
    cases.push_back(
        {"SmallMlpStack",
         [](Rng& rng) {
             auto seq = std::make_unique<Sequential>();
             seq->emplace<Linear>(6, 8, rng);
             seq->emplace<GELU>();
             seq->emplace<Linear>(8, 3, rng);
             return seq;
         },
         {2, 6}});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerGradCheck,
                         ::testing::ValuesIn(layer_cases()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------
// Targeted behaviour tests.
// ---------------------------------------------------------------------

TEST(Linear, OutputShapeAndBias) {
    Rng rng(1);
    Linear layer(3, 2, rng);
    layer.bias().value = Tensor({2}, {1.0F, -1.0F});
    layer.weight().value.fill(0.0F);
    const Tensor out = layer.forward(Tensor::zeros({4, 3}));
    EXPECT_EQ(out.shape(), (std::vector<std::size_t>{4, 2}));
    EXPECT_FLOAT_EQ(out(0, 0), 1.0F);
    EXPECT_FLOAT_EQ(out(3, 1), -1.0F);
}

TEST(Linear, RejectsWrongInputWidth) {
    Rng rng(1);
    Linear layer(3, 2, rng);
    EXPECT_THROW(layer.forward(Tensor::zeros({4, 5})), std::invalid_argument);
}

TEST(Conv2d, MatchesDirectConvolution) {
    Rng rng(2);
    Conv2d conv(1, 1, 3, 1, 0, rng);
    conv.weight().value.fill(1.0F);  // box filter
    conv.bias().value.fill(0.0F);
    Tensor input = Tensor::ones({1, 1, 4, 4});
    const Tensor out = conv.forward(input);
    EXPECT_EQ(out.shape(), (std::vector<std::size_t>{1, 1, 2, 2}));
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_FLOAT_EQ(out[i], 9.0F);  // 3x3 window of ones
    }
}

TEST(Conv2d, ChannelMismatchThrows) {
    Rng rng(3);
    Conv2d conv(3, 4, 3, 1, 1, rng);
    EXPECT_THROW(conv.forward(Tensor::zeros({1, 2, 8, 8})),
                 std::invalid_argument);
}

/// Weight, bias and input gradients of one Conv2d::backward (parameter
/// gradients zeroed first), for bitwise comparison.
struct ConvGrads {
    std::vector<float> weight, bias, input;
};

ConvGrads conv_grads(Conv2d& conv, const Tensor& grad_output) {
    conv.weight().grad.fill(0.0F);
    conv.bias().grad.fill(0.0F);
    const Tensor grad_input = conv.backward(grad_output);
    const auto copy = [](std::span<const float> v) {
        return std::vector<float>(v.begin(), v.end());
    };
    return {copy(conv.weight().grad.values()), copy(conv.bias().grad.values()),
            copy(grad_input.values())};
}

/// Gradients that recompute the unfold: a fresh clone runs the float
/// forward on `input`, then a throwaway backward, which overwrites the
/// forward's unfold with dcols, so the measured backward unfolds again.
ConvGrads recomputed_grads(const Conv2d& conv, const Tensor& input,
                           const Tensor& grad_output) {
    std::unique_ptr<Module> fresh = conv.clone();
    auto& clone = dynamic_cast<Conv2d&>(*fresh);
    clone.set_inference_mode(InferenceMode::kFloat32);
    clone.forward(input);
    clone.backward(grad_output);
    return conv_grads(clone, grad_output);
}

void expect_bitwise(const ConvGrads& got, const ConvGrads& want,
                    const std::string& what) {
    const auto same = [](const std::vector<float>& a,
                         const std::vector<float>& b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    };
    EXPECT_TRUE(same(got.weight, want.weight)) << what << ": weight grad";
    EXPECT_TRUE(same(got.bias, want.bias)) << what << ": bias grad";
    EXPECT_TRUE(same(got.input, want.input)) << what << ": input grad";
}

/// Conv2d::backward reuses the float forward's whole-batch unfold instead
/// of running im2col again; the gradients must not move by a bit, and any
/// forward that did not leave the current input's unfold in place (a
/// fixed-point forward) must make the backward unfold again.
TEST(Conv2d, BackwardReusingForwardUnfoldIsBitIdentical) {
    struct Case {
        std::size_t in_c, out_c, kernel, stride, pad;
    };
    const Case cases[] = {{2, 3, 3, 1, 1}, {1, 4, 5, 2, 2}, {3, 2, 1, 1, 0}};
    for (const Case& c : cases) {
        Rng rng(40 + c.kernel);
        Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, rng);
        const Tensor x0 = Tensor::randn({4, c.in_c, 9, 9}, rng);
        const Tensor x1 = Tensor::randn({4, c.in_c, 9, 9}, rng);
        const Tensor grad = Tensor::randn(conv.forward(x0).shape(), rng);
        const std::string tag = conv.name();

        // Forward then backward.
        conv.forward(x1);
        expect_bitwise(conv_grads(conv, grad),
                       recomputed_grads(conv, x1, grad),
                       tag + " forward+backward");

        // Two forwards on different inputs, then one backward: the
        // backward differentiates the second input.
        conv.forward(x0);
        conv.forward(x1);
        expect_bitwise(conv_grads(conv, grad),
                       recomputed_grads(conv, x1, grad),
                       tag + " two forwards+backward");

        // A float forward leaves x0's unfold behind; an int8 forward on x1
        // must invalidate it, so the float backward unfolds x1 again.
        conv.forward(x0);
        conv.set_inference_mode(InferenceMode::kInt8);
        conv.forward(x1);
        conv.set_inference_mode(InferenceMode::kFloat32);
        expect_bitwise(conv_grads(conv, grad),
                       recomputed_grads(conv, x1, grad),
                       tag + " int8 forward+float backward");
    }
}

TEST(MaxPool2d, SelectsMaximaAndRoutesGradient) {
    MaxPool2d pool(2);
    Tensor input({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    const Tensor out = pool.forward(input);
    EXPECT_FLOAT_EQ(out[0], 5.0F);
    const Tensor grad = pool.backward(Tensor::ones({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(grad[0], 0.0F);
    EXPECT_FLOAT_EQ(grad[1], 1.0F);  // gradient flows only to the argmax
}

/// AvgPool2d against the naive window-by-window loops, bit for bit: the
/// forward sums each window in double from +0, rows top to bottom, left
/// to right; the backward sweeps windows in (oy, ox) order and adds each
/// window's share to its elements from +0, so where windows overlap an
/// element takes its additions in that order.  The gradient holds -0
/// entries, whose +0 start is visible in the bits.  The 2x2, stride-2
/// window runs its own fixed-extent loops; at odd H or W its last input
/// row or column lies in no window, and its gradient must stay +0.
TEST(AvgPool2d, MatchesNaiveWindowLoopsBitwise) {
    struct Case {
        std::size_t kernel, stride, h, w;
    };
    const Case cases[] = {{2, 2, 16, 16}, {2, 2, 5, 5},  {3, 1, 5, 5},
                          {3, 2, 7, 6},   {2, 1, 4, 9},  {1, 1, 3, 3},
                          {5, 3, 11, 8},  {3, 3, 3, 3},  {2, 2, 8, 8},
                          {2, 2, 7, 9},   {2, 2, 9, 6},  {2, 2, 6, 11},
                          {2, 2, 3, 2},   {2, 2, 2, 2}};
    const auto same = [](const Tensor& a, const Tensor& b) {
        return a.shape() == b.shape() &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    };
    for (const Case& c : cases) {
        Rng rng(70 + c.kernel * 10 + c.stride);
        const std::size_t n = 3, ch = 2;
        const std::size_t oh = (c.h - c.kernel) / c.stride + 1;
        const std::size_t ow = (c.w - c.kernel) / c.stride + 1;
        const Tensor x = Tensor::randn({n, ch, c.h, c.w}, rng);
        Tensor grad = Tensor::randn({n, ch, oh, ow}, rng);
        for (std::size_t i = 0; i < grad.size(); i += 3) {
            grad[i] = -0.0F;
        }
        const float inv = 1.0F / static_cast<float>(c.kernel * c.kernel);

        Tensor want_out({n, ch, oh, ow});
        Tensor want_grad({n, ch, c.h, c.w});
        for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t k = 0; k < ch; ++k) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        double acc = 0.0;
                        const float g = grad(s, k, oy, ox) * inv;
                        for (std::size_t ky = 0; ky < c.kernel; ++ky) {
                            for (std::size_t kx = 0; kx < c.kernel; ++kx) {
                                const std::size_t iy = oy * c.stride + ky;
                                const std::size_t ix = ox * c.stride + kx;
                                acc += x(s, k, iy, ix);
                                want_grad(s, k, iy, ix) += g;
                            }
                        }
                        want_out(s, k, oy, ox) = static_cast<float>(acc) * inv;
                    }
                }
            }
        }

        AvgPool2d pool(c.kernel, c.stride);
        const std::string tag = pool.name() + " on " +
                                std::to_string(c.h) + "x" +
                                std::to_string(c.w);
        EXPECT_TRUE(same(pool.forward(x), want_out)) << tag << ": forward";
        const Tensor got_grad = pool.backward(grad);
        EXPECT_TRUE(same(got_grad, want_grad)) << tag << ": backward";
        // Rows and columns past the last window take no gradient: +0.
        const std::size_t covered_h = (oh - 1) * c.stride + c.kernel;
        const std::size_t covered_w = (ow - 1) * c.stride + c.kernel;
        for (std::size_t i = 0; i < got_grad.size(); ++i) {
            const std::size_t iy = (i / c.w) % c.h, ix = i % c.w;
            if (iy >= covered_h || ix >= covered_w) {
                EXPECT_EQ(std::bit_cast<std::uint32_t>(got_grad[i]), 0U)
                    << tag << ": uncovered element " << i;
            }
        }
    }
}

TEST(GlobalAvgPool, AveragesSpatially) {
    GlobalAvgPool pool;
    Tensor input({1, 2, 2, 2},
                 std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
    const Tensor out = pool.forward(input);
    EXPECT_FLOAT_EQ(out(0, 0), 2.5F);
    EXPECT_FLOAT_EQ(out(0, 1), 25.0F);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
    BatchNorm bn(2);
    Rng rng(4);
    const Tensor input = Tensor::randn({64, 2}, rng, 3.0F);
    bn.set_training(true);
    const Tensor out = bn.forward(input);
    // Each channel should be ~zero-mean unit-variance.
    for (std::size_t c = 0; c < 2; ++c) {
        double mean = 0.0, var = 0.0;
        for (std::size_t i = 0; i < 64; ++i) mean += out(i, c);
        mean /= 64.0;
        for (std::size_t i = 0; i < 64; ++i) {
            var += (out(i, c) - mean) * (out(i, c) - mean);
        }
        var /= 64.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-3);
    }
}

TEST(BatchNorm, EvalUsesRunningStatistics) {
    BatchNorm bn(1);
    Rng rng(5);
    bn.set_training(true);
    for (int i = 0; i < 50; ++i) {
        Tensor batch = Tensor::randn({32, 1}, rng, 2.0F);
        batch.add_scalar_(10.0F);
        bn.forward(batch);
    }
    EXPECT_NEAR(bn.running_mean()[0], 10.0F, 0.5F);
    EXPECT_NEAR(bn.running_var()[0], 4.0F, 1.0F);
    bn.set_training(false);
    // A constant eval input equal to the running mean maps to ~beta (0).
    const Tensor out = bn.forward(Tensor::full({4, 1}, 10.0F));
    EXPECT_NEAR(out[0], 0.0F, 0.3F);
}

TEST(GroupNorm, RequiresDivisibleChannels) {
    EXPECT_THROW(GroupNorm(3, 4), std::invalid_argument);
    EXPECT_NO_THROW(GroupNorm(2, 4));
}

TEST(GroupNorm, NormalizesPerSample) {
    GroupNorm gn(1, 3);  // LayerNorm behaviour
    Rng rng(6);
    Tensor input = Tensor::randn({2, 3, 4, 4}, rng, 5.0F);
    input.add_scalar_(7.0F);
    const Tensor out = gn.forward(input);
    // Each sample slab should be ~zero-mean.
    for (std::size_t nidx = 0; nidx < 2; ++nidx) {
        double mean = 0.0;
        for (std::size_t i = 0; i < 3 * 16; ++i) {
            mean += out[nidx * 3 * 16 + i];
        }
        EXPECT_NEAR(mean / (3 * 16), 0.0, 1e-4);
    }
}

TEST(Sequential, ForwardComposesChildren) {
    Rng rng(7);
    Sequential seq;
    auto* l1 = seq.emplace<Linear>(4, 8, rng);
    seq.emplace<ReLU>();
    auto* l2 = seq.emplace<Linear>(8, 2, rng);
    EXPECT_EQ(seq.child_count(), 3U);
    EXPECT_NE(l1, nullptr);
    EXPECT_NE(l2, nullptr);
    const Tensor out = seq.forward(Tensor::zeros({5, 4}));
    EXPECT_EQ(out.shape(), (std::vector<std::size_t>{5, 2}));
}

TEST(Sequential, EmptyForwardReturnsItsInput) {
    Sequential seq;
    const Tensor input({2, 3}, std::vector<float>{1, -2, 3, -4, 5, -6});
    EXPECT_TRUE(seq.forward(input).equals(input));
}

TEST(Sequential, CollectsAllParameters) {
    Rng rng(8);
    Sequential seq;
    seq.emplace<Linear>(4, 8, rng);
    seq.emplace<Linear>(8, 2, rng);
    EXPECT_EQ(seq.parameters().size(), 4U);  // 2 layers x (W, b)
    EXPECT_EQ(seq.parameter_count(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(Sequential, TrainingFlagPropagates) {
    Rng rng(9);
    Sequential seq;
    seq.emplace<Linear>(2, 2, rng);
    seq.set_training(false);
    EXPECT_FALSE(seq.training());
    EXPECT_FALSE(seq.child(0).training());
}

TEST(Residual, AddsBranches) {
    auto main = std::make_unique<Identity>();
    Residual res(std::move(main));
    Tensor input({1, 3}, std::vector<float>{1, 2, 3});
    const Tensor out = res.forward(input);
    EXPECT_FLOAT_EQ(out[0], 2.0F);  // identity + identity
}

TEST(Residual, MismatchedBranchesThrow) {
    Rng rng(10);
    auto main = std::make_unique<Sequential>();
    main->emplace<Linear>(3, 4, rng);
    Residual res(std::move(main));  // identity shortcut keeps width 3
    EXPECT_THROW(res.forward(Tensor::zeros({1, 3})), std::invalid_argument);
}

TEST(Activations, FactoryKnowsAllNames) {
    for (const char* name :
         {"relu", "leaky_relu", "elu", "gelu", "sigmoid", "tanh"}) {
        EXPECT_NE(make_activation(name), nullptr) << name;
    }
    EXPECT_THROW(make_activation("swishh"), std::invalid_argument);
}

/// An eval-mode forward keeps no input for a backward: a backward after it
/// throws instead of differentiating a stale or empty cache, and the next
/// training-mode forward caches again.  Both modes write the same output.
TEST(Activations, EvalForwardCachesNothingAndBackwardThrows) {
    Rng rng(12);
    const Tensor x = Tensor::randn({4, 7}, rng);
    const Tensor g = Tensor::randn({4, 7}, rng);
    for (const char* kind : {"relu", "gelu", "tanh"}) {
        const std::unique_ptr<Module> act = make_activation(kind);
        EXPECT_THROW(act->backward(g), std::logic_error) << kind;
        const Tensor train_out = act->forward(x);
        const Tensor train_grad = act->backward(g);
        act->set_training(false);
        EXPECT_TRUE(act->forward(x).equals(train_out)) << kind;
        EXPECT_THROW(act->backward(g), std::logic_error) << kind;
        act->set_training(true);
        act->forward(x);
        EXPECT_TRUE(act->backward(g).equals(train_grad)) << kind;
    }
}

TEST(Activations, GeluKnownValues) {
    GELU gelu;
    const Tensor out = gelu.forward(Tensor({3}, {0.0F, 100.0F, -100.0F}));
    EXPECT_NEAR(out[0], 0.0F, 1e-6);
    EXPECT_NEAR(out[1], 100.0F, 1e-3);
    EXPECT_NEAR(out[2], 0.0F, 1e-3);
}

}  // namespace
}  // namespace bayesft::nn
