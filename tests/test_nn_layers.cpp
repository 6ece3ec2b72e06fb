// Layer correctness: shapes, known values, and — the core property — exact
// agreement between every layer's analytic backward pass and central finite
// differences (parameterized over the whole layer family).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gradcheck.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/norm.hpp"
#include "nn/residual.hpp"
#include "nn/stn.hpp"
#include "simd/kernels.hpp"
#include "simd_tiers.hpp"
#include "tensor/ops.hpp"
#include "utils/parallel.hpp"

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
// Ownership: forward, backward and backward_params take their tensor by
// value.  An lvalue argument is copied and left as it was; a moved-in
// argument may be cached, overwritten in place or returned, and must give
// the same bits as the copy.
// ---------------------------------------------------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void zero_grads(Module& m) {
    for (Parameter* p : m.parameters()) p->grad.fill(0.0F);
}

void expect_same_param_grads(Module& a, Module& b, const std::string& tag) {
    const auto pa = a.parameters();
    const auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size()) << tag;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_TRUE(same_bits(pa[i]->grad, pb[i]->grad))
            << tag << ": parameter " << i << " (" << pa[i]->name << ")";
    }
}

/// The layer kinds of layer_cases() plus the ones with no finite-difference
/// check: the dropouts (in place when active, pass-through at rate 0),
/// Identity, a spatial transformer and pooling windows with gaps.
std::vector<LayerCase> ownership_cases() {
    std::vector<LayerCase> cases = layer_cases();
    cases.push_back({"Dropout",
                     [](Rng&) { return std::make_unique<Dropout>(0.4, 17); },
                     {4, 9}});
    cases.push_back({"DropoutRateZero",
                     [](Rng&) { return std::make_unique<Dropout>(0.0, 17); },
                     {4, 9}});
    cases.push_back(
        {"AlphaDropout",
         [](Rng&) { return std::make_unique<AlphaDropout>(0.3, 19); },
         {4, 9}});
    cases.push_back({"Identity",
                     [](Rng&) { return std::make_unique<Identity>(); },
                     {3, 4}});
    cases.push_back({"AvgPool2dGaps",
                     [](Rng&) { return std::make_unique<AvgPool2d>(2, 3); },
                     {2, 2, 9, 10}});
    cases.push_back(
        {"SpatialTransformer",
         [](Rng& rng) {
             auto loc = std::make_unique<Sequential>();
             loc->emplace<Flatten>();
             loc->emplace<Linear>(2 * 5 * 5, 6, rng);
             return std::make_unique<SpatialTransformer>(std::move(loc));
         },
         {2, 2, 5, 5}});
    return cases;
}

class LayerOwnership : public ::testing::TestWithParam<LayerCase> {};

TEST_P(LayerOwnership, MovedArgumentsGiveCopiedArgumentsBits) {
    const LayerCase& layer_case = GetParam();
    Rng rng_copy(31);
    Rng rng_move(31);
    const auto by_copy = layer_case.make(rng_copy);
    const auto by_move = layer_case.make(rng_move);
    Rng data(32);
    const Tensor x = Tensor::randn(layer_case.input_shape, data);

    // Training mode: forward, backward, then forward and backward_params.
    Tensor input = x;
    const Tensor y = by_copy->forward(input);
    EXPECT_TRUE(same_bits(input, x)) << "forward changed its lvalue";
    EXPECT_TRUE(same_bits(by_move->forward(Tensor(x)), y)) << "forward";
    const Tensor g = Tensor::randn(y.shape(), data);
    Tensor grad = g;
    zero_grads(*by_copy);
    zero_grads(*by_move);
    const Tensor dx = by_copy->backward(grad);
    EXPECT_TRUE(same_bits(grad, g)) << "backward changed its lvalue";
    EXPECT_TRUE(same_bits(by_move->backward(Tensor(g)), dx)) << "backward";
    expect_same_param_grads(*by_copy, *by_move, "backward");

    by_copy->forward(input);
    by_move->forward(Tensor(x));
    by_copy->backward_params(grad);
    EXPECT_TRUE(same_bits(grad, g)) << "backward_params changed its lvalue";
    by_move->backward_params(Tensor(g));
    expect_same_param_grads(*by_copy, *by_move, "backward_params");

    // Eval mode: forward only.
    by_copy->set_training(false);
    by_move->set_training(false);
    const Tensor y_eval = by_copy->forward(input);
    EXPECT_TRUE(same_bits(input, x)) << "eval forward changed its lvalue";
    EXPECT_TRUE(same_bits(by_move->forward(Tensor(x)), y_eval))
        << "eval forward";
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerOwnership,
                         ::testing::ValuesIn(ownership_cases()),
                         [](const auto& info) { return info.param.name; });

/// An eval-mode Activation forward overwrites its argument in place; it
/// must write the bits the training-mode forward writes into a fresh
/// output, on every tier, including at -0, infinities and NaN.
TEST(Activations, InPlaceEvalForwardMatchesTrainingForwardBitwise) {
    Rng rng(13);
    Tensor x = Tensor::randn({5, 13}, rng, 3.0F);
    const float specials[] = {0.0F,  -0.0F, 30.0F, -30.0F,
                              1e-30F, -1e-30F,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
    for (std::size_t i = 0; i < std::size(specials); ++i) x[i * 7] = specials[i];
    for (const simd::Tier tier : bayesft::testing::runnable_tiers()) {
        const simd::TierOverride force(tier);
        for (const char* kind :
             {"relu", "leaky_relu", "elu", "gelu", "sigmoid", "tanh"}) {
            const std::string tag =
                std::string(kind) + " on " + simd::tier_name(tier);
            const std::unique_ptr<Module> act = make_activation(kind);
            const Tensor train_out = act->forward(x);
            act->set_training(false);
            Tensor in_place = x;
            const float* storage = in_place.data();
            const Tensor eval_out = act->forward(std::move(in_place));
            EXPECT_EQ(eval_out.data(), storage) << tag << ": not in place";
            EXPECT_TRUE(same_bits(eval_out, train_out)) << tag;
        }
    }
}

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

/// Conv2d's forward and gradients by naive per-element loops, each
/// element's arithmetic spelled out:
/// - y = (fma chain over the patch (c, ky, kx) from +0, padding taps
///   reading +0) + b;
/// - dW starts from the preloaded gradient and adds g * unfold as an fma
///   chain over the positions (sample, oy, ox) in order;
/// - db adds float(double sum of g over the positions) to the preloaded
///   bias gradient;
/// - dX: each unfold entry's gradient is an fma chain over the output
///   channels from +0, scattered into a +0 image gradient row by row
///   (c, ky, kx), so every element takes its additions in (ky, kx) order.
struct NaiveConv {
    Tensor y, dw, db, dx;
};

NaiveConv naive_conv(const Tensor& w, const Tensor& b, const Tensor& x,
                     const Tensor& g, const Tensor& dw0, const Tensor& db0,
                     std::size_t k, std::size_t stride, std::size_t pad) {
    const std::size_t n = x.dim(0), h = x.dim(2), wd = x.dim(3);
    const std::size_t oc = w.dim(0), patch = w.dim(1);
    const std::size_t oh = (h + 2 * pad - k) / stride + 1;
    const std::size_t ow = (wd + 2 * pad - k) / stride + 1;
    // Image index of tap (ky, kx) at position (oy, ox), or -1 in padding.
    const auto tap = [&](std::size_t o, std::size_t kk,
                         std::size_t extent) -> std::ptrdiff_t {
        const auto i = static_cast<std::ptrdiff_t>(o * stride + kk) -
                       static_cast<std::ptrdiff_t>(pad);
        return i >= 0 && i < static_cast<std::ptrdiff_t>(extent) ? i : -1;
    };
    const auto unfold = [&](std::size_t s, std::size_t p, std::size_t oy,
                            std::size_t ox) {
        const std::size_t ci = p / (k * k), ky = p / k % k, kx = p % k;
        const std::ptrdiff_t iy = tap(oy, ky, h), ix = tap(ox, kx, wd);
        return iy < 0 || ix < 0
                   ? 0.0F
                   : x(s, ci, static_cast<std::size_t>(iy),
                       static_cast<std::size_t>(ix));
    };
    NaiveConv r{Tensor({n, oc, oh, ow}), dw0, db0, Tensor(x.shape())};
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t o = 0; o < oc; ++o) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    float acc = 0.0F;
                    for (std::size_t p = 0; p < patch; ++p) {
                        acc = std::fma(w(o, p), unfold(s, p, oy, ox), acc);
                    }
                    r.y(s, o, oy, ox) = acc + b[o];
                }
            }
        }
    }
    for (std::size_t o = 0; o < oc; ++o) {
        for (std::size_t p = 0; p < patch; ++p) {
            float acc = dw0(o, p);
            for (std::size_t s = 0; s < n; ++s) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        acc = std::fma(g(s, o, oy, ox), unfold(s, p, oy, ox),
                                       acc);
                    }
                }
            }
            r.dw(o, p) = acc;
        }
        double sum = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t q = 0; q < oh * ow; ++q) {
                sum += g[(s * oc + o) * oh * ow + q];
            }
        }
        r.db[o] = db0[o] + static_cast<float>(sum);
    }
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t p = 0; p < patch; ++p) {
            const std::size_t ci = p / (k * k), ky = p / k % k, kx = p % k;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    const std::ptrdiff_t iy = tap(oy, ky, h);
                    const std::ptrdiff_t ix = tap(ox, kx, wd);
                    if (iy < 0 || ix < 0) continue;
                    float d = 0.0F;
                    for (std::size_t o = 0; o < oc; ++o) {
                        d = std::fma(w(o, p), g(s, o, oy, ox), d);
                    }
                    r.dx(s, ci, static_cast<std::size_t>(iy),
                         static_cast<std::size_t>(ix)) += d;
                }
            }
        }
    }
    return r;
}

/// Runs Conv2d at LeNet's two layers (batch 32) and a stride-2 layer on
/// every runnable tier against naive_conv; returns one line per mismatch.
std::string conv_naive_mismatches() {
    struct Case {
        std::size_t in_c, out_c, kernel, stride, pad, size, batch;
    };
    const Case cases[] = {{1, 6, 5, 1, 2, 16, 32},
                          {6, 16, 3, 1, 1, 8, 32},
                          {3, 5, 3, 2, 1, 9, 6}};
    std::string failures;
    const auto check = [&](bool ok, const std::string& what) {
        if (!ok) failures += what + "\n";
    };
    for (const simd::Tier tier : bayesft::testing::runnable_tiers()) {
        const simd::TierOverride force(tier);
        for (const Case& c : cases) {
            Rng rng(60 + c.kernel + c.stride);
            Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, rng);
            conv.bias().value = Tensor::randn({c.out_c}, rng);
            const Tensor x =
                Tensor::randn({c.batch, c.in_c, c.size, c.size}, rng);
            const Tensor dw0 = Tensor::randn(conv.weight().value.shape(), rng);
            const Tensor db0 = Tensor::randn({c.out_c}, rng);
            conv.weight().grad = dw0;
            conv.bias().grad = db0;
            const Tensor y = conv.forward(x);
            const Tensor g = Tensor::randn(y.shape(), rng);
            const NaiveConv want =
                naive_conv(conv.weight().value, conv.bias().value, x, g, dw0,
                           db0, c.kernel, c.stride, c.pad);
            const std::string tag = conv.name() + " on " +
                                    simd::tier_name(tier) + ", threads " +
                                    std::to_string(parallel_thread_count());
            const Tensor dx = conv.backward(g);
            check(same_bits(y, want.y), tag + ": forward");
            check(same_bits(conv.weight().grad, want.dw), tag + ": dW");
            check(same_bits(conv.bias().grad, want.db), tag + ": db");
            check(same_bits(dx, want.dx), tag + ": dX");
            // The training step's entry point: the same dW and db.
            conv.weight().grad = dw0;
            conv.bias().grad = db0;
            conv.forward(x);
            conv.backward_params(g);
            check(same_bits(conv.weight().grad, want.dw),
                  tag + ": backward_params dW");
            check(same_bits(conv.bias().grad, want.db),
                  tag + ": backward_params db");
        }
    }
    return failures;
}

#ifdef __linux__
/// Child mode of the test below: runs the comparison at the pool width
/// this process started with.
TEST(Conv2dNaiveChild, AtThisPoolWidth) {
    if (std::getenv("BAYESFT_CONV_NAIVE_CHILD") == nullptr) {
        GTEST_SKIP() << "parent-driven child mode only";
    }
    const std::string failures = conv_naive_mismatches();
    EXPECT_TRUE(failures.empty()) << failures;
}

/// The pool width is fixed per process (BAYESFT_NUM_THREADS is read once),
/// so the 1- and 4-thread runs are child processes of this binary.
TEST(Conv2d, MatchesNaiveLoopsBitwiseOnEveryTierAtOneAndFourThreads) {
    const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    for (const int width : {1, 4}) {
        const std::string log = ::testing::TempDir() + "conv_naive_t" +
                                std::to_string(width) + ".log";
        const std::string command =
            "BAYESFT_NUM_THREADS=" + std::to_string(width) +
            " BAYESFT_CONV_NAIVE_CHILD=1 '" + self +
            "' --gtest_filter=Conv2dNaiveChild.AtThisPoolWidth >'" + log +
            "' 2>&1";
        const int status = std::system(command.c_str());
        std::ifstream file(log);
        const std::string output((std::istreambuf_iterator<char>(file)),
                                 std::istreambuf_iterator<char>());
        EXPECT_EQ(status, 0) << width << " threads:\n" << output;
        EXPECT_NE(output.find("[  PASSED  ] 1 test"), std::string::npos)
            << width << " threads:\n" << output;
    }
}
#endif  // __linux__

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
/// Windows that do not overlap write each gradient element once instead
/// of adding to a zero fill, and windows narrower than their stride leave
/// gaps whose gradient is +0 as well.
TEST(AvgPool2d, MatchesNaiveWindowLoopsBitwise) {
    struct Case {
        std::size_t kernel, stride, h, w;
    };
    const Case cases[] = {{2, 2, 16, 16}, {2, 2, 5, 5},  {3, 1, 5, 5},
                          {3, 2, 7, 6},   {2, 1, 4, 9},  {1, 1, 3, 3},
                          {5, 3, 11, 8},  {3, 3, 3, 3},  {2, 2, 8, 8},
                          {2, 2, 7, 9},   {2, 2, 9, 6},  {2, 2, 6, 11},
                          {2, 2, 3, 2},   {2, 2, 2, 2},  {2, 3, 9, 10},
                          {1, 2, 5, 6},   {2, 3, 8, 8}};
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
