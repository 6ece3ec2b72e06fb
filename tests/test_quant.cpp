// The fixed-point inference path (nn/quant.hpp): the int8/int12 forward of
// Linear and Conv2d must be bit-identical to an integer reference built on
// QuantizationFault's quantized view — same grid, same rounding, same
// saturation — plus the mode plumbing around it (tree walker, scoped
// restore, clone inheritance, objective digest compatibility, registry
// scenarios, CLI name parsing).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "core/registry.hpp"
#include "fault/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/quant.hpp"
#include "simd/kernels.hpp"
#include "simd_tiers.hpp"
#include "tensor/tensor.hpp"
#include "utils/rng.hpp"

namespace bayesft::nn {
namespace {

float qmax_of(int bits) {
    return static_cast<float>((std::int64_t{1} << (bits - 1)) - 1);
}

/// Quantized codes of a float span on the QuantizationFault grid.
std::vector<std::int16_t> codes_of(const std::vector<float>& v, int bits,
                                   float* scale_out) {
    const auto& kt = simd::kernels();
    const float scale = kt.max_abs(v.data(), v.size()) / qmax_of(bits);
    *scale_out = scale;
    std::vector<std::int16_t> codes(v.size());
    if (scale != 0.0F) {
        kt.quantize_codes(v.data(), codes.data(), v.size(), bits, scale);
    }
    return codes;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ----------------------------------------------------- mode name round ----

TEST(InferenceMode, NamesBitsAndParsingRoundTrip) {
    for (const InferenceMode m : {InferenceMode::kFloat32,
                                  InferenceMode::kInt8,
                                  InferenceMode::kInt12}) {
        EXPECT_EQ(parse_inference_mode(inference_mode_name(m)), m);
    }
    EXPECT_EQ(inference_bits(InferenceMode::kFloat32), 0);
    EXPECT_EQ(inference_bits(InferenceMode::kInt8), 8);
    EXPECT_EQ(inference_bits(InferenceMode::kInt12), 12);
    EXPECT_THROW(parse_inference_mode("int7"), std::invalid_argument);
    EXPECT_THROW(parse_inference_mode(""), std::invalid_argument);
}

// ------------------------------------- quantized view == fault's view ----

/// The load-bearing identity: dequantized weight codes (codes * scale) are
/// bit-identical to the weights QuantizationFault produces.  This is what
/// makes "run the int-b forward" the same experiment as "evaluate the
/// b-bit quantized deployment".
TEST(QuantView, DequantizedCodesMatchQuantizationFaultBitExactly) {
    Rng rng(11);
    for (const int bits : {8, 12}) {
        std::vector<float> w(257);
        for (auto& v : w) v = static_cast<float>(rng.uniform(-1.5, 1.5));
        w[0] = 0.0F;

        std::vector<float> faulted = w;
        Rng fault_rng(0);
        fault::QuantizationFault(bits).perturb(faulted, fault_rng);

        float scale = 0.0F;
        const auto codes = codes_of(w, bits, &scale);
        std::vector<float> dequant(w.size());
        for (std::size_t i = 0; i < w.size(); ++i) {
            dequant[i] = static_cast<float>(codes[i]) * scale;
        }
        EXPECT_TRUE(bits_equal(faulted, dequant)) << "bits=" << bits;
    }
}

// -------------------------------------------------------- Linear path ----

using bayesft::testing::runnable_tiers;

/// Writes int12 boundary values into v, on the grid of step `step` (a power
/// of two, so max|v| = 2047 * step makes the scale exactly `step`):
/// +-max at v[at[0]] and v[at[1]], which quantize to +-2047, and ties at
/// +-(k + 0.5) steps at the other positions of `at`, which round away from
/// zero to +-(k + 1).  Returns the codes those positions must get.
std::vector<std::int16_t> place_int12_boundaries(
    std::vector<float>& v, const std::vector<std::size_t>& at, float step) {
    const float ties[] = {0.5F, 1.5F, 2046.5F, 1023.5F, 7.5F, 100.5F};
    std::vector<std::int16_t> want;
    for (std::size_t i = 0; i < at.size(); ++i) {
        const float sign = i % 2 == 0 ? 1.0F : -1.0F;
        const float steps = i < 2 ? 2047.0F : ties[(i - 2) % 6];
        v[at[i]] = sign * steps * step;
        const float code = i < 2 ? 2047.0F : steps + 0.5F;
        want.push_back(static_cast<std::int16_t>(sign * code));
    }
    return want;
}

/// The fixed-point Linear forward against an integer reference on its
/// codes, on every tier: random data at int8 and int12, and int12 boundary
/// data (+-max codes, ties at +-(k + 0.5) steps) whose codes are pinned.
TEST(QuantLinear, FixedPointForwardMatchesIntegerReference) {
    const std::size_t kIn = 7, kOut = 5, kRows = 3;
    Rng rng(21);
    Linear layer(kIn, kOut, rng);
    Rng data_rng(22);
    const Tensor random_input = Tensor::randn({kRows, kIn}, data_rng);
    const std::vector<float> random_w(
        layer.weight().value.data(),
        layer.weight().value.data() + layer.weight().value.size());

    // Boundary data: weights on a 2^-10 grid, inputs on a 2^-6 grid.
    std::vector<float> edge_w(kOut * kIn), edge_x(kRows * kIn);
    for (float& v : edge_w) v = static_cast<float>(rng.uniform(-1.9, 1.9));
    for (float& v : edge_x) v = static_cast<float>(rng.uniform(-31.0, 31.0));
    const std::vector<std::size_t> w_at = {0, kOut * kIn - 1, 3, 9, 12, 20,
                                           26, 33};
    const std::vector<std::size_t> x_at = {kIn - 1, kIn, 0, 2, 8, 13, 15,
                                           20};
    const auto w_want = place_int12_boundaries(edge_w, w_at, 0x1p-10F);
    const auto x_want = place_int12_boundaries(edge_x, x_at, 0x1p-6F);

    struct Case {
        InferenceMode mode;
        const std::vector<float>* w;
        std::vector<float> x;
        bool boundary;
    };
    const std::vector<float> random_x(random_input.data(),
                                      random_input.data() +
                                          random_input.size());
    const Case cases[] = {{InferenceMode::kInt8, &random_w, random_x, false},
                          {InferenceMode::kInt12, &random_w, random_x, false},
                          {InferenceMode::kInt12, &edge_w, edge_x, true}};
    for (const simd::Tier tier : runnable_tiers()) {
        simd::TierOverride override_tier(tier);
        for (const Case& c : cases) {
            const int bits = inference_bits(c.mode);
            const std::string what = std::string(inference_mode_name(c.mode)) +
                                     (c.boundary ? " boundary" : " random") +
                                     " tier " + simd::tier_name(tier);
            float s_w = 0.0F, s_x = 0.0F;
            const auto wc = codes_of(*c.w, bits, &s_w);
            const auto xc = codes_of(c.x, bits, &s_x);
            if (c.boundary) {
                EXPECT_EQ(s_w, 0x1p-10F) << what;
                EXPECT_EQ(s_x, 0x1p-6F) << what;
                for (std::size_t i = 0; i < w_at.size(); ++i) {
                    EXPECT_EQ(wc[w_at[i]], w_want[i]) << what << " w " << i;
                }
                for (std::size_t i = 0; i < x_at.size(); ++i) {
                    EXPECT_EQ(xc[x_at[i]], x_want[i]) << what << " x " << i;
                }
            }
            const float scale = s_w * s_x;

            // Reference mirrors the layer exactly: one float rounding per
            // output from the int64 dot product, then the bias add.
            std::vector<float> ref(kRows * kOut);
            for (std::size_t i = 0; i < kRows; ++i) {
                for (std::size_t j = 0; j < kOut; ++j) {
                    std::int64_t acc = 0;
                    for (std::size_t kk = 0; kk < kIn; ++kk) {
                        acc += static_cast<std::int64_t>(xc[i * kIn + kk]) *
                               static_cast<std::int64_t>(wc[j * kIn + kk]);
                    }
                    float v = static_cast<float>(acc) * scale;
                    v += layer.bias().value.data()[j];
                    ref[i * kOut + j] = v;
                }
            }

            std::copy(c.w->begin(), c.w->end(), layer.weight().value.data());
            layer.set_inference_mode(c.mode);
            const Tensor out = layer.forward(Tensor({kRows, kIn}, c.x));
            layer.set_inference_mode(InferenceMode::kFloat32);
            ASSERT_EQ(out.size(), ref.size());
            const std::vector<float> got(out.data(), out.data() + out.size());
            EXPECT_TRUE(bits_equal(ref, got)) << what;
        }
    }
}

TEST(QuantLinear, Int12TracksFloatCloserThanInt8) {
    Rng rng(31);
    Linear layer(16, 8, rng);
    Rng data_rng(32);
    const Tensor input = Tensor::randn({10, 16}, data_rng);

    const Tensor f32 = layer.forward(input);
    layer.set_inference_mode(InferenceMode::kInt8);
    const Tensor i8 = layer.forward(input);
    layer.set_inference_mode(InferenceMode::kInt12);
    const Tensor i12 = layer.forward(input);

    double err8 = 0.0, err12 = 0.0;
    for (std::size_t i = 0; i < f32.size(); ++i) {
        err8 = std::max(err8,
                        std::abs(double(i8.data()[i]) - f32.data()[i]));
        err12 = std::max(err12,
                         std::abs(double(i12.data()[i]) - f32.data()[i]));
    }
    EXPECT_GT(err8, 0.0);  // quantization really happened
    EXPECT_LE(err12, err8);
}

TEST(QuantLinear, AllZeroWeightsFallBackToBias) {
    Rng rng(41);
    Linear layer(4, 3, rng);
    std::fill_n(layer.weight().value.data(), layer.weight().value.size(),
                0.0F);
    layer.bias().value.data()[0] = 0.5F;
    layer.bias().value.data()[1] = -0.25F;
    layer.bias().value.data()[2] = 2.0F;

    layer.set_inference_mode(InferenceMode::kInt8);
    Rng data_rng(42);
    const Tensor out = layer.forward(Tensor::randn({2, 4}, data_rng));
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(out.data()[i * 3 + 0], 0.5F);
        EXPECT_EQ(out.data()[i * 3 + 1], -0.25F);
        EXPECT_EQ(out.data()[i * 3 + 2], 2.0F);
    }
}

// -------------------------------------------------------- Conv2d path ----

/// One Conv2d layer and the batch it runs on.
struct ConvShape {
    const char* name;
    std::size_t in_channels, out_channels, kernel, stride, pad, h, w, batch;
    std::size_t out_h() const { return (h + 2 * pad - kernel) / stride + 1; }
    std::size_t out_w() const { return (w + 2 * pad - kernel) / stride + 1; }
};

/// Direct convolution over the integer codes of W [OC, C*K*K] and x
/// [N, C, H, W], padding reading code 0: each output is the exact integer
/// sum, times `scale`, plus the bias.
std::vector<float> direct_conv_codes(const ConvShape& c,
                                     const std::vector<std::int16_t>& wc,
                                     const std::vector<std::int16_t>& xc,
                                     float scale, const float* bias) {
    const std::size_t C = c.in_channels, K = c.kernel;
    const std::size_t oh = c.out_h(), ow = c.out_w();
    std::vector<float> ref(c.batch * c.out_channels * oh * ow);
    for (std::size_t s = 0; s < c.batch; ++s) {
        for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    std::int64_t acc = 0;
                    for (std::size_t ch = 0; ch < C; ++ch) {
                        for (std::size_t ky = 0; ky < K; ++ky) {
                            for (std::size_t kx = 0; kx < K; ++kx) {
                                const std::ptrdiff_t iy =
                                    std::ptrdiff_t(oy * c.stride + ky) -
                                    std::ptrdiff_t(c.pad);
                                const std::ptrdiff_t ix =
                                    std::ptrdiff_t(ox * c.stride + kx) -
                                    std::ptrdiff_t(c.pad);
                                if (iy < 0 || iy >= std::ptrdiff_t(c.h) ||
                                    ix < 0 || ix >= std::ptrdiff_t(c.w)) {
                                    continue;
                                }
                                const std::size_t wi =
                                    ((oc * C + ch) * K + ky) * K + kx;
                                const std::size_t xj =
                                    ((s * C + ch) * c.h + iy) * c.w + ix;
                                acc += std::int64_t(xc[xj]) *
                                       std::int64_t(wc[wi]);
                            }
                        }
                    }
                    float v = static_cast<float>(acc) * scale;
                    v += bias[oc];
                    ref[((s * c.out_channels + oc) * oh + oy) * ow + ox] = v;
                }
            }
        }
    }
    return ref;
}

/// The fixed-point Conv2d forward against a direct convolution over the
/// integer codes, on every tier, at int8 and int12: random data on a pad-1
/// layer, LeNet's two layers at batch 32, a stride-2 and a stride-3 layer
/// (strides other than 1, and the scalar tier's one-lane rows, take other
/// unfold paths), and int12 boundary data on the pad-1 layer, whose
/// +-2047 and tie codes sit in the image's corners and edges, next to the
/// padding zeros.
TEST(QuantConv, FixedPointForwardMatchesIntegerReference) {
    const ConvShape shapes[] = {
        {"pad1 2->3 k3 5x5", 2, 3, 3, 1, 1, 5, 5, 2},
        {"lenet conv1 1->6 k5 p2 16x16", 1, 6, 5, 1, 2, 16, 16, 32},
        {"lenet conv2 6->16 k3 p1 8x8", 6, 16, 3, 1, 1, 8, 8, 32},
        {"3->5 k3 s2 p1 9x11", 3, 5, 3, 2, 1, 9, 11, 3},
        {"3->8 k4 s3 p0 13x10", 3, 8, 4, 3, 0, 13, 10, 2},
    };
    struct Case {
        const ConvShape* shape;
        InferenceMode mode;
        std::vector<float> w, x;
        bool boundary;
    };
    std::vector<Case> cases;
    Rng rng(51);
    Rng data_rng(52);
    for (const ConvShape& shape : shapes) {
        Conv2d init(shape.in_channels, shape.out_channels, shape.kernel,
                    shape.stride, shape.pad, rng);
        const Tensor input = Tensor::randn(
            {shape.batch, shape.in_channels, shape.h, shape.w}, data_rng);
        const std::vector<float> w(
            init.weight().value.data(),
            init.weight().value.data() + init.weight().value.size());
        const std::vector<float> x(input.data(),
                                   input.data() + input.size());
        for (const InferenceMode mode :
             {InferenceMode::kInt8, InferenceMode::kInt12}) {
            cases.push_back({&shape, mode, w, x, false});
        }
    }

    // Boundary data on the pad-1 layer.
    const ConvShape& b = shapes[0];
    const std::size_t C = b.in_channels, H = b.h, W = b.w;
    std::vector<float> edge_w(b.out_channels * C * b.kernel * b.kernel),
        edge_x(b.batch * C * H * W);
    for (float& v : edge_w) v = static_cast<float>(rng.uniform(-1.9, 1.9));
    for (float& v : edge_x) v = static_cast<float>(rng.uniform(-31.0, 31.0));
    // Weights: +-max at the first and last taps, ties at corner taps.
    const std::vector<std::size_t> w_at = {0, edge_w.size() - 1, 2, 6, 8,
                                           18, 24, 35};
    // Inputs: +-max at a corner of each sample, ties along the borders.
    const auto xi = [&](std::size_t s, std::size_t c, std::size_t y,
                        std::size_t x) {
        return ((s * C + c) * H + y) * W + x;
    };
    const std::vector<std::size_t> x_at = {
        xi(0, 0, 0, 0),     xi(1, 1, H - 1, W - 1), xi(0, 1, 0, W - 1),
        xi(1, 0, H - 1, 0), xi(0, 0, 2, 0),         xi(0, 1, 4, 2),
        xi(1, 1, 0, 3),     xi(1, 0, 3, W - 1)};
    const auto w_want = place_int12_boundaries(edge_w, w_at, 0x1p-10F);
    const auto x_want = place_int12_boundaries(edge_x, x_at, 0x1p-6F);
    cases.push_back({&b, InferenceMode::kInt12, edge_w, edge_x, true});

    for (const simd::Tier tier : runnable_tiers()) {
        simd::TierOverride override_tier(tier);
        for (const Case& c : cases) {
            const ConvShape& shape = *c.shape;
            const int bits = inference_bits(c.mode);
            const std::string what = std::string(shape.name) + " " +
                                     inference_mode_name(c.mode) +
                                     (c.boundary ? " boundary" : " random") +
                                     " tier " + simd::tier_name(tier);
            float s_w = 0.0F, s_x = 0.0F;
            const auto wc = codes_of(c.w, bits, &s_w);
            const auto xc = codes_of(c.x, bits, &s_x);
            if (c.boundary) {
                EXPECT_EQ(s_w, 0x1p-10F) << what;
                EXPECT_EQ(s_x, 0x1p-6F) << what;
                for (std::size_t i = 0; i < w_at.size(); ++i) {
                    EXPECT_EQ(wc[w_at[i]], w_want[i]) << what << " w " << i;
                }
                for (std::size_t i = 0; i < x_at.size(); ++i) {
                    EXPECT_EQ(xc[x_at[i]], x_want[i]) << what << " x " << i;
                }
            }
            Rng layer_rng(53);
            Conv2d conv(shape.in_channels, shape.out_channels, shape.kernel,
                        shape.stride, shape.pad, layer_rng);
            for (std::size_t oc = 0; oc < shape.out_channels; ++oc) {
                conv.bias().value.data()[oc] = 0.125F * float(oc) - 0.25F;
            }
            const std::vector<float> ref = direct_conv_codes(
                shape, wc, xc, s_w * s_x, conv.bias().value.data());

            std::copy(c.w.begin(), c.w.end(), conv.weight().value.data());
            conv.set_inference_mode(c.mode);
            const Tensor out = conv.forward(Tensor(
                {shape.batch, shape.in_channels, shape.h, shape.w}, c.x));
            ASSERT_EQ(out.size(), ref.size()) << what;
            const std::vector<float> got(out.data(), out.data() + out.size());
            EXPECT_TRUE(bits_equal(ref, got)) << what;
        }
    }
}

// --------------------------------------------------- mode plumbing ----

std::unique_ptr<Sequential> small_mlp(Rng& rng) {
    auto net = std::make_unique<Sequential>();
    net->emplace<Linear>(6, 8, rng);
    net->emplace<ReLU>();
    net->emplace<Linear>(8, 3, rng);
    return net;
}

TEST(QuantMode, WalkerSetsEveryCapableLayer) {
    Rng rng(61);
    auto net = small_mlp(rng);
    EXPECT_EQ(set_inference_mode(*net, InferenceMode::kInt8), 2U);

    std::vector<Module*> children;
    net->collect_children(children);
    std::size_t capable = 0;
    for (Module* m : children) {
        if (auto* fp = dynamic_cast<FixedPointCapable*>(m)) {
            ++capable;
            EXPECT_EQ(fp->inference_mode(), InferenceMode::kInt8);
        }
    }
    EXPECT_EQ(capable, 2U);
    set_inference_mode(*net, InferenceMode::kFloat32);
}

TEST(QuantMode, ScopedModeRestoresPreviousPerLayerModes) {
    Rng rng(62);
    auto net = small_mlp(rng);
    std::vector<Module*> children;
    net->collect_children(children);
    auto* first = dynamic_cast<FixedPointCapable*>(children.front());
    ASSERT_NE(first, nullptr);
    first->set_inference_mode(InferenceMode::kInt12);  // heterogeneous

    {
        ScopedInferenceMode scoped(*net, InferenceMode::kInt8);
        for (Module* m : children) {
            if (auto* fp = dynamic_cast<FixedPointCapable*>(m)) {
                EXPECT_EQ(fp->inference_mode(), InferenceMode::kInt8);
            }
        }
    }
    EXPECT_EQ(first->inference_mode(), InferenceMode::kInt12);
    auto* last = dynamic_cast<FixedPointCapable*>(children.back());
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->inference_mode(), InferenceMode::kFloat32);
}

TEST(QuantMode, CloneCarriesInferenceMode) {
    Rng rng(63);
    Linear layer(5, 4, rng);
    layer.set_inference_mode(InferenceMode::kInt12);
    const auto copy = layer.clone();
    auto* fp = dynamic_cast<FixedPointCapable*>(copy.get());
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->inference_mode(), InferenceMode::kInt12);

    Conv2d conv(1, 2, 3, 1, 1, rng);
    conv.set_inference_mode(InferenceMode::kInt8);
    const auto conv_copy = conv.clone();
    auto* conv_fp = dynamic_cast<FixedPointCapable*>(conv_copy.get());
    ASSERT_NE(conv_fp, nullptr);
    EXPECT_EQ(conv_fp->inference_mode(), InferenceMode::kInt8);
}

TEST(QuantMode, SequentialForwardUsesFixedPointLayers) {
    // End to end: the quantized net's output differs from float32 but by
    // no more than the quantization grid would suggest.
    Rng rng(64);
    auto net = small_mlp(rng);
    Rng data_rng(65);
    const Tensor input = Tensor::randn({4, 6}, data_rng);
    const Tensor f32 = net->forward(input);
    ScopedInferenceMode scoped(*net, InferenceMode::kInt8);
    const Tensor i8 = net->forward(input);
    ASSERT_EQ(i8.size(), f32.size());
    bool any_diff = false;
    for (std::size_t i = 0; i < f32.size(); ++i) {
        const double d = std::abs(double(i8.data()[i]) - f32.data()[i]);
        EXPECT_LT(d, 0.15) << "int8 output drifted implausibly far";
        any_diff = any_diff || d > 0.0;
    }
    EXPECT_TRUE(any_diff);
}

// ----------------------------------------- objective digest + registry ----

TEST(QuantObjective, DigestUnchangedForFloat32AndForksForFixedPoint) {
    core::ObjectiveConfig base;
    const std::uint64_t d_default = core::objective_digest(base);

    core::ObjectiveConfig f32 = base;
    f32.inference = InferenceMode::kFloat32;
    EXPECT_EQ(core::objective_digest(f32), d_default)
        << "float32 must not perturb pre-existing digests";

    core::ObjectiveConfig i8 = base;
    i8.inference = InferenceMode::kInt8;
    core::ObjectiveConfig i12 = base;
    i12.inference = InferenceMode::kInt12;
    EXPECT_NE(core::objective_digest(i8), d_default);
    EXPECT_NE(core::objective_digest(i12), d_default);
    EXPECT_NE(core::objective_digest(i8), core::objective_digest(i12));
}

TEST(QuantRegistry, FixedPointScenariosAreRegistered) {
    const auto& registry = core::ExperimentRegistry::instance();
    for (const char* name :
         {"faults_int8_inference", "faults_dac12_deploy"}) {
        const auto* spec = registry.find(name);
        ASSERT_NE(spec, nullptr) << name;
        EXPECT_EQ(spec->family, "faults");
        EXPECT_FALSE(spec->description.empty());
    }
}

TEST(QuantFault, Dac12DeployIsComposedQuantizeVariationDrift) {
    const auto model = fault::dac12_deploy(0.4);
    ASSERT_NE(model, nullptr);
    const std::string desc = model->describe();
    EXPECT_NE(desc.find("Quantization(bits=12)"), std::string::npos) << desc;
    EXPECT_NE(desc.find("GaussianVariation"), std::string::npos) << desc;
    // Drift sigma is the composed chain's last stage parameter.
    EXPECT_NE(desc.find("0.4"), std::string::npos) << desc;
}

}  // namespace
}  // namespace bayesft::nn
