// The pluggable fault-model zoo: per-model semantics (stuck-at, bit-flip,
// variation, quantization), the FaultModel stateless/determinism contract,
// and thread-count invariance of Monte-Carlo evaluation for every model.
// The "faults" registry rows run in test_engine's registry table test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/objective.hpp"
#include "data/toy.hpp"
#include "fault/drift.hpp"
#include "fault/evaluator.hpp"
#include "fault/model.hpp"
#include "fault/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/trainer.hpp"
#include "simd/kernels.hpp"
#include "simd_tiers.hpp"

namespace bayesft::fault {
namespace {

std::vector<float> ramp_weights(std::size_t n) {
    std::vector<float> w(n);
    for (std::size_t i = 0; i < n; ++i) {
        w[i] = 0.01F * static_cast<float>(i + 1) *
               (i % 2 == 0 ? 1.0F : -1.0F);
    }
    return w;
}

std::unique_ptr<FaultModel> make_composed_deploy() {
    std::vector<std::unique_ptr<FaultModel>> stages;
    stages.push_back(std::make_unique<QuantizationFault>(8));
    stages.push_back(std::make_unique<GaussianVariationFault>(0.2));
    stages.push_back(std::make_unique<LogNormalDrift>(0.3));
    return std::make_unique<ComposedFault>(std::move(stages));
}

/// One representative of every member of the zoo (legacy drift models
/// included — they share the contract).
std::vector<std::unique_ptr<FaultModel>> zoo() {
    std::vector<std::unique_ptr<FaultModel>> models;
    models.push_back(std::make_unique<LogNormalDrift>(0.4));
    models.push_back(std::make_unique<GaussianAdditiveDrift>(0.1));
    models.push_back(std::make_unique<UniformScaleDrift>(0.3));
    models.push_back(std::make_unique<StuckAtZeroDrift>(0.1));
    models.push_back(std::make_unique<SignFlipDrift>(0.05));
    models.push_back(std::make_unique<StuckAtFault>(0.1, 0.25));
    models.push_back(std::make_unique<BitFlipFault>(1e-2, 8));
    models.push_back(std::make_unique<GaussianVariationFault>(0.3));
    models.push_back(std::make_unique<QuantizationFault>(6));
    models.push_back(make_composed_deploy());
    return models;
}

// ------------------------------------------------ interface contract ----

TEST(FaultModelContract, EveryModelIsStateless) {
    for (const auto& model : zoo()) {
        EXPECT_TRUE(verify_stateless(*model)) << model->describe();
    }
}

/// A deliberately broken model: a hidden mutable counter makes the second
/// perturb call differ — exactly the bug class verify_stateless exists to
/// catch (and the debug-build assert in the evaluator would trip on).
class HiddenStateFault final : public FaultModel {
public:
    void perturb(std::span<float> weights, Rng&) const override {
        const float offset = static_cast<float>(++calls_);
        for (float& w : weights) w += offset;
    }
    std::unique_ptr<FaultModel> clone() const override {
        return std::make_unique<HiddenStateFault>();
    }
    std::string describe() const override { return "HiddenState"; }
    std::vector<double> params() const override { return {}; }

private:
    mutable int calls_ = 0;
};

TEST(FaultModelContract, VerifierCatchesHiddenState) {
    const HiddenStateFault broken;
    EXPECT_FALSE(verify_stateless(broken));
}

TEST(FaultModelContract, CloneMatchesOriginal) {
    for (const auto& model : zoo()) {
        const std::unique_ptr<FaultModel> copy = model->clone();
        ASSERT_NE(copy, nullptr) << model->describe();
        EXPECT_EQ(copy->describe(), model->describe());
        EXPECT_EQ(copy->params(), model->params());

        // Clone and original produce identical perturbations from
        // identical streams.
        auto a = ramp_weights(128);
        auto b = a;
        const Rng base(77);
        Rng ra = base.fork(3);
        Rng rb = base.fork(3);
        model->perturb(a, ra);
        copy->perturb(b, rb);
        EXPECT_EQ(a, b) << model->describe();
    }
}

// ----------------------------------------------------- StuckAtFault ----

TEST(StuckAtFault, FractionZeroIsIdentity) {
    const StuckAtFault fault(0.0, 0.5);
    auto w = ramp_weights(256);
    const auto before = w;
    Rng rng(1);
    fault.perturb(w, rng);
    EXPECT_EQ(w, before);
}

TEST(StuckAtFault, AllSa0GivesZeros) {
    const StuckAtFault fault(1.0, 0.0);
    auto w = ramp_weights(64);
    Rng rng(2);
    fault.perturb(w, rng);
    for (float v : w) EXPECT_FLOAT_EQ(v, 0.0F);
}

TEST(StuckAtFault, AllSa1SticksAtFullScaleKeepingSign) {
    const StuckAtFault fault(1.0, 1.0);
    auto w = ramp_weights(64);
    float maxabs = 0.0F;
    for (float v : w) maxabs = std::max(maxabs, std::fabs(v));
    const auto before = w;
    Rng rng(3);
    fault.perturb(w, rng);
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_FLOAT_EQ(std::fabs(w[i]), maxabs);
        EXPECT_EQ(std::signbit(w[i]), std::signbit(before[i]));
    }
}

TEST(StuckAtFault, FaultsExpectedFraction) {
    const StuckAtFault fault(0.25, 0.0);
    std::vector<float> w(100000, 1.0F);
    Rng rng(4);
    fault.perturb(w, rng);
    std::size_t zeros = 0;
    for (float v : w) {
        if (v == 0.0F) ++zeros;
    }
    EXPECT_NEAR(static_cast<double>(zeros) / w.size(), 0.25, 0.01);
}

TEST(StuckAtFault, RejectsBadParameters) {
    EXPECT_THROW(StuckAtFault(1.5), std::invalid_argument);
    EXPECT_THROW(StuckAtFault(0.1, -0.2), std::invalid_argument);
    EXPECT_THROW(StuckAtFault(0.1, 0.5, -1.0), std::invalid_argument);
}

// ----------------------------------------------------- BitFlipFault ----

TEST(BitFlipFault, ZeroProbabilityIsIdentity) {
    const BitFlipFault fault(0.0, 8);
    auto w = ramp_weights(256);
    const auto before = w;
    Rng rng(5);
    fault.perturb(w, rng);
    EXPECT_EQ(w, before);
}

TEST(BitFlipFault, OutputStaysOnQuantizationGrid) {
    const int bits = 8;
    const BitFlipFault fault(0.05, bits);
    auto w = ramp_weights(512);
    float maxabs = 0.0F;
    for (float v : w) maxabs = std::max(maxabs, std::fabs(v));
    const float scale =
        maxabs / static_cast<float>((1 << (bits - 1)) - 1);
    Rng rng(6);
    fault.perturb(w, rng);
    for (float v : w) {
        const float q = v / scale;
        EXPECT_NEAR(q, std::round(q), 1e-3F);
        // two's-complement range of the quantized view
        EXPECT_GE(q, -128.5F);
        EXPECT_LE(q, 127.5F);
    }
}

TEST(BitFlipFault, FlipRateMatchesProbability) {
    const BitFlipFault fault(0.1, 8);
    std::vector<float> w(20001, 0.5F);
    w[0] = 1.0F;  // pin the scale at max|w| = 1
    Rng rng(7);
    fault.perturb(w, rng);
    // The unflipped weights land on the quantized baseline round(0.5/s)*s;
    // any bit flip moves to a different grid point (dequantization is
    // injective in q), so "changed" counts exactly the flipped words.
    const float scale = 1.0F / 127.0F;
    const float baseline =
        scale * static_cast<float>(std::llround(0.5F / scale));
    std::size_t changed = 0;
    for (std::size_t i = 1; i < w.size(); ++i) {
        if (w[i] != baseline) ++changed;
    }
    // P(any of 8 bits flips) = 1 - 0.9^8 ~ 0.57
    EXPECT_NEAR(static_cast<double>(changed) /
                    static_cast<double>(w.size() - 1),
                0.57, 0.03);
}

TEST(BitFlipFault, RejectsBadParameters) {
    EXPECT_THROW(BitFlipFault(-0.1, 8), std::invalid_argument);
    EXPECT_THROW(BitFlipFault(0.1, 1), std::invalid_argument);
    EXPECT_THROW(BitFlipFault(0.1, 17), std::invalid_argument);
}

// ------------------------------------------- GaussianVariationFault ----

TEST(GaussianVariationFault, ZeroSigmaIsIdentity) {
    const GaussianVariationFault fault(0.0);
    auto w = ramp_weights(128);
    const auto before = w;
    Rng rng(8);
    fault.perturb(w, rng);
    EXPECT_EQ(w, before);
}

TEST(GaussianVariationFault, MultiplierHasUnitMean) {
    // Unlike drift (median-one), variation is mean-one: mu = -sigma^2/2.
    const double sigma = 0.5;
    const GaussianVariationFault fault(sigma);
    std::vector<float> w(200000, 1.0F);
    Rng rng(9);
    fault.perturb(w, rng);
    double mean = 0.0;
    for (float v : w) {
        EXPECT_GT(v, 0.0F);  // multiplicative: sign preserved
        mean += v;
    }
    mean /= static_cast<double>(w.size());
    EXPECT_NEAR(mean, 1.0, 0.01);
}

// ---------------------------------------------------- QuantizationFault ----

TEST(QuantizationFault, RoundTripBound) {
    const int bits = 6;
    const QuantizationFault fault(bits);
    auto w = ramp_weights(512);
    const auto before = w;
    float maxabs = 0.0F;
    for (float v : w) maxabs = std::max(maxabs, std::fabs(v));
    const float scale =
        maxabs / static_cast<float>((1 << (bits - 1)) - 1);
    Rng rng(10);
    fault.perturb(w, rng);
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_LE(std::fabs(w[i] - before[i]), scale / 2.0F + 1e-6F);
    }
}

TEST(QuantizationFault, DeterministicAndRngFree) {
    const QuantizationFault fault(4);
    auto a = ramp_weights(128);
    auto b = a;
    Rng ra(11);
    Rng rb(999);  // different stream: must not matter
    fault.perturb(a, ra);
    fault.perturb(b, rb);
    EXPECT_EQ(a, b);

    // Idempotent: quantizing a quantized buffer changes nothing (maxabs is
    // preserved exactly, so the grid is identical).
    auto c = a;
    fault.perturb(c, ra);
    EXPECT_EQ(c, a);
}

TEST(QuantizationFault, AllZeroSpanStaysZero) {
    const QuantizationFault fault(8);
    std::vector<float> w(32, 0.0F);
    Rng rng(12);
    fault.perturb(w, rng);
    for (float v : w) EXPECT_FLOAT_EQ(v, 0.0F);
}

// ---------------------------------------------------- int12 boundaries ----

using bayesft::testing::runnable_tiers;

/// The 12-bit grid step used below: a power of two, so every code times
/// it, and every half step, is exact in float.  A span whose max|w| is
/// 2047 steps has exactly this scale.
constexpr float kStep12 = 0x1.0p-10F;

/// `pattern` repeated to 37 weights (in steps), so each tier's vector body
/// and its scalar tail both see every value.
std::vector<float> int12_span(const std::vector<float>& pattern) {
    std::vector<float> w(37);
    for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = pattern[i % pattern.size()] * kStep12;
    }
    return w;
}

/// QuantizationFault(12) against the DAC12 appnote's 12-bit
/// two's-complement word (SNIPPETS.md): full scale is +/-2047, ties round
/// away from zero, and the symmetric grid never emits -2048.
TEST(Int12Boundaries, QuantizationFaultCodesOnEveryTier) {
    const std::vector<float> steps = {2047.0F, -2047.0F, 2046.5F, -2046.5F,
                                      0.5F,    -0.5F,    1.5F,    -1.5F,
                                      0.0F,    2046.49F};
    const std::vector<float> codes = {2047.0F, -2047.0F, 2047.0F, -2047.0F,
                                      1.0F,    -1.0F,    2.0F,    -2.0F,
                                      0.0F,    2046.0F};
    const QuantizationFault fault(12);
    for (const simd::Tier t : runnable_tiers()) {
        simd::TierOverride tier(t);
        std::vector<float> w = int12_span(steps);
        Rng rng(13);
        fault.perturb(w, rng);
        for (std::size_t i = 0; i < w.size(); ++i) {
            EXPECT_EQ(w[i] / kStep12, codes[i % codes.size()])
                << "weight " << steps[i % steps.size()] << " steps, tier "
                << simd::tier_name(t);
        }

        // Random weights pinned to max|w| = 2047 steps by a -2047 entry:
        // no code below -2047.
        Rng data(14);
        std::vector<float> r(1000);
        for (float& v : r) {
            v = static_cast<float>(data.uniform(-2047.0, 2047.0)) * kStep12;
        }
        r[500] = -2047.0F * kStep12;
        fault.perturb(r, rng);
        float lowest = 0.0F;
        for (const float v : r) lowest = std::min(lowest, v / kStep12);
        EXPECT_EQ(lowest, -2047.0F) << simd::tier_name(t);
    }
}

/// BitFlipFault(1.0, 12) flips all 12 bits of each code c, giving -c-1:
/// 0 -> -1 (word 0xFFF, the appnote's -1), 2047 -> -2048 (0x800) and
/// -2047 -> 2046.
TEST(Int12Boundaries, BitFlipFaultComplementsEveryCodeOnEveryTier) {
    const std::vector<float> steps = {0.0F, 2047.0F, -2047.0F, 1.0F, -1.0F};
    const std::vector<int> flipped = {-1, -2048, 2046, -2, 0};
    const std::vector<int> words = {0xFFF, 0x800, 0x7FE, 0xFFE, 0x000};
    const BitFlipFault fault(1.0, 12);
    for (const simd::Tier t : runnable_tiers()) {
        simd::TierOverride tier(t);
        std::vector<float> w = int12_span(steps);
        Rng rng(15);
        fault.perturb(w, rng);
        for (std::size_t i = 0; i < w.size(); ++i) {
            const float code = w[i] / kStep12;
            const std::size_t k = i % steps.size();
            EXPECT_EQ(code, static_cast<float>(flipped[k]))
                << "code " << steps[k] << ", tier " << simd::tier_name(t);
            EXPECT_EQ(static_cast<int>(code) & 0xFFF, words[k])
                << "code " << steps[k] << ", tier " << simd::tier_name(t);
        }
    }
}

// ----------------------------------------------------- ComposedFault ----

TEST(ComposedFault, OrderMatters) {
    // zero-then-noise leaves pure noise; noise-then-zero leaves zeros.
    auto make_chain = [](bool zero_first) {
        std::vector<std::unique_ptr<FaultModel>> stages;
        if (zero_first) {
            stages.push_back(std::make_unique<StuckAtFault>(1.0, 0.0));
            stages.push_back(std::make_unique<GaussianAdditiveDrift>(0.5));
        } else {
            stages.push_back(std::make_unique<GaussianAdditiveDrift>(0.5));
            stages.push_back(std::make_unique<StuckAtFault>(1.0, 0.0));
        }
        return ComposedFault(std::move(stages));
    };
    const ComposedFault zero_then_noise = make_chain(true);
    const ComposedFault noise_then_zero = make_chain(false);

    const Rng base(13);
    auto a = ramp_weights(64);
    auto b = a;
    Rng ra = base.fork(0);
    Rng rb = base.fork(0);
    zero_then_noise.perturb(a, ra);
    noise_then_zero.perturb(b, rb);

    for (float v : b) EXPECT_FLOAT_EQ(v, 0.0F);
    bool any_nonzero = false;
    for (float v : a) any_nonzero = any_nonzero || v != 0.0F;
    EXPECT_TRUE(any_nonzero);
    EXPECT_NE(a, b);
}

TEST(ComposedFault, DescribeAndParamsConcatenateStages) {
    const std::unique_ptr<FaultModel> deploy = make_composed_deploy();
    const std::string text = deploy->describe();
    EXPECT_NE(text.find("Quantization"), std::string::npos);
    EXPECT_NE(text.find("GaussianVariation"), std::string::npos);
    EXPECT_NE(text.find("->"), std::string::npos);
    // {bits} + {sigma} + {sigma}
    EXPECT_EQ(deploy->params().size(), 3U);
}

TEST(ComposedFault, EmptyChainIsIdentityAndNullStageThrows) {
    // An empty stage list is the identity perturbation.
    const ComposedFault empty(std::vector<std::unique_ptr<FaultModel>>{});
    auto w = ramp_weights(32);
    const auto before = w;
    Rng rng(14);
    empty.perturb(w, rng);
    EXPECT_EQ(w, before);
    EXPECT_EQ(empty.params().size(), 0U);

    std::vector<std::unique_ptr<FaultModel>> stages;
    stages.push_back(nullptr);
    EXPECT_THROW(ComposedFault(std::move(stages)), std::invalid_argument);
}

// ------------------------------------- thread-count-invariant MC eval ----

class FaultEvalFixture : public ::testing::Test {
protected:
    void SetUp() override {
        Rng rng(21);
        blobs_ = data::make_blobs(256, 3, 4.0, 0.4, rng);
        model_ = std::make_unique<nn::Sequential>();
        model_->emplace<nn::Linear>(2, 24, rng);
        model_->emplace<nn::ReLU>();
        model_->emplace<nn::Linear>(24, 3, rng);
        nn::TrainConfig config;
        config.epochs = 8;
        nn::train_classifier(*model_, blobs_.images, blobs_.labels, config,
                             rng);
    }
    data::Dataset blobs_;
    std::unique_ptr<nn::Sequential> model_;
};

TEST_F(FaultEvalFixture, EveryModelIsThreadCountInvariant) {
    for (const auto& fault : zoo()) {
        Rng serial_rng(31);
        const auto serial = evaluate_under_faults(
            *model_, blobs_.images, blobs_.labels, *fault, 8, serial_rng,
            1);
        Rng parallel_rng(31);
        const auto parallel = evaluate_under_faults(
            *model_, blobs_.images, blobs_.labels, *fault, 8, parallel_rng,
            4);
        EXPECT_EQ(serial.samples, parallel.samples) << fault->describe();
        EXPECT_DOUBLE_EQ(serial.mean_accuracy, parallel.mean_accuracy)
            << fault->describe();
    }
}

TEST_F(FaultEvalFixture, WeightsRestoredAfterEveryModel) {
    const Tensor before = model_->parameters()[0]->value;
    for (const auto& fault : zoo()) {
        Rng rng(32);
        evaluate_under_faults(*model_, blobs_.images, blobs_.labels, *fault,
                              3, rng);
        EXPECT_TRUE(model_->parameters()[0]->value.equals(before))
            << fault->describe();
    }
}

TEST_F(FaultEvalFixture, FaultUtilityMarginalizesOverConfiguredModels) {
    core::ObjectiveConfig benign;
    benign.faults.push_back(std::make_shared<QuantizationFault>(8));
    benign.mc_samples = 2;
    core::ObjectiveConfig harsh;
    harsh.faults.push_back(std::make_shared<StuckAtFault>(0.6, 0.5));
    harsh.mc_samples = 2;

    Rng rng_a(33);
    Rng rng_b(33);
    const double benign_utility = core::fault_utility(
        *model_, blobs_.images, blobs_.labels, benign, rng_a);
    const double harsh_utility = core::fault_utility(
        *model_, blobs_.images, blobs_.labels, harsh, rng_b);
    EXPECT_GT(benign_utility, harsh_utility);
}

TEST(ObjectiveDigest, SeparatesFaultConfigurations) {
    core::ObjectiveConfig drift_only;  // sigma-grid default
    core::ObjectiveConfig stuckat;
    stuckat.faults.push_back(std::make_shared<StuckAtFault>(0.1, 0.25));
    core::ObjectiveConfig stuckat_other;
    stuckat_other.faults.push_back(
        std::make_shared<StuckAtFault>(0.2, 0.25));

    const std::uint64_t a = core::objective_digest(drift_only);
    const std::uint64_t b = core::objective_digest(stuckat);
    const std::uint64_t c = core::objective_digest(stuckat_other);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_EQ(b, core::objective_digest(stuckat));  // stable
}

}  // namespace
}  // namespace bayesft::fault
