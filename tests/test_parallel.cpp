// Tests for the shared parallel-compute runtime: parallel_for index
// coverage under adversarial grain sizes, blocked-GEMM correctness against a
// naive oracle on rectangular shapes, Module::clone replication, and
// thread-count invariance of Monte-Carlo drift evaluation.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "data/toy.hpp"
#include "fault/drift.hpp"
#include "fault/evaluator.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/norm.hpp"
#include "tensor/ops.hpp"
#include "utils/parallel.hpp"
#include "utils/rng.hpp"

namespace bayesft {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    const std::size_t begin = 3, end = 1237;
    for (const std::size_t grain : {0UL, 1UL, 2UL, 3UL, 7UL, 16UL, 100UL,
                                    1233UL, 1234UL, 100000UL}) {
        std::vector<std::atomic<int>> hits(end);
        for (auto& h : hits) h.store(0);
        parallel_for(begin, end, grain,
                     [&](std::size_t lo, std::size_t hi) {
                         ASSERT_LE(lo, hi);
                         for (std::size_t i = lo; i < hi; ++i) {
                             hits[i].fetch_add(1);
                         }
                     });
        for (std::size_t i = 0; i < begin; ++i) {
            EXPECT_EQ(hits[i].load(), 0) << "grain " << grain << " idx " << i;
        }
        for (std::size_t i = begin; i < end; ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "grain " << grain << " idx " << i;
        }
    }
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
    bool called = false;
    parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
    parallel_for(7, 3, 1, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
    EXPECT_THROW(
        parallel_for(0, 64, 4,
                     [&](std::size_t, std::size_t hi) {
                         if (hi > 32) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunSerially) {
    std::atomic<int> inner_total{0};
    parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            parallel_for(0, 10, 1, [&](std::size_t l, std::size_t h) {
                inner_total.fetch_add(static_cast<int>(h - l));
            });
        }
    });
    EXPECT_EQ(inner_total.load(), 80);
}

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += static_cast<double>(a(i, kk)) * b(kk, j);
            }
            c(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

TEST(BlockedGemm, MatchesNaiveOnRectangularShapes) {
    // Shapes straddling every micro-tile boundary: single rows/columns,
    // just-under / exactly / just-over tile multiples, and skinny panels.
    const std::size_t shapes[][3] = {
        {1, 1, 1},   {1, 5, 1},    {2, 3, 4},    {3, 17, 9},
        {7, 7, 7},   {8, 16, 32},  {9, 33, 31},  {15, 64, 17},
        {16, 16, 16}, {17, 15, 33}, {33, 100, 65}, {40, 257, 48},
        {5, 300, 129}, {128, 9, 128},
    };
    Rng rng(42);
    for (const auto& s : shapes) {
        const Tensor a = Tensor::randn({s[0], s[1]}, rng);
        const Tensor b = Tensor::randn({s[1], s[2]}, rng);
        const Tensor expect = naive_matmul(a, b);
        EXPECT_TRUE(matmul(a, b).allclose(expect, 1e-3F))
            << s[0] << "x" << s[1] << "x" << s[2];
        // The transposed variants route through the same kernel.
        EXPECT_TRUE(matmul_tn(transpose(a), b).allclose(expect, 1e-3F));
        EXPECT_TRUE(matmul_nt(a, transpose(b)).allclose(expect, 1e-3F));
    }
}

TEST(RngFork, PureAndDistinctPerStream) {
    Rng rng(7);
    const Rng fork0 = rng.fork(0);
    Rng replay_a = rng.fork(0);
    Rng replay_b = fork0;
    EXPECT_EQ(replay_a(), replay_b());  // fork is a pure function
    Rng other = rng.fork(1);
    Rng base_copy = rng.fork(0);
    EXPECT_NE(other(), base_copy());  // distinct streams diverge
    // fork must not advance the parent.
    Rng fresh(7);
    EXPECT_EQ(rng(), fresh());
}

std::unique_ptr<nn::Sequential> make_cnn(Rng& rng) {
    auto model = std::make_unique<nn::Sequential>();
    model->emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng);
    model->emplace<nn::BatchNorm>(4);
    model->emplace<nn::ReLU>();
    model->emplace<nn::MaxPool2d>(2);
    model->emplace<nn::Flatten>();
    model->emplace<nn::Linear>(4 * 4 * 4, 3, rng);
    model->set_training(false);
    return model;
}

TEST(ModuleClone, ReplicaMatchesOriginalForward) {
    Rng rng(11);
    auto model = make_cnn(rng);
    const Tensor input = Tensor::randn({5, 2, 8, 8}, rng);
    auto replica = model->clone();
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->parameter_count(), model->parameter_count());
    EXPECT_FALSE(replica->training());
    EXPECT_TRUE(replica->forward(input).equals(model->forward(input)));
}

TEST(ModuleClone, UnreplicableChildPoisonsContainer) {
    class Opaque : public nn::Module {
    public:
        Tensor forward(Tensor input) override { return input; }
        Tensor backward(Tensor g) override { return g; }
        std::string name() const override { return "Opaque"; }
    };
    nn::Sequential model;
    model.emplace<nn::Identity>();
    model.add(std::make_unique<Opaque>());
    EXPECT_EQ(model.clone(), nullptr);
}

TEST(DriftEvaluation, ReportInvariantUnderThreadCount) {
    Rng rng(12);
    auto blobs = data::make_blobs(96, 3, 4.0, 0.4, rng);
    nn::Sequential model;
    model.emplace<nn::Linear>(2, 16, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Linear>(16, 3, rng);
    model.set_training(false);
    const fault::LogNormalDrift drift(0.6);

    std::vector<double> reference;
    for (const std::size_t threads : {1UL, 2UL, 3UL, 4UL, 7UL}) {
        Rng eval_rng(2024);
        const auto report = fault::evaluate_under_faults(
            model, blobs.images, blobs.labels, drift, 9, eval_rng, threads);
        ASSERT_EQ(report.samples.size(), 9U);
        if (reference.empty()) {
            reference = report.samples;
        } else {
            EXPECT_EQ(report.samples, reference)
                << "divergent at " << threads << " threads";
        }
    }
}

TEST(DriftEvaluation, ConvModelInvariantUnderThreadCount) {
    Rng rng(13);
    auto model = make_cnn(rng);
    const Tensor images = Tensor::randn({24, 2, 8, 8}, rng);
    std::vector<int> labels(24);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<int>(rng.uniform_int(std::uint64_t{3}));
    }
    const fault::LogNormalDrift drift(0.5);
    Rng rng_serial(5), rng_parallel(5);
    const auto serial = fault::evaluate_under_faults(
        *model, images, labels, drift, 6, rng_serial, 1);
    const auto parallel = fault::evaluate_under_faults(
        *model, images, labels, drift, 6, rng_parallel, 4);
    EXPECT_EQ(serial.samples, parallel.samples);
    // The parent generator must advance identically on both paths.
    EXPECT_EQ(rng_serial(), rng_parallel());
}

TEST(DriftEvaluation, ParallelPathRestoresWeights) {
    Rng rng(14);
    nn::Sequential model;
    model.emplace<nn::Linear>(2, 4, rng);
    model.set_training(false);
    const Tensor before = model.parameters()[0]->value;
    auto blobs = data::make_blobs(32, 2, 4.0, 0.4, rng);
    fault::evaluate_under_faults(model, blobs.images, blobs.labels,
                                 fault::LogNormalDrift(1.0), 5, rng, 4);
    EXPECT_TRUE(model.parameters()[0]->value.equals(before));
}

}  // namespace
}  // namespace bayesft
