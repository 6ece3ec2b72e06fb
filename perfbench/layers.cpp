#include "layers.hpp"

#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace bayesft;

namespace {

/// One shuffled SGD epoch, the loop body of nn::train_classifier.
double mirror_epoch(nn::Module& model, const data::Dataset& train,
                    nn::Optimizer& optimizer, std::size_t batch_size,
                    Rng& rng) {
    const double start = now_s();
    const std::size_t n = train.size();
    const std::size_t batch = std::min(batch_size, n);
    model.set_training(true);
    const std::vector<std::size_t> order = rng.permutation(n);
    for (std::size_t lo = 0; lo < n; lo += batch) {
        const std::size_t hi = std::min(lo + batch, n);
        nn::Batch b =
            nn::gather_batch(train.images, train.labels, order, lo, hi);
        nn::LossResult loss;
        {
            Span span("nn.step");
            optimizer.zero_grad();
        }
        {
            Span span("nn.fwd");
            const Tensor logits = model.forward(b.images);
            loss = nn::cross_entropy(logits, b.labels);
        }
        {
            Span span("nn.bwd");
            model.backward(loss.grad);
        }
        {
            Span span("nn.step");
            optimizer.step();
        }
    }
    return now_s() - start;
}

// ------------------------------------------------------- tensor replay --

/// A conv layer of LeNet-5 (models/zoo.cpp, make_lenet5) on 16x16 digits
/// at the training batch of fig3b_lenet_mnist.
struct ConvLayer {
    std::size_t in_c, out_c, kernel, pad, size;
    ConvGeometry geometry() const {
        ConvGeometry g;
        g.channels = in_c;
        g.in_h = g.in_w = size;
        g.kernel_h = g.kernel_w = kernel;
        g.pad = pad;
        return g;
    }
    std::size_t patch() const { return in_c * kernel * kernel; }
    std::size_t positions() const {
        const ConvGeometry g = geometry();
        return g.out_h() * g.out_w();
    }
};

constexpr std::size_t kBatch = 32;
const ConvLayer kLenet[] = {{1, 6, 5, 2, 16}, {6, 16, 3, 1, 8}};
/// Linear widths of the search MLP (256 inputs, two 64-wide hidden layers,
/// 10 classes).
const std::size_t kMlpWidths[] = {256, 64, 64, 10};

struct Shape {
    std::size_t m, k, n;
};

/// Runs `rep` until at least `min_s` has passed (after one warm-up call);
/// returns seconds per rep.
template <typename Fn>
double time_per_rep(Fn&& rep, double min_s = 0.15) {
    rep();
    std::size_t reps = 0;
    const double start = now_s();
    double elapsed = 0.0;
    while (reps < 3 || elapsed < min_s) {
        rep();
        ++reps;
        elapsed = now_s() - start;
    }
    return elapsed / static_cast<double>(reps);
}

void gemm_class(Result& result, const std::string& name,
                const std::vector<Shape>& shapes, Rng& rng) {
    std::vector<Tensor> a, b, c;
    double flops = 0.0, bytes = 0.0;
    for (const Shape& s : shapes) {
        a.push_back(Tensor::randn({s.m, s.k}, rng));
        b.push_back(Tensor::randn({s.k, s.n}, rng));
        c.push_back(Tensor::zeros({s.m, s.n}));
        flops += 2.0 * s.m * s.k * s.n;
        bytes += 4.0 * (s.m * s.k + s.k * s.n + 2.0 * s.m * s.n);
    }
    const double per_rep = time_per_rep([&] {
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            gemm_accumulate(a[i].data(), b[i].data(), c[i].data(),
                            shapes[i].m, shapes[i].k, shapes[i].n);
        }
    });
    result.metrics["tensor." + name + ".gflops"] = flops / per_rep / 1e9;
    result.metrics["tensor." + name + ".flops"] = flops;
    result.metrics["tensor." + name + ".bytes"] = bytes;
}

}  // namespace

void tensor_replay(Result& result) {
    Rng rng(7);
    std::vector<Shape> fwd, dw, dx;
    for (const ConvLayer& layer : kLenet) {
        const std::size_t cols = kBatch * layer.positions();
        fwd.push_back({layer.out_c, layer.patch(), cols});  // W @ cols
        dw.push_back({layer.out_c, cols, layer.patch()});   // G @ cols^T
        dx.push_back({layer.patch(), layer.out_c, cols});   // W^T @ G
    }
    std::vector<Shape> mlp;
    for (std::size_t i = 0; i + 1 < std::size(kMlpWidths); ++i) {
        mlp.push_back({kBatch, kMlpWidths[i], kMlpWidths[i + 1]});
    }
    gemm_class(result, "gemm_fwd", fwd, rng);
    gemm_class(result, "gemm_dw", dw, rng);
    gemm_class(result, "gemm_dx", dx, rng);
    gemm_class(result, "gemm_mlp", mlp, rng);

    // Unfold, fold and transpose the batch exactly as Conv2d lays it out:
    // one [patch, batch * positions] matrix, sample s in column slice s.
    std::vector<Tensor> images, cols, grads, colsT;
    double im2col_bytes = 0.0, col2im_bytes = 0.0, transpose_bytes = 0.0;
    for (const ConvLayer& layer : kLenet) {
        const std::size_t image = layer.in_c * layer.size * layer.size;
        const std::size_t gp = kBatch * layer.positions();
        images.push_back(Tensor::randn({kBatch, image}, rng));
        cols.push_back(Tensor::randn({layer.patch(), gp}, rng));
        grads.push_back(Tensor::zeros({kBatch, image}));
        colsT.push_back(Tensor::zeros({gp, layer.patch()}));
        im2col_bytes += 4.0 * (kBatch * image + layer.patch() * gp);
        col2im_bytes += 4.0 * (layer.patch() * gp + 2.0 * kBatch * image);
        transpose_bytes += 2.0 * 4.0 * layer.patch() * gp;
    }
    const auto each_layer = [&](auto&& fn) {
        for (std::size_t l = 0; l < std::size(kLenet); ++l) fn(l);
    };
    const double im2col_s = time_per_rep([&] {
        each_layer([&](std::size_t l) {
            const ConvGeometry g = kLenet[l].geometry();
            const std::size_t positions = kLenet[l].positions();
            const std::size_t image = images[l].size() / kBatch;
            for (std::size_t s = 0; s < kBatch; ++s) {
                im2col(images[l].data() + s * image, g,
                       cols[l].data() + s * positions, kBatch * positions);
            }
        });
    });
    const double col2im_s = time_per_rep([&] {
        each_layer([&](std::size_t l) {
            const ConvGeometry g = kLenet[l].geometry();
            const std::size_t positions = kLenet[l].positions();
            const std::size_t image = grads[l].size() / kBatch;
            for (std::size_t s = 0; s < kBatch; ++s) {
                col2im(cols[l].data() + s * positions, g,
                       grads[l].data() + s * image, kBatch * positions);
            }
        });
    });
    const double transpose_s = time_per_rep([&] {
        each_layer([&](std::size_t l) {
            transpose_into(cols[l].data(), kLenet[l].patch(),
                           kBatch * kLenet[l].positions(), colsT[l].data());
        });
    });
    result.metrics["tensor.im2col.gbps"] = im2col_bytes / im2col_s / 1e9;
    result.metrics["tensor.col2im.gbps"] = col2im_bytes / col2im_s / 1e9;
    result.metrics["tensor.transpose.gbps"] =
        transpose_bytes / transpose_s / 1e9;
}

EpochTimes measure_epochs(
    const std::function<models::ModelHandle(Rng&)>& make,
    const data::Dataset& train, const nn::TrainConfig& config,
    std::uint64_t seed) {
    constexpr int kEpochs = 3;
    EpochTimes times;
    Rng rng(seed);
    models::ModelHandle model = make(rng);
    nn::Sgd optimizer(model.net->parameters(), config.learning_rate,
                      config.momentum, config.weight_decay);

    std::vector<double> untraced, traced, fwd, bwd, step, covered, real;
    Trace::set_enabled(false);
    for (int e = 0; e < kEpochs; ++e) {
        untraced.push_back(
            mirror_epoch(*model.net, train, optimizer, config.batch_size, rng));
    }
    for (int e = 0; e < kEpochs; ++e) {
        Trace::reset();
        Trace::set_enabled(true);
        const double start = now_s();
        traced.push_back(
            mirror_epoch(*model.net, train, optimizer, config.batch_size, rng));
        Trace::set_enabled(false);
        const auto agg = Trace::aggregates();
        fwd.push_back(agg.at("nn.fwd").total_s);
        bwd.push_back(agg.at("nn.bwd").total_s);
        step.push_back(agg.at("nn.step").total_s);
        covered.push_back(covered_seconds(Trace::top_intervals(), start,
                                          start + traced.back()));
    }
    Trace::reset();
    nn::TrainConfig one_epoch = config;
    one_epoch.epochs = 1;
    for (int e = 0; e < kEpochs; ++e) {
        const double start = now_s();
        nn::train_classifier(*model.net, train.images, train.labels,
                             one_epoch, rng);
        real.push_back(now_s() - start);
    }
    times.untraced_s = median(untraced);
    times.traced_s = median(traced);
    times.fwd_s = median(fwd);
    times.bwd_s = median(bwd);
    times.step_s = median(step);
    times.covered_s = median(covered);
    times.train_s = median(real);
    return times;
}

double traced_fault_utility(nn::Module& model, const data::Dataset& data,
                            const core::ObjectiveConfig& objective,
                            Rng& rng) {
    Span span("fault.mc_eval");
    return core::fault_utility(model, data.images, data.labels, objective,
                               rng);
}

}  // namespace perfbench
