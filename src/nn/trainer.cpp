#include "nn/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace bayesft::nn {

Tensor gather_rows(const Tensor& source,
                   std::span<const std::size_t> indices) {
    const std::size_t n = source.dim(0);
    const std::size_t row = n == 0 ? 0 : source.size() / n;
    std::vector<std::size_t> shape = source.shape();
    shape[0] = indices.size();
    Tensor out(shape, for_overwrite);
    for (std::size_t i = 0; i < indices.size(); ++i) {
        if (indices[i] >= n) {
            throw std::out_of_range("gather_rows: row index out of range");
        }
        std::copy_n(source.data() + indices[i] * row, row,
                    out.data() + i * row);
    }
    return out;
}

std::vector<int> gather_labels(const std::vector<int>& labels,
                               std::span<const std::size_t> indices) {
    std::vector<int> out;
    out.reserve(indices.size());
    for (std::size_t row : indices) out.push_back(labels.at(row));
    return out;
}

Batch gather_batch(const Tensor& images, const std::vector<int>& labels,
                   const std::vector<std::size_t>& order, std::size_t lo,
                   std::size_t hi) {
    if (lo >= hi || hi > order.size()) {
        throw std::invalid_argument("gather_batch: bad range");
    }
    const std::span<const std::size_t> rows(order.data() + lo, hi - lo);
    return {gather_rows(images, rows), gather_labels(labels, rows)};
}

double train_epochs(Module& model, Optimizer& optimizer, const Tensor& inputs,
                    std::size_t epochs, std::size_t batch_size, Rng& rng,
                    const TrainStep& step) {
    const std::size_t n = inputs.dim(0);
    if (n == 0) throw std::invalid_argument("train_epochs: empty dataset");
    if (batch_size == 0) {
        throw std::invalid_argument("train_epochs: batch_size must be > 0");
    }
    const std::size_t batch = std::min(batch_size, n);
    model.set_training(true);
    double mean_loss = 0.0;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        const std::vector<std::size_t> order = rng.permutation(n);
        double loss_sum = 0.0;
        std::size_t batches = 0;
        for (std::size_t lo = 0, hi = 0; lo < n; lo = hi) {
            hi = std::min(lo + batch, n);
            // A trailing single row joins this run: one row gives
            // BatchNorm no training statistics.
            if (batch > 1 && n - hi == 1) hi = n;
            const std::span<const std::size_t> rows(order.data() + lo,
                                                    hi - lo);
            optimizer.zero_grad();
            loss_sum += step(gather_rows(inputs, rows), rows);
            optimizer.step();
            ++batches;
        }
        mean_loss = loss_sum / static_cast<double>(batches);
    }
    return mean_loss;
}

double train_classifier(Module& model, const Tensor& images,
                        const std::vector<int>& labels,
                        const TrainConfig& config, Rng& rng) {
    if (images.dim(0) != labels.size()) {
        throw std::invalid_argument("train_classifier: size mismatch");
    }
    Sgd optimizer(model.parameters(), config.learning_rate, config.momentum,
                  config.weight_decay);
    return train_epochs(
        model, optimizer, images, config.epochs, config.batch_size, rng,
        [&](Tensor batch, std::span<const std::size_t> rows) {
            LossResult loss = cross_entropy(model.forward(std::move(batch)),
                                            gather_labels(labels, rows));
            model.backward_params(std::move(loss.grad));
            return loss.value;
        });
}

Tensor predict_logits(Module& model, const Tensor& images,
                      std::size_t batch_size) {
    if (batch_size == 0) {
        throw std::invalid_argument("predict_logits: batch_size must be > 0");
    }
    const std::size_t n = images.dim(0);
    const bool was_training = model.training();
    model.set_training(false);
    Tensor logits;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t lo = 0; lo < n; lo += batch_size) {
        const std::size_t hi = std::min(lo + batch_size, n);
        const Tensor out = model.forward(gather_rows(
            images, std::span<const std::size_t>(order.data() + lo, hi - lo)));
        if (logits.empty()) {
            logits = Tensor({n, out.dim(1)}, for_overwrite);
        }
        std::copy_n(out.data(), out.size(), logits.data() + lo * out.dim(1));
    }
    model.set_training(was_training);
    return logits;
}

double evaluate_accuracy(Module& model, const Tensor& images,
                         const std::vector<int>& labels,
                         std::size_t batch_size) {
    const Tensor logits = predict_logits(model, images, batch_size);
    return accuracy(logits, labels);
}

double evaluate_loss(Module& model, const Tensor& images,
                     const std::vector<int>& labels, std::size_t batch_size) {
    const Tensor logits = predict_logits(model, images, batch_size);
    return cross_entropy(logits, labels).value;
}

}  // namespace bayesft::nn
