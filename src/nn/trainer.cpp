#include "nn/trainer.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace bayesft::nn {

Batch gather_batch(const Tensor& images, const std::vector<int>& labels,
                   const std::vector<std::size_t>& order, std::size_t lo,
                   std::size_t hi) {
    if (lo >= hi || hi > order.size()) {
        throw std::invalid_argument("gather_batch: bad range");
    }
    const std::size_t row = images.size() / images.dim(0);
    std::vector<std::size_t> shape = images.shape();
    shape[0] = hi - lo;
    Batch batch{Tensor(shape), {}};
    batch.labels.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t src = order[i];
        std::copy_n(images.data() + src * row, row,
                    batch.images.data() + (i - lo) * row);
        batch.labels.push_back(labels[src]);
    }
    return batch;
}

std::vector<EpochStats> train_classifier(
    Module& model, const Tensor& images, const std::vector<int>& labels,
    const TrainConfig& config, Rng& rng,
    const std::function<void(std::size_t, const EpochStats&)>& on_epoch) {
    if (images.dim(0) != labels.size()) {
        throw std::invalid_argument("train_classifier: size mismatch");
    }
    if (images.dim(0) == 0) {
        throw std::invalid_argument("train_classifier: empty dataset");
    }
    const std::size_t n = images.dim(0);
    const std::size_t batch = std::min(config.batch_size, n);

    std::unique_ptr<Optimizer> opt;
    if (config.use_adam) {
        opt = std::make_unique<Adam>(model.parameters(), config.learning_rate,
                                     0.9, 0.999, 1e-8, config.weight_decay);
    } else {
        opt = std::make_unique<Sgd>(model.parameters(), config.learning_rate,
                                    config.momentum, config.weight_decay);
    }

    std::vector<EpochStats> history;
    history.reserve(config.epochs);
    double lr = config.learning_rate;
    model.set_training(true);
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        const std::vector<std::size_t> order = rng.permutation(n);
        double loss_sum = 0.0;
        std::size_t hit = 0;
        std::size_t batches = 0;
        for (std::size_t lo = 0, hi = 0; lo < n; lo = hi) {
            hi = std::min(lo + batch, n);
            // A trailing single sample joins this batch: one row gives
            // BatchNorm no training statistics.
            if (batch > 1 && n - hi == 1) hi = n;
            Batch b = gather_batch(images, labels, order, lo, hi);
            opt->zero_grad();
            const Tensor logits = model.forward(b.images);
            const LossResult loss = cross_entropy(logits, b.labels);
            model.backward_params(loss.grad);
            opt->step();
            loss_sum += loss.value;
            ++batches;
            const auto preds = argmax_rows(logits);
            for (std::size_t i = 0; i < b.labels.size(); ++i) {
                if (preds[i] == static_cast<std::size_t>(b.labels[i])) ++hit;
            }
        }
        EpochStats stats;
        stats.mean_loss = loss_sum / static_cast<double>(batches);
        stats.train_accuracy =
            static_cast<double>(hit) / static_cast<double>(n);
        history.push_back(stats);
        if (on_epoch) on_epoch(epoch, stats);
        if (config.lr_decay != 1.0) {
            lr *= config.lr_decay;
            if (auto* sgd = dynamic_cast<Sgd*>(opt.get())) {
                sgd->set_learning_rate(lr);
            } else if (auto* adam = dynamic_cast<Adam*>(opt.get())) {
                adam->set_learning_rate(lr);
            }
        }
    }
    return history;
}

Tensor predict_logits(Module& model, const Tensor& images,
                      std::size_t batch_size) {
    const std::size_t n = images.dim(0);
    const bool was_training = model.training();
    model.set_training(false);
    Tensor logits;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::vector<int> dummy_labels(n, 0);
    for (std::size_t lo = 0; lo < n; lo += batch_size) {
        const std::size_t hi = std::min(lo + batch_size, n);
        Batch b = gather_batch(images, dummy_labels, order, lo, hi);
        const Tensor out = model.forward(b.images);
        if (logits.empty()) {
            logits = Tensor({n, out.dim(1)});
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
