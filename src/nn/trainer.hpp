#pragma once
// The mini-batch training loop and the classification trainer on top of
// it, plus evaluation helpers.  This is the inner "optimize theta" loop of
// Algorithm 1 (lines 5-7); ERM, AWP, FTNA and the grid detector all train
// through train_epochs and differ only in their step.

#include <functional>
#include <span>
#include <vector>

#include "nn/module.hpp"
#include "nn/optimizer.hpp"
#include "utils/rng.hpp"

namespace bayesft::nn {

/// Configuration of one training run.
struct TrainConfig {
    std::size_t epochs = 5;
    std::size_t batch_size = 32;
    double learning_rate = 0.05;
    double momentum = 0.9;
    double weight_decay = 0.0;
};

/// The rows `indices` of `source` [N, ...], in that order, as one
/// [indices.size(), ...] tensor (trailing dims kept).
Tensor gather_rows(const Tensor& source,
                   std::span<const std::size_t> indices);

/// The labels of rows `indices`, in that order.
std::vector<int> gather_labels(const std::vector<int>& labels,
                               std::span<const std::size_t> indices);

/// Extracts one batch of rows `indices[lo, hi)` from images [N, ...]
/// (keeping trailing dims) and the matching labels.
struct Batch {
    Tensor images;
    std::vector<int> labels;
};
Batch gather_batch(const Tensor& images, const std::vector<int>& labels,
                   const std::vector<std::size_t>& order, std::size_t lo,
                   std::size_t hi);

/// One optimizer step's work: forward, loss and backward_params on
/// `batch`, the inputs of training rows `rows`; returns the batch loss.
/// The step owns the batch and can move it into the model's forward.
using TrainStep =
    std::function<double(Tensor batch, std::span<const std::size_t> rows)>;

/// The training loop.  Each epoch draws one rng.permutation(n) of the n
/// rows of `inputs` and cuts it into runs of batch_size rows; a trailing
/// single row joins the run before it (batch_size > 1), so BatchNorm
/// always sees >= 2 rows.  Per run: optimizer.zero_grad(), step(batch,
/// rows), optimizer.step().  Returns the last epoch's mean batch loss.
/// Throws std::invalid_argument on an empty set or batch_size 0.
double train_epochs(Module& model, Optimizer& optimizer, const Tensor& inputs,
                    std::size_t epochs, std::size_t batch_size, Rng& rng,
                    const TrainStep& step);

/// Trains `model` on (images, labels): SGD on cross-entropy through
/// train_epochs.  Returns the last epoch's mean loss.
double train_classifier(Module& model, const Tensor& images,
                        const std::vector<int>& labels,
                        const TrainConfig& config, Rng& rng);

/// Classification accuracy in eval mode (batched to bound memory).
double evaluate_accuracy(Module& model, const Tensor& images,
                         const std::vector<int>& labels,
                         std::size_t batch_size = 256);

/// Mean cross-entropy loss in eval mode.
double evaluate_loss(Module& model, const Tensor& images,
                     const std::vector<int>& labels,
                     std::size_t batch_size = 256);

/// Runs the model over all rows and returns the logits [N, K].
Tensor predict_logits(Module& model, const Tensor& images,
                      std::size_t batch_size = 256);

}  // namespace bayesft::nn
