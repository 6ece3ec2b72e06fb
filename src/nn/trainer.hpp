#pragma once
// Mini-batch classification trainer: shuffled epochs of SGD on cross-entropy
// loss, plus evaluation helpers.  This is the inner "optimize theta" loop of
// Algorithm 1 (lines 5-7).

#include <functional>
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
    bool use_adam = false;
    /// Multiplied into the learning rate after each epoch (1 = constant).
    double lr_decay = 1.0;
};

/// Per-epoch training statistics.
struct EpochStats {
    double mean_loss = 0.0;
    double train_accuracy = 0.0;
};

/// Extracts one batch of rows `indices[lo, hi)` from images [N, ...]
/// (keeping trailing dims) and the matching labels.
struct Batch {
    Tensor images;
    std::vector<int> labels;
};
Batch gather_batch(const Tensor& images, const std::vector<int>& labels,
                   const std::vector<std::size_t>& order, std::size_t lo,
                   std::size_t hi);

/// Trains `model` on (images, labels) with cross-entropy.  Each epoch runs
/// shuffled batches of config.batch_size; a trailing single sample joins
/// the last full batch (batch_size > 1), so BatchNorm always sees >= 2 rows.
/// Returns per-epoch stats.  `on_epoch` (optional) observes progress.
std::vector<EpochStats> train_classifier(
    Module& model, const Tensor& images, const std::vector<int>& labels,
    const TrainConfig& config, Rng& rng,
    const std::function<void(std::size_t, const EpochStats&)>& on_epoch = {});

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
