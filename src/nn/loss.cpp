#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace bayesft::nn {

LossResult cross_entropy(const Tensor& logits,
                         const std::vector<int>& labels) {
    if (logits.rank() != 2) {
        throw std::invalid_argument("cross_entropy: logits must be [N, K]");
    }
    const std::size_t n = logits.dim(0), k = logits.dim(1);
    if (labels.size() != n) {
        throw std::invalid_argument("cross_entropy: label count mismatch");
    }
    const Tensor log_probs = log_softmax_rows(logits);
    LossResult result;
    result.grad = Tensor({n, k}, for_overwrite);
    double total = 0.0;
    const float inv_n = 1.0F / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int label = labels[i];
        if (label < 0 || static_cast<std::size_t>(label) >= k) {
            throw std::invalid_argument("cross_entropy: label out of range");
        }
        total -= log_probs(i, static_cast<std::size_t>(label));
        for (std::size_t j = 0; j < k; ++j) {
            const float p = std::exp(log_probs(i, j));
            result.grad(i, j) =
                (p - (j == static_cast<std::size_t>(label) ? 1.0F : 0.0F)) *
                inv_n;
        }
    }
    result.value = total / static_cast<double>(n);
    return result;
}

LossResult bce_with_logits(const Tensor& logits, const Tensor& targets) {
    if (logits.shape() != targets.shape()) {
        throw std::invalid_argument("bce_with_logits: shape mismatch");
    }
    if (logits.empty()) {
        throw std::invalid_argument("bce_with_logits: empty input");
    }
    LossResult result;
    result.grad = Tensor(logits.shape(), for_overwrite);
    double total = 0.0;
    const std::size_t count = logits.size();
    const float inv = 1.0F / static_cast<float>(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double z = logits[i];
        const double t = targets[i];
        // Numerically stable: log(1 + e^-|z|) + max(z, 0) - z*t.
        total += std::log1p(std::exp(-std::abs(z))) + std::max(z, 0.0) -
                 z * t;
        const double sigma = 1.0 / (1.0 + std::exp(-z));
        result.grad[i] = static_cast<float>(sigma - t) * inv;
    }
    result.value = total / static_cast<double>(count);
    return result;
}

LossResult mse(const Tensor& pred, const Tensor& target,
               const Tensor& weights) {
    if (pred.shape() != target.shape()) {
        throw std::invalid_argument("mse: shape mismatch");
    }
    if (pred.empty()) {
        throw std::invalid_argument("mse: empty input");
    }
    const bool weighted = !weights.empty();
    if (weighted && weights.shape() != pred.shape()) {
        throw std::invalid_argument("mse: weight shape mismatch");
    }
    LossResult result;
    result.grad = Tensor(pred.shape(), for_overwrite);
    double total = 0.0;
    const std::size_t count = pred.size();
    const float inv = 1.0F / static_cast<float>(count);
    for (std::size_t i = 0; i < count; ++i) {
        const float w = weighted ? weights[i] : 1.0F;
        const float d = pred[i] - target[i];
        total += static_cast<double>(w) * d * d;
        result.grad[i] = 2.0F * w * d * inv;
    }
    result.value = total / static_cast<double>(count);
    return result;
}

}  // namespace bayesft::nn
