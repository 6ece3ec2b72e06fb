#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "fault/injector.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace bayesft::core {

void train_erm(models::ModelHandle& model, const data::Dataset& train_set,
               const nn::TrainConfig& config, Rng& rng) {
    model.set_dropout_rates(
        std::vector<double>(model.dropout_sites.size(), 0.0));
    nn::train_classifier(*model.net, train_set.images, train_set.labels,
                         config, rng);
}

void train_reram_v(models::ModelHandle& model, const data::Dataset& train_set,
                   const ReRamVConfig& config, Rng& rng) {
    train_erm(model, train_set, config.pretrain, rng);
    // Diagnose: the deployed device exhibits one concrete drift pattern.
    const fault::LogNormalDrift device_drift(config.device_sigma);
    fault::inject(*model.net, device_drift, rng);
    // Retrain on the drifted weights to compensate this pattern.
    nn::TrainConfig adapt = config.pretrain;
    adapt.epochs = config.adapt_epochs;
    nn::train_classifier(*model.net, train_set.images, train_set.labels,
                         adapt, rng);
}

void train_awp(models::ModelHandle& model, const data::Dataset& train_set,
               const AwpConfig& config, Rng& rng) {
    if (!(config.gamma >= 0.0)) {
        throw std::invalid_argument("train_awp: gamma must be >= 0");
    }
    model.set_dropout_rates(
        std::vector<double>(model.dropout_sites.size(), 0.0));
    nn::Module& net = *model.net;
    const auto params = net.parameters();
    nn::Sgd opt(params, config.train.learning_rate, config.train.momentum,
                config.train.weight_decay);
    nn::train_epochs(
        net, opt, train_set.images, config.train.epochs,
        config.train.batch_size, rng,
        [&](Tensor batch, std::span<const std::size_t> rows) {
            const std::vector<int> labels =
                nn::gather_labels(train_set.labels, rows);
            // Inner maximization: one layer-normalized ascent step.  The
            // batch is read twice, so this forward takes a copy.
            nn::LossResult loss =
                nn::cross_entropy(net.forward(batch), labels);
            net.backward_params(std::move(loss.grad));

            std::vector<Tensor> deltas;
            deltas.reserve(params.size());
            for (nn::Parameter* p : params) {
                Tensor delta = Tensor::zeros(p->value.shape());
                const double grad_norm =
                    std::sqrt(static_cast<double>(p->grad.squared_norm()));
                if (grad_norm > 1e-12) {
                    const double weight_norm = std::sqrt(
                        static_cast<double>(p->value.squared_norm()));
                    const float scale = static_cast<float>(
                        config.gamma * weight_norm / grad_norm);
                    delta = p->grad;
                    delta.mul_scalar_(scale);
                    p->value.add_(delta);
                }
                deltas.push_back(std::move(delta));
            }

            // Outer minimization: gradient at the perturbed point.
            opt.zero_grad();
            nn::LossResult adv_loss =
                nn::cross_entropy(net.forward(std::move(batch)), labels);
            net.backward_params(std::move(adv_loss.grad));

            // Restore the clean weights; the loop steps with the
            // adversarial gradients.
            for (std::size_t i = 0; i < params.size(); ++i) {
                params[i]->value.sub_(deltas[i]);
            }
            return adv_loss.value;
        });
}

FtnaClassifier::FtnaClassifier(models::ModelHandle model,
                               std::size_t num_classes, std::size_t code_bits,
                               Rng& rng)
    : model_(std::move(model)),
      num_classes_(num_classes),
      code_bits_(code_bits) {
    if (num_classes < 2) {
        throw std::invalid_argument("FtnaClassifier: need >= 2 classes");
    }
    if (code_bits < 2) {
        throw std::invalid_argument("FtnaClassifier: need >= 2 code bits");
    }
    // Distinct random codewords, one per class.
    std::set<std::vector<float>> seen;
    codebook_.reserve(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c) {
        std::vector<float> code(code_bits);
        do {
            for (float& bit : code) {
                bit = rng.bernoulli(0.5) ? 1.0F : 0.0F;
            }
        } while (!seen.insert(code).second);
        codebook_.push_back(code);
    }
}

void FtnaClassifier::train(const data::Dataset& train_set,
                           const nn::TrainConfig& config, Rng& rng) {
    nn::Module& net = *model_.net;
    model_.set_dropout_rates(
        std::vector<double>(model_.dropout_sites.size(), 0.0));
    nn::Sgd opt(net.parameters(), config.learning_rate, config.momentum,
                config.weight_decay);
    // Every row's codeword target, gathered per batch like the images.
    const std::size_t n = train_set.labels.size();
    Tensor codes({n, code_bits_});
    for (std::size_t i = 0; i < n; ++i) {
        const auto& code = codebook_.at(
            static_cast<std::size_t>(train_set.labels[i]));
        std::copy(code.begin(), code.end(), codes.data() + i * code_bits_);
    }
    nn::train_epochs(
        net, opt, train_set.images, config.epochs, config.batch_size, rng,
        [&](Tensor batch, std::span<const std::size_t> rows) {
            nn::LossResult loss = nn::bce_with_logits(
                net.forward(std::move(batch)), nn::gather_rows(codes, rows));
            net.backward_params(std::move(loss.grad));
            return loss.value;
        });
}

double FtnaClassifier::evaluate_accuracy(const Tensor& images,
                                         const std::vector<int>& labels) {
    const Tensor logits = nn::predict_logits(*model_.net, images);
    if (logits.dim(1) != code_bits_) {
        throw std::logic_error("FtnaClassifier: model emits wrong code width");
    }
    std::size_t hits = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        // Soft Hamming decode: L1 distance between the sigmoid outputs and
        // each codeword; nearest codeword wins.
        std::size_t best_class = 0;
        double best_dist = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < num_classes_; ++c) {
            double dist = 0.0;
            for (std::size_t bit = 0; bit < code_bits_; ++bit) {
                const double p =
                    1.0 / (1.0 + std::exp(-logits(i, bit)));
                dist += std::abs(p - codebook_[c][bit]);
            }
            if (dist < best_dist) {
                best_dist = dist;
                best_class = c;
            }
        }
        if (best_class == static_cast<std::size_t>(labels[i])) ++hits;
    }
    return labels.empty()
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(labels.size());
}

}  // namespace bayesft::core
