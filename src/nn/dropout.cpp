#include "nn/dropout.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace bayesft::nn {

namespace {

void check_rate(double rate, const char* who) {
    if (!(rate >= 0.0) || rate >= 1.0) {
        throw std::invalid_argument(std::string(who) +
                                    ": rate must be in [0, 1), got " +
                                    std::to_string(rate));
    }
}

// SELU saturation value: -lambda * alpha from Klambauer et al.
constexpr float kAlphaPrime = -1.7580993408473766F;

}  // namespace

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
    check_rate(rate, "Dropout");
}

void Dropout::set_rate(double rate) {
    check_rate(rate, "Dropout::set_rate");
    rate_ = rate;
}

Tensor Dropout::forward(Tensor input) {
    if (!training() || rate_ == 0.0) {
        mask_ = Tensor();  // signals pass-through for backward
        return input;
    }
    const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
    mask_ = Tensor(input.shape(), for_overwrite);
    float* m = mask_.data();
    float* o = input.data();
    for (std::size_t i = 0; i < input.size(); ++i) {
        if (rng_.bernoulli(rate_)) {
            m[i] = 0.0F;
            o[i] = 0.0F;
        } else {
            m[i] = keep_scale;
            o[i] *= keep_scale;
        }
    }
    return input;
}

Tensor Dropout::backward(Tensor grad_output) {
    if (mask_.empty()) return grad_output;
    if (grad_output.shape() != mask_.shape()) {
        throw std::invalid_argument("Dropout::backward: shape mismatch");
    }
    grad_output.mul_(mask_);
    return grad_output;
}

std::unique_ptr<Module> Dropout::clone() const {
    auto copy = std::make_unique<Dropout>(rate_);
    copy->rng_ = rng_;  // replicas draw the same mask stream
    copy->training_ = training_;
    return copy;
}

std::string Dropout::name() const {
    std::ostringstream os;
    os << "Dropout(" << rate_ << ")";
    return os.str();
}

AlphaDropout::AlphaDropout(double rate, std::uint64_t seed)
    : rate_(rate), rng_(seed) {
    check_rate(rate, "AlphaDropout");
}

void AlphaDropout::set_rate(double rate) {
    check_rate(rate, "AlphaDropout::set_rate");
    rate_ = rate;
}

Tensor AlphaDropout::forward(Tensor input) {
    if (!training() || rate_ == 0.0) {
        mask_ = Tensor();
        return input;
    }
    const double p = rate_;
    // Affine correction keeping zero mean / unit variance for SELU-normalized
    // inputs: a = ((1-p) * (1 + p * alpha'^2))^(-1/2), b = -a * p * alpha'.
    const double a =
        1.0 / std::sqrt((1.0 - p) * (1.0 + p * kAlphaPrime * kAlphaPrime));
    const double b = -a * p * kAlphaPrime;
    scale_a_ = static_cast<float>(a);

    mask_ = Tensor(input.shape(), for_overwrite);
    float* m = mask_.data();
    float* o = input.data();
    for (std::size_t i = 0; i < input.size(); ++i) {
        if (rng_.bernoulli(p)) {
            m[i] = 0.0F;
            o[i] = kAlphaPrime;
        } else {
            m[i] = 1.0F;
        }
        o[i] = static_cast<float>(a) * o[i] + static_cast<float>(b);
    }
    return input;
}

Tensor AlphaDropout::backward(Tensor grad_output) {
    if (mask_.empty()) return grad_output;
    if (grad_output.shape() != mask_.shape()) {
        throw std::invalid_argument("AlphaDropout::backward: shape mismatch");
    }
    // y = a * (kept ? x : alpha') + b  =>  dy/dx = a on kept positions.
    grad_output.mul_(mask_);
    grad_output.mul_scalar_(scale_a_);
    return grad_output;
}

std::unique_ptr<Module> AlphaDropout::clone() const {
    auto copy = std::make_unique<AlphaDropout>(rate_);
    copy->rng_ = rng_;
    copy->training_ = training_;
    return copy;
}

std::string AlphaDropout::name() const {
    std::ostringstream os;
    os << "AlphaDropout(" << rate_ << ")";
    return os.str();
}

std::vector<Dropout*> collect_dropout_layers(Module& root) {
    std::vector<Dropout*> sites;
    visit(root, [&](Module& node) {
        if (auto* dropout = dynamic_cast<Dropout*>(&node)) {
            sites.push_back(dropout);
        }
    });
    return sites;
}

}  // namespace bayesft::nn
