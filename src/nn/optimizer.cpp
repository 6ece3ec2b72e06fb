#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace bayesft::nn {

Optimizer::Optimizer(std::vector<Parameter*> params)
    : params_(std::move(params)) {
    for (const Parameter* p : params_) {
        if (p == nullptr) {
            throw std::invalid_argument("Optimizer: null parameter");
        }
    }
}

void Optimizer::zero_grad() {
    for (Parameter* p : params_) p->grad.fill(0.0F);
}

Sgd::Sgd(std::vector<Parameter*> params, double learning_rate, double momentum,
         double weight_decay)
    : Optimizer(std::move(params)),
      learning_rate_(learning_rate),
      momentum_(momentum),
      weight_decay_(weight_decay) {
    if (learning_rate <= 0.0) {
        throw std::invalid_argument("Sgd: learning rate must be positive");
    }
    velocity_.reserve(params_.size());
    for (const Parameter* p : params_) {
        velocity_.push_back(Tensor::zeros(p->value.shape()));
    }
}

void Sgd::step() {
    for (std::size_t i = 0; i < params_.size(); ++i) {
        Parameter& p = *params_[i];
        Tensor& vel = velocity_[i];
        const auto lr = static_cast<float>(learning_rate_);
        const auto mu = static_cast<float>(momentum_);
        const auto wd = static_cast<float>(weight_decay_);
        for (std::size_t j = 0; j < p.value.size(); ++j) {
            float g = p.grad[j];
            if (wd != 0.0F) g += wd * p.value[j];
            vel[j] = mu * vel[j] + g;
            p.value[j] -= lr * vel[j];
        }
    }
}

Adam::Adam(std::vector<Parameter*> params, double learning_rate, double beta1,
           double beta2, double eps, double weight_decay)
    : Optimizer(std::move(params)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
    if (learning_rate <= 0.0) {
        throw std::invalid_argument("Adam: learning rate must be positive");
    }
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const Parameter* p : params_) {
        m_.push_back(Tensor::zeros(p->value.shape()));
        v_.push_back(Tensor::zeros(p->value.shape()));
    }
}

void Adam::step() {
    ++step_count_;
    const double bias1 = 1.0 - std::pow(beta1_, step_count_);
    const double bias2 = 1.0 - std::pow(beta2_, step_count_);
    const auto lr = static_cast<float>(learning_rate_);
    const auto b1 = static_cast<float>(beta1_);
    const auto b2 = static_cast<float>(beta2_);
    const auto eps = static_cast<float>(eps_);
    const auto wd = static_cast<float>(weight_decay_);
    for (std::size_t i = 0; i < params_.size(); ++i) {
        Parameter& p = *params_[i];
        Tensor& m = m_[i];
        Tensor& v = v_[i];
        for (std::size_t j = 0; j < p.value.size(); ++j) {
            float g = p.grad[j];
            if (wd != 0.0F) g += wd * p.value[j];
            m[j] = b1 * m[j] + (1.0F - b1) * g;
            v[j] = b2 * v[j] + (1.0F - b2) * g * g;
            const float m_hat = m[j] / static_cast<float>(bias1);
            const float v_hat = v[j] / static_cast<float>(bias2);
            p.value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
        }
    }
}

}  // namespace bayesft::nn
