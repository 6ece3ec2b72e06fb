#include "nn/norm.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace bayesft::nn {

namespace {

struct NcsView {
    std::size_t n = 0;
    std::size_t c = 0;
    std::size_t s = 0;  // spatial extent (1 for rank-2 inputs)
};

NcsView view_of(const Tensor& input, std::size_t channels, const char* who) {
    NcsView v;
    if (input.rank() == 2) {
        v = {input.dim(0), input.dim(1), 1};
    } else if (input.rank() == 4) {
        v = {input.dim(0), input.dim(1), input.dim(2) * input.dim(3)};
    } else {
        throw std::invalid_argument(std::string(who) +
                                    ": expected rank 2 or 4, got " +
                                    shape_to_string(input.shape()));
    }
    if (v.c != channels) {
        throw std::invalid_argument(std::string(who) + ": channel mismatch (" +
                                    std::to_string(v.c) + " vs " +
                                    std::to_string(channels) + ")");
    }
    return v;
}

}  // namespace

GroupNorm::GroupNorm(std::size_t num_groups, std::size_t channels, float eps)
    : num_groups_(num_groups),
      channels_(channels),
      eps_(eps),
      gamma_("gamma", Tensor::ones({channels})),
      beta_("beta", Tensor::zeros({channels})) {
    if (num_groups == 0 || channels == 0 || channels % num_groups != 0) {
        throw std::invalid_argument(
            "GroupNorm: channels must be a positive multiple of num_groups");
    }
}

Tensor GroupNorm::forward(Tensor input) {
    const NcsView v = view_of(input, channels_, "GroupNorm");
    input_shape_ = input.shape();
    const std::size_t cpg = channels_ / num_groups_;  // channels per group
    const std::size_t slab = cpg * v.s;               // elements per (n, g)

    normalized_ = Tensor(input.shape(), for_overwrite);
    inv_stddev_.assign(v.n * num_groups_, 0.0F);
    Tensor output(input.shape(), for_overwrite);

    for (std::size_t n = 0; n < v.n; ++n) {
        for (std::size_t g = 0; g < num_groups_; ++g) {
            const std::size_t base = (n * channels_ + g * cpg) * v.s;
            const float* x = input.data() + base;
            double mean = 0.0;
            for (std::size_t i = 0; i < slab; ++i) mean += x[i];
            mean /= static_cast<double>(slab);
            double var = 0.0;
            for (std::size_t i = 0; i < slab; ++i) {
                const double d = x[i] - mean;
                var += d * d;
            }
            var /= static_cast<double>(slab);
            const float inv_std =
                1.0F / std::sqrt(static_cast<float>(var) + eps_);
            inv_stddev_[n * num_groups_ + g] = inv_std;

            float* xhat = normalized_.data() + base;
            float* y = output.data() + base;
            for (std::size_t i = 0; i < slab; ++i) {
                const std::size_t ch = g * cpg + i / v.s;
                xhat[i] =
                    (x[i] - static_cast<float>(mean)) * inv_std;
                y[i] = gamma_.value[ch] * xhat[i] + beta_.value[ch];
            }
        }
    }
    return output;
}

Tensor GroupNorm::backward(Tensor grad_output) {
    if (grad_output.shape() != input_shape_) {
        throw std::invalid_argument("GroupNorm::backward: shape mismatch");
    }
    const NcsView v = view_of(grad_output, channels_, "GroupNorm::backward");
    const std::size_t cpg = channels_ / num_groups_;
    const std::size_t slab = cpg * v.s;
    Tensor grad_input(input_shape_);

    for (std::size_t n = 0; n < v.n; ++n) {
        for (std::size_t g = 0; g < num_groups_; ++g) {
            const std::size_t base = (n * channels_ + g * cpg) * v.s;
            const float* dy = grad_output.data() + base;
            const float* xhat = normalized_.data() + base;
            const float inv_std = inv_stddev_[n * num_groups_ + g];

            // Accumulate affine gradients and the two group means needed by
            // the normalization backward formula.
            double sum_h = 0.0;       // sum of dy * gamma
            double sum_h_xhat = 0.0;  // sum of dy * gamma * xhat
            for (std::size_t i = 0; i < slab; ++i) {
                const std::size_t ch = g * cpg + i / v.s;
                gamma_.grad[ch] += dy[i] * xhat[i];
                beta_.grad[ch] += dy[i];
                const double h = static_cast<double>(dy[i]) * gamma_.value[ch];
                sum_h += h;
                sum_h_xhat += h * xhat[i];
            }
            const float mean_h =
                static_cast<float>(sum_h / static_cast<double>(slab));
            const float mean_h_xhat =
                static_cast<float>(sum_h_xhat / static_cast<double>(slab));

            float* dx = grad_input.data() + base;
            for (std::size_t i = 0; i < slab; ++i) {
                const std::size_t ch = g * cpg + i / v.s;
                const float h = dy[i] * gamma_.value[ch];
                dx[i] = inv_std * (h - mean_h - xhat[i] * mean_h_xhat);
            }
        }
    }
    return grad_input;
}

void GroupNorm::collect_parameters(std::vector<Parameter*>& out) {
    out.push_back(&gamma_);
    out.push_back(&beta_);
}

std::unique_ptr<Module> GroupNorm::clone() const {
    auto copy = std::make_unique<GroupNorm>(num_groups_, channels_, eps_);
    copy_norm_state_into(*copy);
    return copy;
}

std::string GroupNorm::name() const {
    std::ostringstream os;
    os << "GroupNorm(g" << num_groups_ << ", c" << channels_ << ")";
    return os.str();
}

BatchNorm::BatchNorm(std::size_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_("gamma", Tensor::ones({channels})),
      beta_("beta", Tensor::zeros({channels})),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::ones({channels})) {
    if (channels == 0) throw std::invalid_argument("BatchNorm: zero channels");
}

Tensor BatchNorm::forward(Tensor input) {
    const NcsView v = view_of(input, channels_, "BatchNorm");
    input_shape_ = input.shape();
    forward_was_training_ = training();
    Tensor output(input.shape(), for_overwrite);

    auto element = [&](const Tensor& t, std::size_t n, std::size_t c,
                       std::size_t s) -> float {
        return t.data()[(n * channels_ + c) * v.s + s];
    };

    if (training()) {
        normalized_ = Tensor(input.shape(), for_overwrite);
        inv_stddev_.assign(channels_, 0.0F);
        const std::size_t count = v.n * v.s;
        if (count < 2) {
            throw std::invalid_argument(
                "BatchNorm: training forward needs batch*spatial >= 2");
        }
        for (std::size_t c = 0; c < channels_; ++c) {
            double mean = 0.0;
            for (std::size_t n = 0; n < v.n; ++n) {
                for (std::size_t s = 0; s < v.s; ++s) {
                    mean += element(input, n, c, s);
                }
            }
            mean /= static_cast<double>(count);
            double var = 0.0;
            for (std::size_t n = 0; n < v.n; ++n) {
                for (std::size_t s = 0; s < v.s; ++s) {
                    const double d = element(input, n, c, s) - mean;
                    var += d * d;
                }
            }
            var /= static_cast<double>(count);
            const float inv_std =
                1.0F / std::sqrt(static_cast<float>(var) + eps_);
            inv_stddev_[c] = inv_std;
            running_mean_[c] =
                (1.0F - momentum_) * running_mean_[c] +
                momentum_ * static_cast<float>(mean);
            running_var_[c] = (1.0F - momentum_) * running_var_[c] +
                              momentum_ * static_cast<float>(var);
            for (std::size_t n = 0; n < v.n; ++n) {
                for (std::size_t s = 0; s < v.s; ++s) {
                    const std::size_t idx = (n * channels_ + c) * v.s + s;
                    const float xhat =
                        (input.data()[idx] - static_cast<float>(mean)) *
                        inv_std;
                    normalized_.data()[idx] = xhat;
                    output.data()[idx] =
                        gamma_.value[c] * xhat + beta_.value[c];
                }
            }
        }
    } else {
        for (std::size_t c = 0; c < channels_; ++c) {
            const float inv_std =
                1.0F / std::sqrt(running_var_[c] + eps_);
            for (std::size_t n = 0; n < v.n; ++n) {
                for (std::size_t s = 0; s < v.s; ++s) {
                    const std::size_t idx = (n * channels_ + c) * v.s + s;
                    output.data()[idx] =
                        gamma_.value[c] *
                            (input.data()[idx] - running_mean_[c]) * inv_std +
                        beta_.value[c];
                }
            }
        }
    }
    return output;
}

Tensor BatchNorm::backward(Tensor grad_output) {
    if (grad_output.shape() != input_shape_) {
        throw std::invalid_argument("BatchNorm::backward: shape mismatch");
    }
    const NcsView v = view_of(grad_output, channels_, "BatchNorm::backward");
    Tensor grad_input(input_shape_);

    if (!forward_was_training_) {
        // Eval mode: y = gamma * (x - rm) * inv_std + beta is affine in x.
        for (std::size_t c = 0; c < channels_; ++c) {
            const float scale =
                gamma_.value[c] / std::sqrt(running_var_[c] + eps_);
            for (std::size_t n = 0; n < v.n; ++n) {
                for (std::size_t s = 0; s < v.s; ++s) {
                    const std::size_t idx = (n * channels_ + c) * v.s + s;
                    grad_input.data()[idx] = grad_output.data()[idx] * scale;
                }
            }
        }
        return grad_input;
    }

    const std::size_t count = v.n * v.s;
    for (std::size_t c = 0; c < channels_; ++c) {
        double sum_dy = 0.0;
        double sum_dy_xhat = 0.0;
        for (std::size_t n = 0; n < v.n; ++n) {
            for (std::size_t s = 0; s < v.s; ++s) {
                const std::size_t idx = (n * channels_ + c) * v.s + s;
                const double dy = grad_output.data()[idx];
                sum_dy += dy;
                sum_dy_xhat += dy * normalized_.data()[idx];
            }
        }
        gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
        beta_.grad[c] += static_cast<float>(sum_dy);
        const float mean_dy =
            static_cast<float>(sum_dy / static_cast<double>(count));
        const float mean_dy_xhat =
            static_cast<float>(sum_dy_xhat / static_cast<double>(count));
        const float scale = gamma_.value[c] * inv_stddev_[c];
        for (std::size_t n = 0; n < v.n; ++n) {
            for (std::size_t s = 0; s < v.s; ++s) {
                const std::size_t idx = (n * channels_ + c) * v.s + s;
                grad_input.data()[idx] =
                    scale * (grad_output.data()[idx] - mean_dy -
                             normalized_.data()[idx] * mean_dy_xhat);
            }
        }
    }
    return grad_input;
}

void BatchNorm::collect_parameters(std::vector<Parameter*>& out) {
    out.push_back(&gamma_);
    out.push_back(&beta_);
}

void BatchNorm::collect_buffers(std::vector<Tensor*>& out) {
    out.push_back(&running_mean_);
    out.push_back(&running_var_);
}

std::unique_ptr<Module> BatchNorm::clone() const {
    auto copy = std::make_unique<BatchNorm>(channels_, eps_, momentum_);
    copy->gamma_.value = gamma_.value;
    copy->beta_.value = beta_.value;
    copy->running_mean_ = running_mean_;
    copy->running_var_ = running_var_;
    copy->training_ = training_;
    return copy;
}

std::string BatchNorm::name() const {
    std::ostringstream os;
    os << "BatchNorm(c" << channels_ << ")";
    return os.str();
}

}  // namespace bayesft::nn
