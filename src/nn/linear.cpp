#include "nn/linear.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "nn/init.hpp"
#include "simd/kernels.hpp"
#include "tensor/ops.hpp"

namespace bayesft::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("weight", xavier_uniform({out_features, in_features}, in_features,
                                       out_features, rng)),
      bias_("bias", Tensor::zeros({out_features})) {
    if (in_features == 0 || out_features == 0) {
        throw std::invalid_argument("Linear: zero feature count");
    }
}

Tensor Linear::forward(Tensor input) {
    if (input.rank() != 2 || input.dim(1) != in_features_) {
        throw std::invalid_argument("Linear: expected [N, " +
                                    std::to_string(in_features_) + "], got " +
                                    shape_to_string(input.shape()));
    }
    cached_input_ = std::move(input);
    if (mode_ != InferenceMode::kFloat32) {
        return forward_fixed_point(cached_input_);
    }
    Tensor out = matmul_nt(cached_input_, weight_.value);  // [N, out]
    const std::size_t n = out.dim(0);
    for (std::size_t i = 0; i < n; ++i) {
        float* row = out.data() + i * out_features_;
        for (std::size_t j = 0; j < out_features_; ++j) {
            row[j] += bias_.value[j];
        }
    }
    return out;
}

Tensor Linear::forward_fixed_point(const Tensor& input) {
    const auto& kt = simd::kernels();
    const int bits = inference_bits(mode_);
    const float qmax =
        static_cast<float>((std::int32_t{1} << (bits - 1)) - 1);
    // Dynamic per-tensor symmetric scales: the weight grid is exactly
    // QuantizationFault(bits)'s view of W (same max|.| / quantize kernel).
    const float s_w =
        kt.max_abs(weight_.value.data(), weight_.value.size()) / qmax;
    const float s_x = kt.max_abs(input.data(), input.size()) / qmax;
    const std::size_t n = input.dim(0);
    Tensor out({n, out_features_}, for_overwrite);
    if (s_w == 0.0F || s_x == 0.0F) {
        // An all-zero operand quantizes to all-zero codes: y = b.
        for (std::size_t i = 0; i < n; ++i) {
            float* row = out.data() + i * out_features_;
            for (std::size_t j = 0; j < out_features_; ++j) {
                row[j] = bias_.value[j];
            }
        }
        return out;
    }
    weight_codes_.resize(weight_.value.size());
    input_codes_.resize(input.size());
    kt.quantize_codes(weight_.value.data(), weight_codes_.data(),
                      weight_.value.size(), bits, s_w);
    kt.quantize_codes(input.data(), input_codes_.data(), input.size(), bits,
                      s_x);
    // y = (s_w * s_x) * codes(x) @ codes(W)^T — W:[out, in] is already the
    // transposed operand qgemm_nt expects.
    kt.qgemm_nt(input_codes_.data(), weight_codes_.data(), out.data(), n,
                in_features_, out_features_, s_w * s_x);
    for (std::size_t i = 0; i < n; ++i) {
        float* row = out.data() + i * out_features_;
        for (std::size_t j = 0; j < out_features_; ++j) {
            row[j] += bias_.value[j];
        }
    }
    return out;
}

Tensor Linear::backward(Tensor grad_output) {
    Tensor grad_input = matmul(grad_output, weight_.value);  // dX = dY W
    backward_params(std::move(grad_output));
    return grad_input;
}

void Linear::backward_params(Tensor grad_output) {
    if (grad_output.rank() != 2 || grad_output.dim(1) != out_features_ ||
        grad_output.dim(0) != cached_input_.dim(0)) {
        throw std::invalid_argument("Linear::backward: bad grad shape " +
                                    shape_to_string(grad_output.shape()));
    }
    // dW = dY^T X ; db = column sums of dY.
    weight_.grad.add_(matmul_tn(grad_output, cached_input_));
    const std::size_t n = grad_output.dim(0);
    for (std::size_t i = 0; i < n; ++i) {
        const float* row = grad_output.data() + i * out_features_;
        for (std::size_t j = 0; j < out_features_; ++j) {
            bias_.grad[j] += row[j];
        }
    }
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
    out.push_back(&weight_);
    out.push_back(&bias_);
}

Linear::Linear(const Linear& other, CloneTag)
    : in_features_(other.in_features_),
      out_features_(other.out_features_),
      weight_(other.weight_),
      bias_(other.bias_),
      mode_(other.mode_) {
    training_ = other.training_;
}

std::unique_ptr<Module> Linear::clone() const {
    return std::unique_ptr<Module>(new Linear(*this, CloneTag{}));
}

std::string Linear::name() const {
    std::ostringstream os;
    os << "Linear(" << in_features_ << "->" << out_features_ << ")";
    return os.str();
}

}  // namespace bayesft::nn
