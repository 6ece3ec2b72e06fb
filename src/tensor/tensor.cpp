#include "tensor/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace bayesft {

std::size_t shape_size(const std::vector<std::size_t>& shape) {
    std::size_t n = 1;
    for (std::size_t extent : shape) n *= extent;
    return n;
}

std::string shape_to_string(const std::vector<std::size_t>& shape) {
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i != 0) os << ", ";
        os << shape[i];
    }
    os << ']';
    return os.str();
}

Tensor::Tensor(std::vector<std::size_t> shape, float fill)
    : shape_(std::move(shape)), data_(shape_size(shape_), fill) {}

Tensor::Tensor(std::vector<std::size_t> shape, ForOverwrite)
    : shape_(std::move(shape)), data_(shape_size(shape_)) {
    if constexpr (kPoisonForOverwrite) {
        fill(std::bit_cast<float>(kForOverwritePoisonBits));
    }
}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(values.begin(), values.end()) {
    if (data_.size() != shape_size(shape_)) {
        throw std::invalid_argument(
            "Tensor: value count " + std::to_string(data_.size()) +
            " does not match shape " + shape_to_string(shape_));
    }
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
    return Tensor(std::move(shape), 0.0F);
}

Tensor Tensor::ones(std::vector<std::size_t> shape) {
    return Tensor(std::move(shape), 1.0F);
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
    return Tensor(std::move(shape), value);
}

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, float stddev) {
    Tensor t(std::move(shape), for_overwrite);
    for (float& v : t.data_) {
        v = static_cast<float>(rng.normal(0.0, stddev));
    }
    return t;
}

Tensor Tensor::uniform(std::vector<std::size_t> shape, Rng& rng, float lo,
                       float hi) {
    Tensor t(std::move(shape), for_overwrite);
    for (float& v : t.data_) {
        v = static_cast<float>(rng.uniform(lo, hi));
    }
    return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
    if (axis >= shape_.size()) {
        throw std::out_of_range("Tensor::dim: axis " + std::to_string(axis) +
                                " out of range for shape " +
                                shape_to_string(shape_));
    }
    return shape_[axis];
}

namespace {

std::vector<std::size_t> resolve_shape(std::vector<std::size_t> new_shape,
                                       std::size_t total) {
    std::size_t known = 1;
    std::size_t infer_axis = new_shape.size();
    for (std::size_t i = 0; i < new_shape.size(); ++i) {
        if (new_shape[i] == 0) {
            if (infer_axis != new_shape.size()) {
                throw std::invalid_argument(
                    "Tensor::reshape: at most one dimension may be inferred");
            }
            infer_axis = i;
        } else {
            known *= new_shape[i];
        }
    }
    if (infer_axis != new_shape.size()) {
        if (known == 0 || total % known != 0) {
            throw std::invalid_argument(
                "Tensor::reshape: cannot infer dimension for " +
                shape_to_string(new_shape));
        }
        new_shape[infer_axis] = total / known;
        known *= new_shape[infer_axis];
    }
    if (known != total) {
        throw std::invalid_argument("Tensor::reshape: element count mismatch " +
                                    shape_to_string(new_shape));
    }
    return new_shape;
}

}  // namespace

void Tensor::reshape(std::vector<std::size_t> new_shape) {
    shape_ = resolve_shape(std::move(new_shape), size());
}

float& Tensor::at(std::size_t i) {
    if (i >= data_.size()) throw std::out_of_range("Tensor::at");
    return data_[i];
}

float Tensor::at(std::size_t i) const {
    if (i >= data_.size()) throw std::out_of_range("Tensor::at");
    return data_[i];
}

std::size_t Tensor::flat_index(std::size_t i, std::size_t j) const {
    return i * shape_[1] + j;
}

std::size_t Tensor::flat_index(std::size_t i, std::size_t j,
                               std::size_t k) const {
    return (i * shape_[1] + j) * shape_[2] + k;
}

std::size_t Tensor::flat_index(std::size_t i, std::size_t j, std::size_t k,
                               std::size_t l) const {
    return ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l;
}

float& Tensor::operator()(std::size_t i, std::size_t j) {
    return data_[flat_index(i, j)];
}
float Tensor::operator()(std::size_t i, std::size_t j) const {
    return data_[flat_index(i, j)];
}
float& Tensor::operator()(std::size_t i, std::size_t j, std::size_t k) {
    return data_[flat_index(i, j, k)];
}
float Tensor::operator()(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[flat_index(i, j, k)];
}
float& Tensor::operator()(std::size_t i, std::size_t j, std::size_t k,
                          std::size_t l) {
    return data_[flat_index(i, j, k, l)];
}
float Tensor::operator()(std::size_t i, std::size_t j, std::size_t k,
                         std::size_t l) const {
    return data_[flat_index(i, j, k, l)];
}

void Tensor::check_same_shape(const Tensor& other, const char* op) const {
    if (shape_ != other.shape_) {
        throw std::invalid_argument(std::string("Tensor::") + op +
                                    ": shape mismatch " +
                                    shape_to_string(shape_) + " vs " +
                                    shape_to_string(other.shape_));
    }
}

Tensor& Tensor::fill(float value) {
    std::fill(data_.begin(), data_.end(), value);
    return *this;
}

Tensor& Tensor::add_(const Tensor& other) {
    check_same_shape(other, "add_");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
    check_same_shape(other, "sub_");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
    check_same_shape(other, "mul_");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
    return *this;
}

Tensor& Tensor::div_(const Tensor& other) {
    check_same_shape(other, "div_");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] /= other.data_[i];
    return *this;
}

Tensor& Tensor::add_scalar_(float value) {
    for (float& v : data_) v += value;
    return *this;
}

Tensor& Tensor::mul_scalar_(float value) {
    for (float& v : data_) v *= value;
    return *this;
}

Tensor& Tensor::axpy_(float scale, const Tensor& other) {
    check_same_shape(other, "axpy_");
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] += scale * other.data_[i];
    }
    return *this;
}

Tensor& Tensor::clamp_(float lo, float hi) {
    for (float& v : data_) v = std::clamp(v, lo, hi);
    return *this;
}

Tensor operator+(Tensor lhs, const Tensor& rhs) { return std::move(lhs.add_(rhs)); }
Tensor operator-(Tensor lhs, const Tensor& rhs) { return std::move(lhs.sub_(rhs)); }
Tensor operator*(Tensor lhs, const Tensor& rhs) { return std::move(lhs.mul_(rhs)); }
Tensor operator*(Tensor lhs, float rhs) { return std::move(lhs.mul_scalar_(rhs)); }
Tensor operator*(float lhs, Tensor rhs) { return std::move(rhs.mul_scalar_(lhs)); }

float Tensor::sum() const {
    double acc = 0.0;
    for (float v : data_) acc += v;
    return static_cast<float>(acc);
}

float Tensor::mean() const {
    if (data_.empty()) throw std::domain_error("Tensor::mean: empty tensor");
    return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
    if (data_.empty()) throw std::domain_error("Tensor::min: empty tensor");
    return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
    if (data_.empty()) throw std::domain_error("Tensor::max: empty tensor");
    return *std::max_element(data_.begin(), data_.end());
}

float Tensor::squared_norm() const {
    double acc = 0.0;
    for (float v : data_) acc += static_cast<double>(v) * v;
    return static_cast<float>(acc);
}

bool Tensor::equals(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::allclose(const Tensor& other, float tol) const {
    if (shape_ != other.shape_) return false;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        if (std::abs(data_[i] - other.data_[i]) > tol) return false;
    }
    return true;
}

std::string Tensor::to_string() const {
    std::ostringstream os;
    os << "Tensor" << shape_to_string(shape_) << " {";
    const std::size_t show = std::min<std::size_t>(data_.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
        if (i != 0) os << ", ";
        os << data_[i];
    }
    if (data_.size() > show) os << ", ...";
    os << '}';
    return os.str();
}

}  // namespace bayesft
