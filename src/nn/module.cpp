#include "nn/module.hpp"

#include <sstream>
#include <stdexcept>

namespace bayesft::nn {

void Module::backward_params(Tensor grad_output) {
    (void)backward(std::move(grad_output));
}

void Module::collect_parameters(std::vector<Parameter*>& out) {
    std::vector<Module*> children;
    collect_children(children);
    for (Module* child : children) child->collect_parameters(out);
}

void Module::collect_buffers(std::vector<Tensor*>& out) {
    std::vector<Module*> children;
    collect_children(children);
    for (Module* child : children) child->collect_buffers(out);
}

void Module::set_training(bool training) {
    visit(*this, [training](Module& m) { m.training_ = training; });
}

std::vector<Tensor*> Module::buffers() {
    std::vector<Tensor*> out;
    collect_buffers(out);
    return out;
}

std::vector<Parameter*> Module::parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
}

std::size_t Module::parameter_count() {
    std::size_t total = 0;
    for (const Parameter* p : parameters()) total += p->value.size();
    return total;
}

Tensor Sequential::forward(Tensor input) {
    for (auto& child : children_) input = child->forward(std::move(input));
    return input;
}

Tensor Sequential::backward(Tensor grad_output) {
    for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
        grad_output = (*it)->backward(std::move(grad_output));
    }
    return grad_output;
}

void Sequential::backward_params(Tensor grad_output) {
    std::size_t first = 0;
    while (first < children_.size() &&
           children_[first]->parameters().empty()) {
        ++first;
    }
    if (first == children_.size()) return;
    for (std::size_t i = children_.size() - 1; i > first; --i) {
        grad_output = children_[i]->backward(std::move(grad_output));
    }
    children_[first]->backward_params(std::move(grad_output));
}

void Sequential::collect_children(std::vector<Module*>& out) {
    for (auto& child : children_) out.push_back(child.get());
}

std::unique_ptr<Module> Sequential::clone() const {
    auto copy = std::make_unique<Sequential>();
    for (const auto& child : children_) {
        std::unique_ptr<Module> child_copy = child->clone();
        if (!child_copy) return nullptr;  // unreplicable child poisons the copy
        copy->add(std::move(child_copy));
    }
    copy->training_ = training_;
    return copy;
}

std::string Sequential::name() const {
    std::ostringstream os;
    os << "Sequential(" << children_.size() << " layers)";
    return os.str();
}

Tensor Flatten::forward(Tensor input) {
    if (input.rank() < 2) {
        throw std::invalid_argument("Flatten: expected rank >= 2, got " +
                                    shape_to_string(input.shape()));
    }
    input_shape_ = input.shape();
    input.reshape({input.dim(0), 0});
    return input;
}

Tensor Flatten::backward(Tensor grad_output) {
    grad_output.reshape(input_shape_);
    return grad_output;
}

}  // namespace bayesft::nn
