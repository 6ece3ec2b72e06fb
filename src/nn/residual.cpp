#include "nn/residual.hpp"

#include <stdexcept>

namespace bayesft::nn {

Residual::Residual(std::unique_ptr<Module> main_branch,
                   std::unique_ptr<Module> shortcut)
    : main_(std::move(main_branch)),
      shortcut_(shortcut ? std::move(shortcut)
                         : std::make_unique<Identity>()) {
    if (!main_) throw std::invalid_argument("Residual: null main branch");
}

Tensor Residual::forward(Tensor input) {
    Tensor main_out = main_->forward(input);
    Tensor short_out = shortcut_->forward(std::move(input));
    if (main_out.shape() != short_out.shape()) {
        throw std::invalid_argument(
            "Residual: branch shape mismatch " +
            shape_to_string(main_out.shape()) + " vs " +
            shape_to_string(short_out.shape()));
    }
    return main_out.add_(short_out);
}

Tensor Residual::backward(Tensor grad_output) {
    Tensor grad_main = main_->backward(grad_output);
    Tensor grad_short = shortcut_->backward(std::move(grad_output));
    return grad_main.add_(grad_short);
}

void Residual::collect_children(std::vector<Module*>& out) {
    out.push_back(main_.get());
    out.push_back(shortcut_.get());
}

std::unique_ptr<Module> Residual::clone() const {
    std::unique_ptr<Module> main_copy = main_->clone();
    std::unique_ptr<Module> shortcut_copy = shortcut_->clone();
    if (!main_copy || !shortcut_copy) return nullptr;
    auto copy = std::make_unique<Residual>(std::move(main_copy),
                                           std::move(shortcut_copy));
    copy->training_ = training_;
    return copy;
}

std::string Residual::name() const { return "Residual"; }

}  // namespace bayesft::nn
