#pragma once
// Residual composition: out = main(x) + shortcut(x).  Used by the ResNet /
// PreAct-ResNet families in the model zoo (paper Fig. 3(d), (f)-(h)).

#include <memory>

#include "nn/module.hpp"

namespace bayesft::nn {

/// Two-branch residual sum.  Owns both branches; the shortcut defaults to
/// Identity.  Both branches must produce outputs of identical shape.
class Residual : public Module {
public:
    explicit Residual(std::unique_ptr<Module> main_branch,
                      std::unique_ptr<Module> shortcut = nullptr);

    /// The main branch reads a copy of the input, the shortcut the input
    /// itself; the backward splits its gradient the same way.
    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    void collect_children(std::vector<Module*>& out) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

    Module& main_branch() { return *main_; }
    Module& shortcut() { return *shortcut_; }

private:
    std::unique_ptr<Module> main_;
    std::unique_ptr<Module> shortcut_;
};

}  // namespace bayesft::nn
