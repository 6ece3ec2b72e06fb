#pragma once
// Module framework: every layer implements forward/backward with explicit,
// analytically derived gradients (verified against finite differences in
// tests/).  The design mirrors the classic modular-NN decomposition the
// paper's Sec. II-A describes: f = f1 o f2 o ... o fK.

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace bayesft::nn {

/// A learnable tensor with its gradient accumulator.
///
/// `driftable` marks parameters that live in ReRAM cells and are therefore
/// subject to memristance drift (Eq. 1).  All weights/biases/affine-norm
/// parameters are driftable; bookkeeping state (running statistics) is not
/// a Parameter at all.
struct Parameter {
    std::string name;
    Tensor value;
    Tensor grad;
    bool driftable = true;

    Parameter(std::string n, Tensor v, bool drift = true)
        : name(std::move(n)),
          value(std::move(v)),
          grad(Tensor::zeros(value.shape())),
          driftable(drift) {}
};

/// Base class for all layers.
///
/// Contract: `backward` must be called after `forward` with a gradient of
/// the same shape as the most recent forward output; it accumulates into
/// the parameters' `grad` fields and returns the gradient w.r.t. the input.
/// `backward_params` has the same precondition and accumulates the same
/// parameter gradients, bit for bit, but returns no input gradient: it is
/// the entry point of a training step, whose loop drops the gradient of
/// the model's input.
///
/// Ownership: `forward`, `backward` and `backward_params` take their
/// tensor by value.  A caller that still needs its tensor passes an lvalue
/// (one copy, and the caller's tensor is left unchanged); a caller done
/// with it moves it in, and the layer may cache it, overwrite it in place
/// or return it as its result.  Either way the result has the same bits.
class Module {
public:
    virtual ~Module() = default;
    Module() = default;
    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;

    /// Computes the layer output; caches whatever backward needs.
    virtual Tensor forward(Tensor input) = 0;

    /// Propagates gradients; accumulates parameter grads.
    virtual Tensor backward(Tensor grad_output) = 0;

    /// Accumulates parameter grads only.  The default runs `backward` and
    /// drops its result; layers override it to skip the input-gradient
    /// work.
    virtual void backward_params(Tensor grad_output);

    /// Deep structural copy carrying the current parameter values, buffers
    /// and train/eval flag (but no cached forward state).  Used to build
    /// per-thread model replicas for parallel Monte-Carlo evaluation.
    /// Returns nullptr for layers that do not support replication (the
    /// default); containers propagate the nullptr so callers can fall back
    /// to serial evaluation.
    virtual std::unique_ptr<Module> clone() const { return nullptr; }

    /// Appends raw (non-owning) pointers to this module's direct children.
    /// Leaves append nothing (the default); containers override it and
    /// nothing else to be walked: parameters, buffers, the train/eval flag
    /// and nn::visit all recurse through it.  Child order must be
    /// deterministic and match the order the container runs them.
    virtual void collect_children(std::vector<Module*>& out) {
        (void)out;
    }

    /// Appends raw (non-owning) pointers to this module's parameters.  The
    /// default appends each child's, in collect_children order; layers
    /// that own parameters override it.
    virtual void collect_parameters(std::vector<Parameter*>& out);

    /// Appends pointers to non-learnable persistent state (e.g. batch-norm
    /// running statistics).  Buffers are serialized with checkpoints but
    /// are never drifted or optimized.  The default recurses like
    /// collect_parameters.
    virtual void collect_buffers(std::vector<Tensor*>& out);

    /// Convenience wrapper over collect_parameters.
    std::vector<Parameter*> parameters();

    /// Convenience wrapper over collect_buffers.
    std::vector<Tensor*> buffers();

    /// Total number of scalar learnable values.
    std::size_t parameter_count();

    /// Switches train/eval behaviour (dropout, batch-norm statistics) of
    /// this module and every module below it.
    void set_training(bool training);
    bool training() const { return training_; }

    /// Short human-readable layer name, e.g. "Linear(64->10)".
    virtual std::string name() const = 0;

protected:
    bool training_ = true;
};

/// Calls `fn` on `root`, then on every module below it: pre-order, each
/// container's children in collect_children order.
template <typename Fn>
void visit(Module& root, Fn&& fn) {
    fn(root);
    std::vector<Module*> children;
    root.collect_children(children);
    for (Module* child : children) visit(*child, fn);
}

/// Ordered container running children front-to-back (and back-to-front for
/// gradients).  Owns its children.
class Sequential : public Module {
public:
    Sequential() = default;

    /// Appends a child and returns a non-owning typed pointer to it, so
    /// callers can keep handles to e.g. Dropout layers for rate updates.
    template <typename M>
    M* add(std::unique_ptr<M> child) {
        M* raw = child.get();
        children_.push_back(std::move(child));
        return raw;
    }

    /// Constructs the child in place.
    template <typename M, typename... Args>
    M* emplace(Args&&... args) {
        return add(std::make_unique<M>(std::forward<Args>(args)...));
    }

    /// Moves each intermediate on from child to child.
    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    /// Runs `backward` down to the first child that owns parameters, then
    /// that child's `backward_params`; the parameter-free children before
    /// it (an MLP's Flatten) are skipped.
    void backward_params(Tensor grad_output) override;
    void collect_children(std::vector<Module*>& out) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

    std::size_t child_count() const { return children_.size(); }
    Module& child(std::size_t i) { return *children_.at(i); }

private:
    std::vector<std::unique_ptr<Module>> children_;
};

/// Reshapes [N, C, H, W] (or any rank >= 2) to [N, rest], in place: it
/// returns its argument with the new shape.
class Flatten : public Module {
public:
    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    std::unique_ptr<Module> clone() const override {
        return std::make_unique<Flatten>();
    }
    std::string name() const override { return "Flatten"; }

private:
    std::vector<std::size_t> input_shape_;
};

/// Identity layer (useful as a stand-in for disabled blocks).
class Identity : public Module {
public:
    Tensor forward(Tensor input) override { return input; }
    Tensor backward(Tensor grad_output) override { return grad_output; }
    std::unique_ptr<Module> clone() const override {
        return std::make_unique<Identity>();
    }
    std::string name() const override { return "Identity"; }
};

}  // namespace bayesft::nn
