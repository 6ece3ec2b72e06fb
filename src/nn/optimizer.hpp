#pragma once
// First-order optimizers over Parameter lists.  Algorithm 1 trains theta
// with stochastic gradient descent; Adam is provided for the detection task
// where SGD converges too slowly within the CPU budget.

#include <vector>

#include "nn/module.hpp"

namespace bayesft::nn {

/// Base: owns nothing; operates on borrowed Parameter pointers.
class Optimizer {
public:
    explicit Optimizer(std::vector<Parameter*> params);
    virtual ~Optimizer() = default;
    Optimizer(const Optimizer&) = delete;
    Optimizer& operator=(const Optimizer&) = delete;

    /// Applies one update from the accumulated gradients.
    virtual void step() = 0;

    /// Clears all parameter gradients.
    void zero_grad();

    std::size_t parameter_count() const { return params_.size(); }

protected:
    std::vector<Parameter*> params_;
};

/// SGD with classical momentum and decoupled L2 weight decay.
class Sgd : public Optimizer {
public:
    Sgd(std::vector<Parameter*> params, double learning_rate,
        double momentum = 0.9, double weight_decay = 0.0);

    void step() override;

private:
    double learning_rate_;
    double momentum_;
    double weight_decay_;
    std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
public:
    Adam(std::vector<Parameter*> params, double learning_rate,
         double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8,
         double weight_decay = 0.0);

    void step() override;

private:
    double learning_rate_;
    double beta1_;
    double beta2_;
    double eps_;
    double weight_decay_;
    long step_count_ = 0;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
};

}  // namespace bayesft::nn
