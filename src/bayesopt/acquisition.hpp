#pragma once
// Acquisition functions: given the GP posterior at a candidate, score how
// promising the candidate is.  The paper's Algorithm 1 (line 9) selects
// the argmax of the posterior itself — i.e. pure exploitation of the
// surrogate mean; EI and UCB are standard alternatives compared in the
// `ablation_bo_vs_random` scenario (`experiments --run
// ablation_bo_vs_random`).

#include <memory>
#include <string>

#include "bayesopt/gp.hpp"

namespace bayesft::bayesopt {

/// Scores a candidate from its posterior; higher is better.
class Acquisition {
public:
    virtual ~Acquisition() = default;
    Acquisition() = default;
    Acquisition(const Acquisition&) = delete;
    Acquisition& operator=(const Acquisition&) = delete;

    /// `best_observed` is the incumbent objective value (max over trials).
    virtual double score(const Posterior& posterior,
                         double best_observed) const = 0;
    virtual std::string describe() const = 0;
};

/// The paper's rule: maximize the surrogate posterior mean.
class PosteriorMean : public Acquisition {
public:
    double score(const Posterior& posterior, double) const override;
    std::string describe() const override { return "PosteriorMean"; }
};

/// Expected improvement over the incumbent (with exploration jitter xi).
class ExpectedImprovement : public Acquisition {
public:
    explicit ExpectedImprovement(double xi = 0.01);

    double score(const Posterior& posterior,
                 double best_observed) const override;
    std::string describe() const override;

private:
    double xi_;
};

/// Upper confidence bound: mean + beta * stddev.
class UpperConfidenceBound : public Acquisition {
public:
    explicit UpperConfidenceBound(double beta = 2.0);

    double score(const Posterior& posterior, double) const override;
    std::string describe() const override;

private:
    double beta_;
};

/// Factory from configuration strings: "posterior_mean", "ei", "ucb".
std::unique_ptr<Acquisition> make_acquisition(const std::string& kind);

}  // namespace bayesft::bayesopt
