#pragma once
// Gaussian-process regression surrogate (paper Eq. 5-8).
//
// Posterior for a zero-mean GP prior with kernel kappa and observation
// noise sigma_n^2:
//   mu(x)     = k(x, X) (K + sigma_n^2 I)^-1 y
//   sigma2(x) = k(x, x) - k(x, X) (K + sigma_n^2 I)^-1 k(X, x)
// computed via a Cholesky factorization held across queries.  Targets are
// internally centered on their mean so the zero-mean prior is reasonable.

#include <memory>
#include <vector>

#include "bayesopt/kernel.hpp"
#include "linalg/matrix.hpp"

namespace bayesft::bayesopt {

/// Posterior mean and variance at one query point.
struct Posterior {
    double mean = 0.0;
    double variance = 0.0;
};

/// Exact GP regression with a fixed kernel.
class GaussianProcess {
public:
    /// `noise_variance` is the observation noise sigma_n^2 (> 0 keeps the
    /// Gram matrix well conditioned; MC-estimated objectives are noisy
    /// anyway, see Eq. 4).
    GaussianProcess(std::shared_ptr<const Kernel> kernel,
                    double noise_variance = 1e-6);

    /// Fits (refactorizes) on the full trial history.
    /// Requires xs.size() == ys.size() > 0 and consistent dimensions.
    /// This is the canonical reference path: the incremental operations
    /// below are pinned bit-identical to it (docs/optimizer-scaling.md).
    void fit(std::vector<Point> xs, std::vector<double> ys);

    /// Incremental observation: grows the factorization by one row in
    /// O(n^2) (rank-1 Cholesky append + a full alpha recompute) instead of
    /// the O(n^3) refit.  The result is bit-identical to
    /// fit(xs + [x], ys + [y]) whenever it returns true.  Returns false —
    /// leaving the fit untouched — when the fast path does not apply: not
    /// fitted yet, the current factor carries Cholesky jitter, or the
    /// appended row is not positive definite at zero jitter.  Callers fall
    /// back to fit(), which lands on the same factorization a from-scratch
    /// fit would have produced.
    bool observe(const Point& x, double y);

    /// Replaces the stored target of observation `i` and recomputes the
    /// centered targets and alpha in O(n^2); the factorization (which only
    /// depends on the xs) is untouched.  Bit-identical to a full fit()
    /// with the updated targets.  Used by the duplicate-merge path, where
    /// a repeated point only moves its row's running-average y.
    void update_target(std::size_t i, double y);

    /// Drops the trailing observations so observation_count() == n, by
    /// truncating the Cholesky factor (rows are finalized top-down, so the
    /// leading block IS the smaller factor) and recomputing alpha.
    /// Bit-identical to a fit() on the first n observations when the
    /// current factor is jitter-free — the constant-liar fantasy rollback.
    /// Requires 0 < n <= observation_count() and a jitter-free factor
    /// (throws std::logic_error otherwise).
    void truncate(std::size_t n);

    /// True once fit() has been called with at least one observation.
    bool fitted() const { return !xs_.empty(); }
    std::size_t observation_count() const { return xs_.size(); }

    /// Diagonal jitter the last (re)factorization needed (0.0 normally).
    /// The incremental paths only apply to a jitter-free factor.
    double jitter() const { return jitter_; }

    /// Posterior at `x`; throws std::logic_error if not fitted.
    Posterior posterior(const Point& x) const;

    /// Posteriors at many query points in one pass: the n x m cross-kernel
    /// block is built once with the candidates contiguous (candidate-
    /// minor), the variance term uses one multi-RHS triangular solve with
    /// the candidates in SIMD lanes, and each candidate reproduces the
    /// exact per-point recurrence — so the result is bit-identical to m
    /// posterior() calls on every tier and at every thread count (the
    /// batched acquisition path).
    std::vector<Posterior> posterior_batch(
        const std::vector<Point>& queries) const;

    /// Log marginal likelihood of the fitted data (for hyperparameter
    /// comparison): -1/2 y^T K^-1 y - 1/2 log|K| - n/2 log(2 pi).
    double log_marginal_likelihood() const;

    const std::vector<Point>& xs() const { return xs_; }
    const std::vector<double>& ys() const { return ys_; }

private:
    /// Recomputes y_mean_/centered_/alpha_ from ys_ and chol_ — the shared
    /// tail of fit/observe/update_target/truncate, so all four produce the
    /// identical alpha bits for identical (ys, chol).
    void refresh_targets();

    std::shared_ptr<const Kernel> kernel_;
    double noise_variance_;
    std::vector<Point> xs_;
    std::vector<double> ys_;
    double y_mean_ = 0.0;
    linalg::Matrix chol_;       // lower Cholesky factor of K + sigma_n^2 I
    linalg::Vector centered_;   // y - mean, cached at fit/observe time
    linalg::Vector alpha_;      // (K + sigma_n^2 I)^-1 (y - mean)
    double jitter_ = 0.0;       // diagonal jitter the last refit needed
};

}  // namespace bayesft::bayesopt
