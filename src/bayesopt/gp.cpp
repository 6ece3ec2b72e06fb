#include "bayesopt/gp.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "utils/parallel.hpp"

namespace bayesft::bayesopt {

GaussianProcess::GaussianProcess(std::shared_ptr<const Kernel> kernel,
                                 double noise_variance)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance) {
    if (!kernel_) throw std::invalid_argument("GaussianProcess: null kernel");
    if (!(noise_variance >= 0.0)) {
        throw std::invalid_argument("GaussianProcess: negative noise");
    }
}

void GaussianProcess::refresh_targets() {
    double y_mean = 0.0;
    for (double y : ys_) y_mean += y;
    y_mean /= static_cast<double>(ys_.size());
    linalg::Vector centered(ys_.size());
    for (std::size_t i = 0; i < ys_.size(); ++i) {
        centered[i] = ys_[i] - y_mean;
    }
    y_mean_ = y_mean;
    alpha_ = linalg::cholesky_solve(chol_, centered);
    centered_ = std::move(centered);
}

void GaussianProcess::fit(std::vector<Point> xs, std::vector<double> ys) {
    if (xs.empty() || xs.size() != ys.size()) {
        throw std::invalid_argument("GaussianProcess::fit: bad data sizes");
    }
    const std::size_t dims = xs.front().size();
    for (const Point& x : xs) {
        if (x.size() != dims) {
            throw std::invalid_argument(
                "GaussianProcess::fit: inconsistent dimensions");
        }
    }
    // Factorize into locals and commit members only after every throwing
    // step succeeded: a failed fit (ill-conditioned Gram) must leave the
    // previous posterior fully intact, so callers can degrade gracefully
    // by keeping the last-good fit (docs/robustness.md).
    linalg::Matrix k = kernel_->gram(xs);
    k.add_diagonal(noise_variance_);
    double jitter = 0.0;
    linalg::Matrix chol =
        linalg::cholesky_with_jitter_info(std::move(k), jitter);

    xs_ = std::move(xs);
    ys_ = std::move(ys);
    chol_ = std::move(chol);
    jitter_ = jitter;
    refresh_targets();
}

bool GaussianProcess::observe(const Point& x, double y) {
    if (!fitted()) return false;
    if (x.size() != xs_.front().size()) {
        throw std::invalid_argument(
            "GaussianProcess::observe: dimension mismatch");
    }
    // The append recurrence reproduces cholesky()'s last row against the
    // *unjittered* Gram; a factor that needed jitter has no O(n^2) path
    // that stays bit-identical to the canonical fit() — fall back.
    if (jitter_ != 0.0) return false;
    const linalg::Vector kx = kernel_->cross(x, xs_);
    const double diag = (*kernel_)(x, x) + noise_variance_;
    if (!linalg::cholesky_append_row(chol_, kx, diag)) return false;
    xs_.push_back(x);
    ys_.push_back(y);
    refresh_targets();
    return true;
}

void GaussianProcess::update_target(std::size_t i, double y) {
    if (!fitted()) {
        throw std::logic_error("GaussianProcess::update_target: not fitted");
    }
    if (i >= ys_.size()) {
        throw std::out_of_range(
            "GaussianProcess::update_target: index out of range");
    }
    // The factorization depends only on the xs; a refit with the updated
    // targets would rebuild the identical factor, so only the target side
    // is recomputed.  Valid at any jitter level for the same reason.
    ys_[i] = y;
    refresh_targets();
}

void GaussianProcess::truncate(std::size_t n) {
    if (n == 0 || n > xs_.size()) {
        throw std::invalid_argument("GaussianProcess::truncate: bad size");
    }
    if (jitter_ != 0.0) {
        throw std::logic_error(
            "GaussianProcess::truncate: factor carries jitter");
    }
    if (n == xs_.size()) return;
    xs_.resize(n);
    ys_.resize(n);
    linalg::cholesky_truncate(chol_, n);
    refresh_targets();
}

Posterior GaussianProcess::posterior(const Point& x) const {
    if (!fitted()) {
        throw std::logic_error("GaussianProcess::posterior: not fitted");
    }
    const linalg::Vector kx = kernel_->cross(x, xs_);
    Posterior post;
    post.mean = y_mean_ + linalg::dot(kx, alpha_);
    // sigma2 = k(x,x) - v^T v with v = L^-1 kx.
    const linalg::Vector v = linalg::solve_lower(chol_, kx);
    const double prior_var = (*kernel_)(x, x);
    post.variance = std::max(0.0, prior_var - linalg::dot(v, v));
    return post;
}

std::vector<Posterior> GaussianProcess::posterior_batch(
    const std::vector<Point>& queries) const {
    if (!fitted()) {
        throw std::logic_error("GaussianProcess::posterior_batch: not fitted");
    }
    const std::size_t m = queries.size();
    std::vector<Posterior> out(m);
    if (m == 0) return out;
    const std::size_t n = xs_.size();
    // The n x m cross block, candidates contiguous along each row, so the
    // passes below and the solve read them as vector lanes.  Each pass
    // keeps the per-point path's order over i for every candidate.
    linalg::Matrix kq = kernel_->cross_matrix(queries, xs_);
    std::vector<double> sums(m);
    const std::size_t grain = std::max<std::size_t>(1, 16384 / (n + 1));
    // Means before the in-place solve consumes the cross block: the exact
    // dot(kx, alpha) of posterior().
    parallel_for(0, m, grain, [&](std::size_t lo, std::size_t hi) {
        std::fill(sums.begin() + lo, sums.begin() + hi, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            const double* row = kq.data() + i * m;
            const double a = alpha_[i];
            for (std::size_t r = lo; r < hi; ++r) sums[r] += row[r] * a;
        }
        for (std::size_t r = lo; r < hi; ++r) out[r].mean = y_mean_ + sums[r];
    });
    // One multi-RHS forward solve for every candidate's v = L^-1 kx.
    linalg::solve_lower_multi_inplace(chol_, kq);
    parallel_for(0, m, grain, [&](std::size_t lo, std::size_t hi) {
        std::fill(sums.begin() + lo, sums.begin() + hi, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            const double* row = kq.data() + i * m;
            for (std::size_t r = lo; r < hi; ++r) sums[r] += row[r] * row[r];
        }
        for (std::size_t r = lo; r < hi; ++r) {
            const double prior_var = (*kernel_)(queries[r], queries[r]);
            out[r].variance = std::max(0.0, prior_var - sums[r]);
        }
    });
    return out;
}

double GaussianProcess::log_marginal_likelihood() const {
    if (!fitted()) {
        throw std::logic_error(
            "GaussianProcess::log_marginal_likelihood: not fitted");
    }
    const double fit_term = -0.5 * linalg::dot(centered_, alpha_);
    const double det_term = -0.5 * linalg::log_det_from_cholesky(chol_);
    const double norm_term = -0.5 * static_cast<double>(ys_.size()) *
                             std::log(2.0 * std::numbers::pi);
    return fit_term + det_term + norm_term;
}

}  // namespace bayesft::bayesopt
