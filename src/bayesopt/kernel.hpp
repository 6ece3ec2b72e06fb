#pragma once
// Covariance kernels for the Gaussian-process surrogate.
//
// The paper (Eq. 9) uses kappa(a, b) = k0 * exp(-sum_i k_i (a_i - b_i)^2),
// i.e. a squared-exponential kernel with per-dimension inverse length
// scales (ARD).  Matern-5/2 is provided as an alternative for the ablation.

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace bayesft::bayesopt {

using Point = std::vector<double>;

/// Positive-definite covariance function over R^d.
class Kernel {
public:
    virtual ~Kernel() = default;
    Kernel() = default;
    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    virtual double operator()(const Point& a, const Point& b) const = 0;
    virtual std::string describe() const = 0;

    /// Gram matrix K[i][j] = k(xs[i], xs[j]).  Large matrices fill their
    /// lower triangle with the rows split over the global thread pool and
    /// mirror it afterwards; every element is the same single kernel
    /// evaluation either way, so the result is bit-identical at every
    /// thread count.
    linalg::Matrix gram(const std::vector<Point>& xs) const;

    /// Cross-covariance vector k(x, xs[i]).
    linalg::Vector cross(const Point& x, const std::vector<Point>& xs) const;

    /// Cross-covariance block C[i][r] = k(queries[r], xs[i]), n x m: one
    /// row per training point with the candidates contiguous along it
    /// (the candidate-minor layout the batched posterior solves in place).
    /// Every element is the value operator()(queries[r], xs[i]) returns,
    /// so the block is bit-identical to per-query cross() calls at every
    /// thread count.  This default makes one operator() call per pair,
    /// rows split over the global thread pool; the ARD kernels override
    /// it with a packed evaluation.
    virtual linalg::Matrix cross_matrix(const std::vector<Point>& queries,
                                        const std::vector<Point>& xs) const;
};

/// A run of one-hot coordinates inside an encoded mixed-space point:
/// coordinates [offset, offset + cardinality) encode one categorical
/// dimension with `cardinality` choices.
struct CategoricalBlock {
    std::size_t offset = 0;
    std::size_t cardinality = 0;
};

/// ARD squared-exponential kernel with a Hamming term for categorical
/// one-hot blocks (the mixed-space generalization of paper Eq. 9):
///
///   k(a, b) = k0 * exp(-sum_{i numeric} k_i (a_i - b_i)^2
///                      - lambda * sum_{c categorical} [cat_c(a) != cat_c(b)])
///
/// where cat_c(x) is the argmax of block c (points are expected to be
/// feasible one-hot encodings; argmax makes near-one-hot queries sane too).
/// With no categorical blocks this is paper Eq. 9 term for term, which is
/// why ArdSquaredExponential is this class without blocks — the
/// bit-compatibility contract the dropout-only ParamSpace path relies on.
class MixedArdSquaredExponential : public Kernel {
public:
    /// `inverse_length_scales` has one entry per encoded coordinate
    /// (entries under categorical blocks are ignored); `blocks` must be
    /// sorted, non-overlapping, in range, with cardinality >= 2;
    /// `hamming_weight` is lambda (> 0).
    MixedArdSquaredExponential(std::vector<double> inverse_length_scales,
                               std::vector<CategoricalBlock> blocks,
                               double hamming_weight, double amplitude = 1.0);

    double operator()(const Point& a, const Point& b) const override;
    std::string describe() const override;

    /// Packed cross block: the numeric coordinates of the queries are
    /// packed once with the candidates contiguous, and every point's
    /// categorical choices are computed once instead of once per pair.
    /// Each element keeps operator()'s order (numeric coordinates
    /// ascending, then the blocks in order) and its scalar std::exp, so
    /// the block is bit-identical to the per-pair default.
    linalg::Matrix cross_matrix(const std::vector<Point>& queries,
                                const std::vector<Point>& xs) const override;

    const std::vector<double>& inverse_length_scales() const {
        return inv_scales_;
    }
    double amplitude() const { return amplitude_; }
    const std::vector<CategoricalBlock>& blocks() const { return blocks_; }
    double hamming_weight() const { return hamming_weight_; }

private:
    std::vector<double> inv_scales_;
    std::vector<CategoricalBlock> blocks_;
    std::vector<char> is_categorical_;  // per-coordinate membership mask
    double hamming_weight_;
    double amplitude_;
};

/// Paper Eq. 9: k0 * exp(-sum_i k_i (a_i - b_i)^2) — the no-block case of
/// MixedArdSquaredExponential, which computes it term for term.
class ArdSquaredExponential : public MixedArdSquaredExponential {
public:
    /// `inverse_length_scales` are the k_i (one per input dimension);
    /// `amplitude` is k0.  All must be positive.
    ArdSquaredExponential(std::vector<double> inverse_length_scales,
                          double amplitude = 1.0);

    /// Isotropic convenience: all k_i = inv_scale.
    ArdSquaredExponential(std::size_t dims, double inv_scale,
                          double amplitude = 1.0);

    std::string describe() const override;
};

/// Matern-5/2 kernel with a single length scale (ablation alternative).
class Matern52 : public Kernel {
public:
    explicit Matern52(double length_scale, double amplitude = 1.0);

    double operator()(const Point& a, const Point& b) const override;
    std::string describe() const override;

private:
    double length_scale_;
    double amplitude_;
};

}  // namespace bayesft::bayesopt
