#include "bayesopt/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "utils/parallel.hpp"

namespace bayesft::bayesopt {

linalg::Matrix Kernel::gram(const std::vector<Point>& xs) const {
    const std::size_t n = xs.size();
    linalg::Matrix k(n, n);
    if (n < 128) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                const double v = (*this)(xs[i], xs[j]);
                k(i, j) = v;
                k(j, i) = v;
            }
        }
        return k;
    }
    // Pool-parallel fill: each chunk owns whole rows of the lower
    // triangle (disjoint outputs), then a second pass mirrors it.  Every
    // element is the same single kernel evaluation the serial loop makes,
    // so the matrix is bit-identical at every thread count.
    parallel_for(0, n, 8, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                k(i, j) = (*this)(xs[i], xs[j]);
            }
        }
    });
    parallel_for(0, n, 8, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) k(i, j) = k(j, i);
        }
    });
    return k;
}

linalg::Vector Kernel::cross(const Point& x,
                             const std::vector<Point>& xs) const {
    linalg::Vector v(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) v[i] = (*this)(x, xs[i]);
    return v;
}

linalg::Matrix Kernel::cross_matrix(const std::vector<Point>& queries,
                                    const std::vector<Point>& xs) const {
    const std::size_t m = queries.size();
    const std::size_t n = xs.size();
    linalg::Matrix c(n, m);
    // Rows have disjoint outputs, so the split over the pool is
    // bit-deterministic.
    const std::size_t grain = std::max<std::size_t>(1, 1024 / (m + 1));
    parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t r = 0; r < m; ++r) {
                c(i, r) = (*this)(queries[r], xs[i]);
            }
        }
    });
    return c;
}

namespace {

/// Argmax coordinate of one one-hot block (first winner on ties).
std::size_t block_argmax(const Point& p, const CategoricalBlock& block) {
    std::size_t best = block.offset;
    for (std::size_t i = block.offset + 1;
         i < block.offset + block.cardinality; ++i) {
        if (p[i] > p[best]) best = i;
    }
    return best - block.offset;
}

}  // namespace

MixedArdSquaredExponential::MixedArdSquaredExponential(
    std::vector<double> inverse_length_scales,
    std::vector<CategoricalBlock> blocks, double hamming_weight,
    double amplitude)
    : inv_scales_(std::move(inverse_length_scales)),
      blocks_(std::move(blocks)),
      is_categorical_(inv_scales_.size(), 0),
      hamming_weight_(hamming_weight),
      amplitude_(amplitude) {
    if (inv_scales_.empty()) {
        throw std::invalid_argument("MixedArdSE: empty scales");
    }
    if (!(hamming_weight > 0.0)) {
        throw std::invalid_argument("MixedArdSE: hamming_weight must be > 0");
    }
    if (!(amplitude > 0.0)) {
        throw std::invalid_argument("MixedArdSE: amplitude must be > 0");
    }
    std::size_t next_free = 0;
    for (const CategoricalBlock& block : blocks_) {
        if (block.cardinality < 2 || block.offset < next_free ||
            block.offset + block.cardinality > inv_scales_.size()) {
            throw std::invalid_argument(
                "MixedArdSE: malformed categorical blocks");
        }
        next_free = block.offset + block.cardinality;
        for (std::size_t i = block.offset;
             i < block.offset + block.cardinality; ++i) {
            is_categorical_[i] = 1;
        }
    }
    for (std::size_t i = 0; i < inv_scales_.size(); ++i) {
        if (!is_categorical_[i] && !(inv_scales_[i] > 0.0)) {
            throw std::invalid_argument(
                "MixedArdSE: numeric inverse length scales must be > 0");
        }
    }
}

double MixedArdSquaredExponential::operator()(const Point& a,
                                              const Point& b) const {
    if (a.size() != inv_scales_.size() || b.size() != inv_scales_.size()) {
        throw std::invalid_argument("MixedArdSE: dimension mismatch");
    }
    double exponent = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (is_categorical_[i]) continue;
        const double d = a[i] - b[i];
        exponent += inv_scales_[i] * d * d;
    }
    for (const CategoricalBlock& block : blocks_) {
        if (block_argmax(a, block) != block_argmax(b, block)) {
            exponent += hamming_weight_;
        }
    }
    return amplitude_ * std::exp(-exponent);
}

linalg::Matrix MixedArdSquaredExponential::cross_matrix(
    const std::vector<Point>& queries, const std::vector<Point>& xs) const {
    const std::size_t m = queries.size();
    const std::size_t n = xs.size();
    const std::size_t dims = inv_scales_.size();
    std::vector<std::size_t> numeric;
    for (std::size_t d = 0; d < dims; ++d) {
        if (!is_categorical_[d]) numeric.push_back(d);
    }
    const std::size_t nb = blocks_.size();
    // qnum[j * m + r]: numeric coordinate j of query r; qcat[c * m + r]:
    // query r's choice in block c.
    std::vector<double> qnum(numeric.size() * m);
    std::vector<std::size_t> qcat(nb * m);
    for (std::size_t r = 0; r < m; ++r) {
        const Point& q = queries[r];
        if (q.size() != dims) {
            throw std::invalid_argument("MixedArdSE: dimension mismatch");
        }
        for (std::size_t j = 0; j < numeric.size(); ++j) {
            qnum[j * m + r] = q[numeric[j]];
        }
        for (std::size_t c = 0; c < nb; ++c) {
            qcat[c * m + r] = block_argmax(q, blocks_[c]);
        }
    }
    for (const Point& x : xs) {
        if (x.size() != dims) {
            throw std::invalid_argument("MixedArdSE: dimension mismatch");
        }
    }
    linalg::Matrix out(n, m);
    const std::size_t grain = std::max<std::size_t>(1, 1024 / (m + 1));
    parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const Point& x = xs[i];
            double* e = out.data() + i * m;
            std::fill_n(e, m, 0.0);
            for (std::size_t j = 0; j < numeric.size(); ++j) {
                const double xj = x[numeric[j]];
                const double scale = inv_scales_[numeric[j]];
                const double* q = qnum.data() + j * m;
                for (std::size_t r = 0; r < m; ++r) {
                    const double d = q[r] - xj;
                    e[r] += scale * d * d;
                }
            }
            // Adding +0.0 where the choices agree leaves e[r] unchanged:
            // it starts at +0.0 and every term is >= +0.0.
            for (std::size_t c = 0; c < nb; ++c) {
                const std::size_t xc = block_argmax(x, blocks_[c]);
                const std::size_t* q = qcat.data() + c * m;
                for (std::size_t r = 0; r < m; ++r) {
                    e[r] += q[r] != xc ? hamming_weight_ : 0.0;
                }
            }
            for (std::size_t r = 0; r < m; ++r) {
                e[r] = amplitude_ * std::exp(-e[r]);
            }
        }
    });
    return out;
}

std::string MixedArdSquaredExponential::describe() const {
    std::ostringstream os;
    os << "MixedARD-SE(d=" << inv_scales_.size() << ", cat="
       << blocks_.size() << ", lambda=" << hamming_weight_
       << ", k0=" << amplitude_ << ")";
    return os.str();
}

ArdSquaredExponential::ArdSquaredExponential(
    std::vector<double> inverse_length_scales, double amplitude)
    : MixedArdSquaredExponential(std::move(inverse_length_scales), {},
                                 /*hamming_weight=*/1.0, amplitude) {}

ArdSquaredExponential::ArdSquaredExponential(std::size_t dims,
                                             double inv_scale,
                                             double amplitude)
    : ArdSquaredExponential(std::vector<double>(dims, inv_scale), amplitude) {}

std::string ArdSquaredExponential::describe() const {
    std::ostringstream os;
    os << "ARD-SE(d=" << inverse_length_scales().size()
       << ", k0=" << amplitude() << ")";
    return os.str();
}

Matern52::Matern52(double length_scale, double amplitude)
    : length_scale_(length_scale), amplitude_(amplitude) {
    if (!(length_scale > 0.0) || !(amplitude > 0.0)) {
        throw std::invalid_argument("Matern52: parameters must be > 0");
    }
}

double Matern52::operator()(const Point& a, const Point& b) const {
    if (a.size() != b.size()) {
        throw std::invalid_argument("Matern52: dimension mismatch");
    }
    double sq = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        sq += d * d;
    }
    const double r = std::sqrt(sq) / length_scale_;
    const double sqrt5_r = std::sqrt(5.0) * r;
    return amplitude_ * (1.0 + sqrt5_r + 5.0 / 3.0 * r * r) *
           std::exp(-sqrt5_r);
}

std::string Matern52::describe() const {
    std::ostringstream os;
    os << "Matern52(l=" << length_scale_ << ", k0=" << amplitude_ << ")";
    return os.str();
}

}  // namespace bayesft::bayesopt
