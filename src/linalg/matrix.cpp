#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "simd/kernels.hpp"
#include "utils/parallel.hpp"

namespace bayesft::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
    if (data_.size() != rows * cols) {
        throw std::invalid_argument("Matrix: value count mismatch");
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    }
    return t;
}

void Matrix::add_diagonal(double scale) {
    if (rows_ != cols_) {
        throw std::invalid_argument("Matrix::add_diagonal: not square");
    }
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += scale;
}

std::string Matrix::to_string() const {
    std::ostringstream os;
    os << "Matrix(" << rows_ << "x" << cols_ << ")";
    return os.str();
}

Matrix operator*(const Matrix& a, const Matrix& b) {
    if (a.cols() != b.rows()) {
        throw std::invalid_argument("Matrix multiply: dimension mismatch");
    }
    // i-k-j order: each element starts from +0 and adds its products in
    // ascending k.
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
        }
    }
    return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
    if (a.cols() != x.size()) {
        throw std::invalid_argument("Matrix-vector multiply: dimension mismatch");
    }
    Vector y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
        y[i] = acc;
    }
    return y;
}

double dot(const Vector& a, const Vector& b) {
    if (a.size() != b.size()) {
        throw std::invalid_argument("dot: size mismatch");
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
    return acc;
}

double norm(const Vector& a) { return std::sqrt(dot(a, a)); }

namespace {

/// Matrices below this order factorize with the plain serial loop: the
/// per-column parallel_for barrier costs more than it saves.  Both code
/// paths compute every element with the identical scalar recurrence, so
/// the threshold is a pure performance knob, never a results knob.
constexpr std::size_t kParallelCholeskyMinDim = 192;

[[noreturn]] void cholesky_pivot_failure(std::size_t i) {
    throw std::runtime_error(
        "cholesky: matrix not positive definite at pivot " +
        std::to_string(i));
}

/// Rows per group in the single-RHS forward substitution.
constexpr std::size_t kRowGroup = 8;

/// Columns per pool chunk of the multi-RHS solve: a multiple of every
/// tier's lane block, so no chunk boundary splits a block.
constexpr std::size_t kSolveColumns = 32;

/// Forward substitution L y = b for one right-hand side.  Rows go in
/// groups of kRowGroup: the group's terms for k below its first row run
/// as independent chains, then the group's own triangle finishes row by
/// row.  Each element still starts from b[i], subtracts l(i, k) * y[k]
/// for k ascending and divides once by l(i, i), so the bits are those of
/// the plain row-by-row loop.
void forward_substitute(const Matrix& l, const double* b, double* y) {
    const std::size_t n = l.rows();
    std::size_t i0 = 0;
    for (; i0 + kRowGroup <= n; i0 += kRowGroup) {
        double acc[kRowGroup];
        const double* rows[kRowGroup];
        for (std::size_t g = 0; g < kRowGroup; ++g) {
            acc[g] = b[i0 + g];
            rows[g] = l.data() + (i0 + g) * n;
        }
        for (std::size_t k = 0; k < i0; ++k) {
            const double yk = y[k];
            for (std::size_t g = 0; g < kRowGroup; ++g) {
                acc[g] -= rows[g][k] * yk;
            }
        }
        for (std::size_t g = 0; g < kRowGroup; ++g) {
            for (std::size_t k = i0; k < i0 + g; ++k) {
                acc[g] -= rows[g][k] * y[k];
            }
            y[i0 + g] = acc[g] / rows[g][i0 + g];
        }
    }
    for (; i0 < n; ++i0) {
        double acc = b[i0];
        for (std::size_t k = 0; k < i0; ++k) acc -= l(i0, k) * y[k];
        y[i0] = acc / l(i0, i0);
    }
}

}  // namespace

Matrix cholesky(const Matrix& a) {
    if (a.rows() != a.cols()) {
        throw std::invalid_argument("cholesky: matrix not square");
    }
    const std::size_t n = a.rows();
    Matrix l(n, n);
    if (n < kParallelCholeskyMinDim) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                double acc = a(i, j);
                for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
                if (i == j) {
                    if (acc <= 0.0 || !std::isfinite(acc)) {
                        cholesky_pivot_failure(i);
                    }
                    l(i, j) = std::sqrt(acc);
                } else {
                    l(i, j) = acc / l(j, j);
                }
            }
        }
        return l;
    }
    // Column-oriented schedule: finalize pivot j, then fill the rest of
    // column j with the rows split over the pool.  Every element still
    // runs the exact scalar recurrence above (ascending-k dot, then one
    // divide or sqrt) against already-finalized columns, so the factor —
    // and the index of the first failing pivot — is bit-identical to the
    // serial row-major loop at every thread count.
    for (std::size_t j = 0; j < n; ++j) {
        double pivot = a(j, j);
        for (std::size_t k = 0; k < j; ++k) pivot -= l(j, k) * l(j, k);
        if (pivot <= 0.0 || !std::isfinite(pivot)) cholesky_pivot_failure(j);
        l(j, j) = std::sqrt(pivot);
        // Per-row work grows with j; keep chunks at ~16k multiply-adds so
        // early (cheap) columns do not drown in scheduling overhead.
        const std::size_t grain = std::max<std::size_t>(4, 16384 / (j + 1));
        parallel_for(j + 1, n, grain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                double acc = a(i, j);
                for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
                l(i, j) = acc / l(j, j);
            }
        });
    }
    return l;
}

Matrix cholesky_with_jitter(Matrix a, double initial_jitter, int max_tries) {
    double applied = 0.0;
    return cholesky_with_jitter_info(std::move(a), applied, initial_jitter,
                                     max_tries);
}

Matrix cholesky_with_jitter_info(Matrix a, double& applied_jitter,
                                 double initial_jitter, int max_tries) {
    // Each retry factors original + jitter*I, not the already-jittered
    // matrix, so the effective regularization is exactly the current jitter
    // level rather than a compounding sum of all previous levels.
    const Matrix original = a;
    double jitter = initial_jitter;
    applied_jitter = 0.0;
    for (int attempt = 0; attempt < max_tries; ++attempt) {
        try {
            return cholesky(a);
        } catch (const std::runtime_error&) {
            a = original;
            a.add_diagonal(jitter);
            applied_jitter = jitter;
            jitter *= 10.0;
        }
    }
    return cholesky(a);  // Last attempt: let the failure propagate.
}

bool cholesky_append_row(Matrix& l, const Vector& k, double diag) {
    const std::size_t n = l.rows();
    if (l.cols() != n || k.size() != n) {
        throw std::invalid_argument("cholesky_append_row: dimension mismatch");
    }
    // The new off-diagonal row is the forward substitution L c = k — the
    // identical recurrence cholesky() runs for its last row, so the grown
    // factor matches a from-scratch refactorization bit-for-bit.
    Vector c(n);
    forward_substitute(l, k.data(), c.data());
    double pivot = diag;
    for (std::size_t t = 0; t < n; ++t) pivot -= c[t] * c[t];
    // Exactly cholesky()'s pivot test: when this fails, a from-scratch
    // factorization of the grown matrix fails at the same pivot (its
    // leading block is this factor, finalized row by row).
    if (pivot <= 0.0 || !std::isfinite(pivot)) return false;
    Matrix grown(n + 1, n + 1);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l(i, j);
    }
    for (std::size_t t = 0; t < n; ++t) grown(n, t) = c[t];
    grown(n, n) = std::sqrt(pivot);
    l = std::move(grown);
    return true;
}

void cholesky_truncate(Matrix& l, std::size_t n) {
    if (l.cols() != l.rows() || n > l.rows()) {
        throw std::invalid_argument("cholesky_truncate: bad target size");
    }
    if (n == l.rows()) return;
    Matrix cut(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) cut(i, j) = l(i, j);
    }
    l = std::move(cut);
}

void solve_lower_multi_inplace(const Matrix& l, Matrix& rhs) {
    const std::size_t n = l.rows();
    if (l.cols() != n || rhs.rows() != n) {
        throw std::invalid_argument(
            "solve_lower_multi_inplace: dimension mismatch");
    }
    // Columns are independent right-hand sides with disjoint outputs, and
    // the kernel runs each one's solve_lower() recurrence in a vector
    // lane, so the result is bit-identical to per-column solve_lower calls
    // on every tier and at every thread count.  Grain keeps chunks at
    // ~64k multiply-subtracts.
    const std::size_t m = rhs.cols();
    const auto solve = simd::kernels().solve_lower_multi_f64;
    const std::size_t blocks = (m + kSolveColumns - 1) / kSolveColumns;
    const std::size_t grain = std::max<std::size_t>(1, 4096 / (n * n + 1));
    parallel_for(0, blocks, grain, [&](std::size_t lo, std::size_t hi) {
        const std::size_t c0 = lo * kSolveColumns;
        const std::size_t c1 = std::min(m, hi * kSolveColumns);
        solve(l.data(), n, rhs.data() + c0, m, n, c1 - c0);
    });
}

Vector solve_lower(const Matrix& l, const Vector& b) {
    const std::size_t n = l.rows();
    if (l.cols() != n || b.size() != n) {
        throw std::invalid_argument("solve_lower: dimension mismatch");
    }
    Vector y(n);
    forward_substitute(l, b.data(), y.data());
    return y;
}

Vector solve_lower_transposed(const Matrix& l, const Vector& y) {
    const std::size_t n = l.rows();
    if (l.cols() != n || y.size() != n) {
        throw std::invalid_argument("solve_lower_transposed: dimension mismatch");
    }
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x[k];
        x[ii] = acc / l(ii, ii);
    }
    return x;
}

Vector cholesky_solve(const Matrix& l, const Vector& b) {
    return solve_lower_transposed(l, solve_lower(l, b));
}

double log_det_from_cholesky(const Matrix& l) {
    double acc = 0.0;
    for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
    return 2.0 * acc;
}

}  // namespace bayesft::linalg
