#pragma once
// Small dense double-precision linear algebra for the Gaussian-process
// surrogate: the GP needs Cholesky factorization of kernel matrices,
// triangular solves, and log-determinants (for the marginal likelihood).
// Double precision is used here (unlike the float NN stack) because kernel
// matrices from clustered Bayesian-optimization trials are ill-conditioned.

#include <cstddef>
#include <string>
#include <vector>

namespace bayesft::linalg {

using Vector = std::vector<double>;

/// Dense row-major double matrix with value semantics.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
    Matrix(std::size_t rows, std::size_t cols, std::vector<double> values);

    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return data_.empty(); }

    double& operator()(std::size_t i, std::size_t j) {
        return data_[i * cols_ + j];
    }
    double operator()(std::size_t i, std::size_t j) const {
        return data_[i * cols_ + j];
    }

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    Matrix transposed() const;

    /// this += scale * I (diagonal jitter; matrix must be square).
    void add_diagonal(double scale);

    std::string to_string() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& a, const Vector& x);

/// Inner product of two equal-length vectors.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm(const Vector& a);

/// Lower-triangular Cholesky factor L with A = L L^T.
/// Throws std::runtime_error if A is not positive definite.
///
/// Large factorizations run column-by-column with the rows of each column
/// split over the global thread pool; every element is still computed with
/// the exact scalar recurrence of the serial loop (same ascending-k dot,
/// then one divide or sqrt), so the factor is bit-identical for every
/// thread count and to the historical serial implementation.
Matrix cholesky(const Matrix& a);

/// Cholesky with escalating diagonal jitter (up to `max_tries` powers of 10
/// starting at `initial_jitter`).  Returns the factor of (A + jitter*I).
Matrix cholesky_with_jitter(Matrix a, double initial_jitter = 1e-10,
                            int max_tries = 10);

/// cholesky_with_jitter that also reports the jitter level that succeeded
/// (0.0 when the matrix factorized unmodified).  Callers that maintain an
/// incremental factor need this: rank-1 appends are only valid against a
/// jitter-free factor (docs/optimizer-scaling.md).
Matrix cholesky_with_jitter_info(Matrix a, double& applied_jitter,
                                 double initial_jitter = 1e-10,
                                 int max_tries = 10);

/// Rank-1 append: grows the lower factor L of an n x n matrix A into the
/// factor of the (n+1) x (n+1) matrix [[A, k], [k^T, diag]] in O(n^2).
/// The new row is computed with exactly the recurrence cholesky() uses for
/// its last row (forward substitution in ascending-k order, then one
/// sqrt), so the grown factor is bit-identical to refactorizing from
/// scratch.  Returns false — leaving `l` untouched — when the new pivot is
/// not positive (the grown matrix is not numerically positive definite;
/// callers fall back to a full jittered refactorization, exactly where a
/// from-scratch cholesky() of the grown matrix would have thrown).
bool cholesky_append_row(Matrix& l, const Vector& k, double diag);

/// Rank-1 downdate by truncation: shrinks the factor back to its leading
/// n x n block.  Because cholesky() finalizes rows top-down, the leading
/// block of a factor IS the factor of the leading block of the matrix —
/// truncation after cholesky_append_row restores the pre-append factor
/// bit-for-bit (constant-liar fantasy rollback).  Requires n <= l.rows().
void cholesky_truncate(Matrix& l, std::size_t n);

/// Multi-RHS forward solve: treats each COLUMN c of the n x m matrix
/// `rhs` as an independent right-hand side and solves L y_c = rhs_c in
/// place.  The SIMD kernel (simd::KernelTable::solve_lower_multi_f64)
/// holds the columns in vector lanes and runs each one's solve_lower()
/// recurrence, so column c of the result is bit-identical to
/// solve_lower(l, column c) on every tier; blocks of columns are split
/// over the global thread pool (disjoint outputs => bit-identical for
/// every thread count).  This is the batched-acquisition path: one solve
/// over the whole candidate pool, candidates contiguous along each row.
void solve_lower_multi_inplace(const Matrix& l, Matrix& rhs);

/// Solves L y = b for lower-triangular L.
Vector solve_lower(const Matrix& l, const Vector& b);

/// Solves L^T x = y for lower-triangular L.
Vector solve_lower_transposed(const Matrix& l, const Vector& y);

/// Solves A x = b via the given Cholesky factor L of A.
Vector cholesky_solve(const Matrix& l, const Vector& b);

/// log det(A) = 2 * sum(log diag(L)) from the Cholesky factor L.
double log_det_from_cholesky(const Matrix& l);

}  // namespace bayesft::linalg
