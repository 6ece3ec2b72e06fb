// Tests for the double-precision linear algebra behind the GP surrogate.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.hpp"
#include "utils/rng.hpp"

namespace bayesft::linalg {
namespace {

/// Random symmetric positive-definite matrix A = B B^T + n I.
Matrix random_spd(std::size_t n, Rng& rng) {
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
    }
    Matrix a = b * b.transposed();
    a.add_diagonal(static_cast<double>(n));
    return a;
}

TEST(Matrix, IdentityAndIndexing) {
    const Matrix eye = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(eye(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
    EXPECT_EQ(eye.rows(), 3U);
}

TEST(Matrix, MultiplyKnownValues) {
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix b(2, 2, {5, 6, 7, 8});
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
    Matrix a(2, 3);
    Matrix b(2, 2);
    EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
    Matrix a(2, 3, {1, 0, 2, 0, 1, 3});
    const Vector y = a * Vector{1, 2, 3};
    EXPECT_DOUBLE_EQ(y[0], 7.0);
    EXPECT_DOUBLE_EQ(y[1], 11.0);
}

TEST(Matrix, TransposedSwapsIndices) {
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    const Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3U);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, AddDiagonalRequiresSquare) {
    Matrix a(2, 3);
    EXPECT_THROW(a.add_diagonal(1.0), std::invalid_argument);
}

TEST(VectorOps, DotAndNorm) {
    EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
    EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
    EXPECT_THROW(dot({1}, {1, 2}), std::invalid_argument);
}

TEST(Cholesky, ReconstructsMatrix) {
    Rng rng(1);
    const Matrix a = random_spd(8, rng);
    const Matrix l = cholesky(a);
    const Matrix rebuilt = l * l.transposed();
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 8; ++j) {
            EXPECT_NEAR(rebuilt(i, j), a(i, j), 1e-9);
        }
    }
}

TEST(Cholesky, FactorIsLowerTriangular) {
    Rng rng(2);
    const Matrix l = cholesky(random_spd(6, rng));
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t j = i + 1; j < 6; ++j) {
            EXPECT_DOUBLE_EQ(l(i, j), 0.0);
        }
    }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
    Matrix a(2, 2, {1, 2, 2, 1});  // eigenvalues 3 and -1
    EXPECT_THROW(cholesky(a), std::runtime_error);
}

TEST(Cholesky, RejectsNonSquare) {
    EXPECT_THROW(cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, JitterRecoversNearSingular) {
    // Rank-deficient Gram matrix (duplicated points) — exactly the situation
    // BO creates when it proposes the same alpha twice.
    Matrix a(2, 2, {1, 1, 1, 1});
    EXPECT_THROW(cholesky(a), std::runtime_error);
    EXPECT_NO_THROW(cholesky_with_jitter(a));
}

TEST(Solve, LowerTriangularSolve) {
    Matrix l(2, 2, {2, 0, 1, 3});
    const Vector y = solve_lower(l, {4, 10});
    EXPECT_DOUBLE_EQ(y[0], 2.0);
    EXPECT_DOUBLE_EQ(y[1], (10.0 - 2.0) / 3.0);
}

TEST(Solve, CholeskySolveInvertsSystem) {
    Rng rng(3);
    const Matrix a = random_spd(10, rng);
    Vector b(10);
    for (double& v : b) v = rng.normal();
    const Matrix l = cholesky(a);
    const Vector x = cholesky_solve(l, b);
    const Vector reconstructed = a * x;
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_NEAR(reconstructed[i], b[i], 1e-8);
    }
}

TEST(Solve, DimensionMismatchThrows) {
    Matrix l(2, 2, {1, 0, 0, 1});
    EXPECT_THROW(solve_lower(l, {1, 2, 3}), std::invalid_argument);
    EXPECT_THROW(solve_lower_transposed(l, {1, 2, 3}), std::invalid_argument);
}

TEST(Cholesky, ParallelPathMatchesSerialBitwise) {
    // n = 224 crosses the column-parallel threshold (192); the factor must
    // be bit-identical to the serial recurrence computed by hand here.
    Rng rng(11);
    const std::size_t n = 224;
    const Matrix a = random_spd(n, rng);
    const Matrix l = cholesky(a);
    Matrix ref(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a(i, j);
            for (std::size_t k = 0; k < j; ++k) sum -= ref(i, k) * ref(j, k);
            ref(i, j) = (i == j) ? std::sqrt(sum) : sum / ref(j, j);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            EXPECT_EQ(l(i, j), ref(i, j)) << "element " << i << "," << j;
        }
    }
}

TEST(CholeskyAppend, MatchesFromScratchBitwise) {
    // Growing the factor one row at a time must land on exactly the bits a
    // from-scratch factorization of each leading block produces — the
    // incremental-GP contract (docs/optimizer-scaling.md).
    Rng rng(12);
    const std::size_t n = 24;
    const Matrix a = random_spd(n, rng);
    Matrix grown = cholesky(Matrix(1, 1, {a(0, 0)}));
    for (std::size_t m = 1; m < n; ++m) {
        Vector k(m);
        for (std::size_t j = 0; j < m; ++j) k[j] = a(m, j);
        ASSERT_TRUE(cholesky_append_row(grown, k, a(m, m)));
        Matrix block(m + 1, m + 1);
        for (std::size_t i = 0; i <= m; ++i) {
            for (std::size_t j = 0; j <= m; ++j) block(i, j) = a(i, j);
        }
        const Matrix direct = cholesky(block);
        for (std::size_t i = 0; i <= m; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                ASSERT_EQ(grown(i, j), direct(i, j))
                    << "block " << m << " element " << i << "," << j;
            }
        }
    }
}

TEST(CholeskyAppend, RejectsNonPositiveDefiniteRow) {
    // Appending a duplicate of an existing point makes the grown matrix
    // singular: the append must refuse (false) and leave the factor
    // untouched, mirroring cholesky()'s throw on the full matrix.
    // [[1, 1], [1, 1]] — the same singular matrix the Cholesky jitter test
    // pins as rejected from scratch; the pivot is exactly 0 in doubles.
    Matrix l = cholesky(Matrix(1, 1, {1.0}));
    const Matrix before = l;
    EXPECT_FALSE(cholesky_append_row(l, Vector{1.0}, 1.0));
    EXPECT_EQ(l(0, 0), before(0, 0));
    EXPECT_EQ(l.rows(), 1U);
}

TEST(CholeskyTruncate, IsExactDowndate) {
    // Rows finalize top-down, so truncating the factor equals factorizing
    // the leading block — bit-for-bit (the fantasy-rollback contract).
    Rng rng(13);
    const Matrix a = random_spd(12, rng);
    Matrix l = cholesky(a);
    cholesky_truncate(l, 7);
    Matrix block(7, 7);
    for (std::size_t i = 0; i < 7; ++i) {
        for (std::size_t j = 0; j < 7; ++j) block(i, j) = a(i, j);
    }
    const Matrix direct = cholesky(block);
    ASSERT_EQ(l.rows(), 7U);
    for (std::size_t i = 0; i < 7; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            EXPECT_EQ(l(i, j), direct(i, j));
        }
    }
}

TEST(SolveMulti, MatchesPerColumnSolvesBitwise) {
    // Each RHS column of the multi-solve must carry the identical bits the
    // one-vector solve_lower produces (the pooled-posterior contract).
    // 45 columns: one full 32-column pool chunk plus a ragged tail.
    Rng rng(14);
    const std::size_t n = 9, m = 45;
    const Matrix l = cholesky(random_spd(n, rng));
    Matrix rhs(n, m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < m; ++c) rhs(i, c) = rng.normal();
    }
    const Matrix original = rhs;
    solve_lower_multi_inplace(l, rhs);
    for (std::size_t c = 0; c < m; ++c) {
        Vector b(n);
        for (std::size_t i = 0; i < n; ++i) b[i] = original(i, c);
        const Vector x = solve_lower(l, b);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(rhs(i, c), x[i]) << "column " << c << " row " << i;
        }
    }
}

TEST(SolveLower, GroupedRowsMatchRowByRowLoopBitwise) {
    // solve_lower runs rows in interleaved groups; every element must still
    // get the row-by-row loop's bits (subtract in ascending k, then divide).
    for (const std::size_t n : {1, 7, 8, 9, 17, 100}) {
        Rng rng(30 + n);
        const Matrix l = cholesky(random_spd(n, rng));
        Vector b(n);
        for (double& v : b) v = rng.normal();
        Vector expected(n);
        for (std::size_t i = 0; i < n; ++i) {
            double acc = b[i];
            for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * expected[k];
            expected[i] = acc / l(i, i);
        }
        const Vector y = solve_lower(l, b);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(y[i], expected[i]) << "n=" << n << " row " << i;
        }
    }
}

TEST(SolveMulti, RejectsMismatchedShapes) {
    const Matrix l = cholesky(Matrix(2, 2, {4, 0, 0, 9}));
    Matrix rhs(3, 3);
    EXPECT_THROW(solve_lower_multi_inplace(l, rhs), std::invalid_argument);
}

TEST(LogDet, MatchesDirectComputation) {
    // diag(4, 9): det = 36, log det = log 36.
    Matrix a(2, 2, {4, 0, 0, 9});
    const Matrix l = cholesky(a);
    EXPECT_NEAR(log_det_from_cholesky(l), std::log(36.0), 1e-12);
}

TEST(LogDet, RandomSpdAgainstGaussianElimination) {
    Rng rng(4);
    const Matrix a = random_spd(5, rng);
    // LU-free check: product of Cholesky pivots squared equals det(A).
    const Matrix l = cholesky(a);
    double direct = 1.0;
    for (std::size_t i = 0; i < 5; ++i) direct *= l(i, i) * l(i, i);
    EXPECT_NEAR(log_det_from_cholesky(l), std::log(direct), 1e-9);
}

}  // namespace
}  // namespace bayesft::linalg
