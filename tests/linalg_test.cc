#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.h"
#include "linalg/packed_sym_matrix.h"
#include "linalg/sparse_vector.h"
#include "linalg/vector_ops.h"
#include "rng/rng.h"

namespace pdm {
namespace {

// ---------------------------------------------------------------- vectors

TEST(VectorOps, ZerosOnesBasis) {
  EXPECT_EQ(Zeros(3), (Vector{0, 0, 0}));
  EXPECT_EQ(Ones(2), (Vector{1, 1}));
  EXPECT_EQ(BasisVector(3, 1), (Vector{0, 1, 0}));
}

TEST(VectorOps, DotAndNorms) {
  Vector a{1, 2, 3};
  Vector b{4, -5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4 - 10 + 18);
  EXPECT_DOUBLE_EQ(Norm2(a), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(NormInf(b), 6.0);
  EXPECT_DOUBLE_EQ(Sum(a), 6.0);
}

TEST(VectorOps, ScaleAxpyAddSub) {
  Vector a{1, 2};
  ScaleInPlace(&a, 2.0);
  EXPECT_EQ(a, (Vector{2, 4}));
  Vector y{1, 1};
  AxpyInPlace(3.0, a, &y);
  EXPECT_EQ(y, (Vector{7, 13}));
  EXPECT_EQ(Add(a, y), (Vector{9, 17}));
  EXPECT_EQ(Sub(y, a), (Vector{5, 9}));
  EXPECT_EQ(Scaled(a, 0.5), (Vector{1, 2}));
}

TEST(VectorOps, RescaleToNorm) {
  Vector a{3, 4};
  double old_norm = RescaleToNorm(&a, 10.0);
  EXPECT_DOUBLE_EQ(old_norm, 5.0);
  EXPECT_NEAR(Norm2(a), 10.0, 1e-12);
  Vector zero{0, 0};
  EXPECT_DOUBLE_EQ(RescaleToNorm(&zero, 5.0), 0.0);
  EXPECT_EQ(zero, (Vector{0, 0}));
}

// ---------------------------------------------------------------- matrices

TEST(Matrix, IdentityAndAccess) {
  Matrix id = Matrix::ScaledIdentity(3, 2.5);
  EXPECT_DOUBLE_EQ(id(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(id.Trace(), 7.5);
}

TEST(Matrix, FromRowsAndRow) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.Row(1), (Vector{3, 4}));
}

TEST(Matrix, MatVec) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.MatVec({1, 1}), (Vector{3, 7}));
  EXPECT_EQ(m.MatTVec({1, 1}), (Vector{4, 6}));
}

TEST(Matrix, AddRankOne) {
  Matrix m(2, 2);
  m.AddRankOne(2.0, {1, 3});
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 18.0);
}

TEST(Matrix, Symmetrize) {
  Matrix m(2, 2);
  m(0, 1) = 1.0;
  m(1, 0) = 3.0;
  m.Symmetrize();
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 2.0);
}

TEST(Matrix, MatMulAndTranspose) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  Matrix at = a.Transposed();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m = Matrix::FromRows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(Matrix, ScaleInPlace) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  m.Scale(10.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 40.0);
}

// ---------------------------------------------------------------- sparse

TEST(SparseVector, AppendAndDot) {
  SparseVector sv;
  sv.Append(1, 2.0);
  sv.Append(4, -1.0);
  EXPECT_EQ(sv.nnz(), 2);
  Vector dense{1, 10, 100, 1000, 10000};
  EXPECT_DOUBLE_EQ(sv.Dot(dense), 20.0 - 10000.0);
  EXPECT_DOUBLE_EQ(sv.SquaredNorm(), 5.0);
}

TEST(SparseVector, ToDense) {
  SparseVector sv;
  sv.Append(0, 1.5);
  sv.Append(3, 2.5);
  EXPECT_EQ(sv.ToDense(4), (Vector{1.5, 0, 0, 2.5}));
}

// ------------------------------------- in-place / by-value equivalence

TEST(VectorOpsInPlace, IntoVariantsMatchByValueBitwise) {
  Rng rng(101);
  for (int n : {1, 3, 4, 7, 16, 33}) {
    Vector a = rng.GaussianVector(n);
    Vector b = rng.GaussianVector(n);
    // Deliberately dirty, wrongly-sized reused buffer.
    Vector out(static_cast<size_t>(n) + 5, -7.0);
    AddInto(a, b, &out);
    EXPECT_EQ(out, Add(a, b)) << "n=" << n;
    SubInto(a, b, &out);
    EXPECT_EQ(out, Sub(a, b)) << "n=" << n;
    ScaledInto(a, 1.75, &out);
    EXPECT_EQ(out, Scaled(a, 1.75)) << "n=" << n;
  }
}

TEST(VectorOpsInPlace, IntoVariantsAllowAliasing) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{0.5, -1.5, 4.0};
  Vector expected = Add(a, b);
  AddInto(a, b, &a);  // out aliases a
  EXPECT_EQ(a, expected);
}

TEST(MatrixInPlace, MatVecIntoMatchesByValueBitwise) {
  Rng rng(202);
  for (int n : {2, 5, 8, 13, 20}) {
    Matrix m(n, n);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) m(r, c) = rng.NextGaussian();
    }
    Vector x = rng.GaussianVector(n);
    Vector y(3, 99.0);  // dirty reused buffer
    m.MatVecInto(x, &y);
    EXPECT_EQ(y, m.MatVec(x)) << "n=" << n;
    m.MatTVecInto(x, &y);
    EXPECT_EQ(y, m.MatTVec(x)) << "n=" << n;
  }
}

TEST(VectorOps, RawDotMatchesVectorDotBitwise) {
  Rng rng(505);
  for (int n : {1, 3, 4, 7, 20, 50}) {
    Vector a = rng.GaussianVector(n);
    Vector b = rng.GaussianVector(n);
    ASSERT_EQ(Dot(a.data(), b.data(), a.size()), Dot(a, b)) << "n=" << n;
  }
}

TEST(MatrixInPlace, ReusedBufferStableAcrossCalls) {
  // Second call into the same buffer must not depend on the first's content.
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Vector y;
  m.MatVecInto({1, 1}, &y);
  EXPECT_EQ(y, (Vector{3, 7}));
  m.MatVecInto({2, 0}, &y);
  EXPECT_EQ(y, (Vector{2, 6}));
}

// ---------------------------------------------------------------- packed

// Random symmetric dense matrix plus its packed twin.
Matrix RandomSymmetric(int n, Rng* rng) {
  Matrix m(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      double v = rng->NextGaussian();
      m(r, c) = v;
      m(c, r) = v;
    }
  }
  return m;
}

TEST(PackedSymMatrix, IndexMappingAndAccessors) {
  PackedSymMatrix p(3);
  EXPECT_EQ(p.dim(), 3);
  EXPECT_EQ(p.packed_size(), static_cast<size_t>(6));
  p.At(0, 2) = 5.0;
  EXPECT_DOUBLE_EQ(p.At(2, 0), 5.0);  // either triangle maps to one slot
  p.At(1, 1) = -2.0;
  EXPECT_DOUBLE_EQ(p.At(1, 1), -2.0);
  PackedSymMatrix id = PackedSymMatrix::ScaledIdentity(3, 2.5);
  EXPECT_DOUBLE_EQ(id.At(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(id.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(id.Trace(), 7.5);
}

TEST(PackedSymMatrix, DenseRoundTripIsBitExact) {
  Rng rng(606);
  for (int n : {2, 3, 5, 8, 13, 20}) {
    Matrix dense = RandomSymmetric(n, &rng);
    PackedSymMatrix packed = PackedSymMatrix::FromDense(dense);
    Matrix back = packed.ToDense();
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        ASSERT_EQ(back(r, c), dense(r, c)) << "n=" << n << " " << r << "," << c;
      }
    }
    // Pack → dense → pack must reproduce the stored doubles exactly: the
    // property the snapshot codec leans on (shapes serialize dense).
    PackedSymMatrix again = PackedSymMatrix::FromDense(back);
    for (size_t i = 0; i < packed.packed_size(); ++i) {
      ASSERT_EQ(again.data()[i], packed.data()[i]) << "n=" << n << " i=" << i;
    }
  }
}

// Dims for the packed kernels: every n below 10 (full 4-row blocks, the
// 1-3 row tail, and tail-only matrices), the n=17/33 tail after several
// blocks, and the serving dims 20/32/64 (whole blocks only).
const int kPackedDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 20, 32, 33, 64};

// Rigorous forward-error bound γ_m = m·u/(1 − m·u) of an m-term float sum of
// products in any association order (u = 2⁻⁵³, the unit roundoff).
double Gamma(int m) {
  const double u = std::ldexp(1.0, -53);
  return m * u / (1.0 - m * u);
}

TEST(PackedSymMatrix, MatVecAndQuadraticFormMatchLongDoubleReference) {
  // Each y_r is an n-term dot product, whatever order the kernel sums it in,
  // so |y_r − exact| ≤ γ_n·Σ_c |a_rc·x_c|; the quadratic form sums at most
  // 2n+2 rounded terms per row chain. The reference runs in long double
  // over the full mirrored matrix. A wrong index, a lost mirror entry or a
  // double-counted diagonal breaks this by orders of magnitude.
  Rng rng(707);
  for (int n : kPackedDims) {
    for (int trial = 0; trial < 3; ++trial) {
      PackedSymMatrix packed = PackedSymMatrix::FromDense(RandomSymmetric(n, &rng));
      Vector x = rng.GaussianVector(n);
      Vector y(1, 99.0);  // dirty, wrongly sized reused buffer
      packed.MatVecInto(x, &y);
      ASSERT_EQ(y.size(), static_cast<size_t>(n));
      long double quad = 0.0L;
      long double quad_abs = 0.0L;
      for (int r = 0; r < n; ++r) {
        long double exact = 0.0L;
        long double abs_sum = 0.0L;
        for (int c = 0; c < n; ++c) {
          const long double term = static_cast<long double>(packed.At(r, c)) *
                                   x[static_cast<size_t>(c)];
          exact += term;
          abs_sum += std::fabs(term);
          quad += term * x[static_cast<size_t>(r)];
          quad_abs += std::fabs(term * x[static_cast<size_t>(r)]);
        }
        ASSERT_LE(std::fabs(y[static_cast<size_t>(r)] - exact), Gamma(n) * abs_sum)
            << "n=" << n << " trial=" << trial << " r=" << r;
      }
      ASSERT_LE(std::fabs(packed.QuadraticForm(x) - quad), Gamma(2 * n + 2) * quad_abs)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(PackedSymMatrix, MatVecIsExactOnIntegerEntries) {
  // Small integers keep every product and partial sum exact, so any
  // summation order must reproduce the integer mat-vec bit for bit.
  Rng rng(708);
  for (int n : kPackedDims) {
    PackedSymMatrix packed(n);
    Vector x(static_cast<size_t>(n));
    auto digit = [&rng] { return static_cast<double>(static_cast<int>(rng.NextUint64(19)) - 9); };
    for (int r = 0; r < n; ++r) {
      x[static_cast<size_t>(r)] = digit();
      for (int c = r; c < n; ++c) packed.At(r, c) = digit();
    }
    Vector y;
    packed.MatVecInto(x, &y);
    for (int r = 0; r < n; ++r) {
      double exact = 0.0;
      for (int c = 0; c < n; ++c) exact += packed.At(r, c) * x[static_cast<size_t>(c)];
      ASSERT_EQ(y[static_cast<size_t>(r)], exact) << "n=" << n << " r=" << r;
    }
  }
}

TEST(PackedSymMatrix, MatPanelMatchesMatVecBitwise) {
  // Batching may interleave the independent per-query chains but never
  // reassociate within one, so each query is bit-identical to a standalone
  // packed mat-vec. k = 1…9 covers no full 4-query block, one and two
  // blocks, and every remainder; 32 is the serving tile.
  Rng rng(808);
  for (int n : kPackedDims) {
    PackedSymMatrix packed = PackedSymMatrix::FromDense(RandomSymmetric(n, &rng));
    for (int k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 32}) {
      Vector panel(static_cast<size_t>(k) * n);
      for (double& v : panel) v = rng.NextGaussian();
      Vector y(static_cast<size_t>(k) * n, 99.0);  // dirty reused buffer
      packed.MatPanelInto(panel.data(), k, y.data());
      Vector x(static_cast<size_t>(n));
      Vector expected;
      for (int j = 0; j < k; ++j) {
        x.assign(panel.begin() + static_cast<size_t>(j) * n,
                 panel.begin() + static_cast<size_t>(j + 1) * n);
        packed.MatVecInto(x, &expected);
        for (int r = 0; r < n; ++r) {
          ASSERT_EQ(y[static_cast<size_t>(j) * n + r], expected[static_cast<size_t>(r)])
              << "n=" << n << " k=" << k << " j=" << j << " r=" << r;
        }
      }
    }
  }
}

TEST(PackedSymMatrix, ZeroQueriesIsANoOp) {
  PackedSymMatrix p = PackedSymMatrix::ScaledIdentity(2, 1.0);
  p.MatPanelInto(nullptr, 0, nullptr);  // k = 0 must not touch the pointers
}

TEST(PackedSymMatrix, FusedScaleRankOneMatchesReference) {
  // Every stored entry must become exactly factor·(a − (coef·b_r)·b_c),
  // evaluated in that order — checked bitwise against that expression in
  // plain doubles over 40 chained updates, and within a few ulps of the
  // long double value of the same update.
  Rng rng(909);
  for (int n : kPackedDims) {
    Matrix start = RandomSymmetric(n, &rng);
    // Shift to strong diagonal dominance so repeated cuts stay tame.
    for (int r = 0; r < n; ++r) start(r, r) += 4.0 * n;
    PackedSymMatrix packed = PackedSymMatrix::FromDense(start);
    for (int cut = 0; cut < 40; ++cut) {
      Vector b = rng.GaussianVector(n);
      double factor = 1.0 + 0.01 * rng.NextDouble();
      double coef = 0.05 * rng.NextDouble();
      PackedSymMatrix before = packed;
      packed.FusedScaleRankOne(factor, coef, b);
      for (int r = 0; r < n; ++r) {
        for (int c = r; c < n; ++c) {
          const double a = before.At(r, c);
          const double br = b[static_cast<size_t>(r)];
          const double bc = b[static_cast<size_t>(c)];
          const double expected = factor * (a - (coef * br) * bc);
          ASSERT_EQ(packed.At(r, c), expected)
              << "n=" << n << " cut=" << cut << " " << r << "," << c;
          const long double exact = static_cast<long double>(factor) *
                                    (a - static_cast<long double>(coef) * br * bc);
          const double scale =
              std::fabs(factor) * (std::fabs(a) + std::fabs(coef * br * bc));
          ASSERT_LE(std::fabs(packed.At(r, c) - exact), Gamma(4) * scale)
              << "n=" << n << " cut=" << cut << " " << r << "," << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pdm
