#ifndef PDM_LINALG_MATRIX_H_
#define PDM_LINALG_MATRIX_H_

#include <vector>

#include "common/check.h"
#include "linalg/vector_ops.h"

/// \file
/// Dense row-major matrix for the offline substrate (PCA, least squares,
/// Cholesky, Jacobi eigen) and the snapshot codec's shape exchange format.
/// The ellipsoid shape matrix itself lives packed (linalg/packed_sym_matrix.h).

namespace pdm {

class Matrix {
 public:
  /// Creates a rows×cols matrix of zeros.
  Matrix(int rows, int cols);

  /// The n×n identity scaled by `diag`.
  static Matrix ScaledIdentity(int n, double diag);

  /// Builds a matrix from nested initializer-style data (row major); all rows
  /// must have equal length. Intended for tests.
  static Matrix FromRows(const std::vector<Vector>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    PDM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    PDM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Raw row-major storage (rows()*cols() doubles).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// y = A·x.
  Vector MatVec(const Vector& x) const;

  /// y ← A·x into a caller-owned buffer (resized to rows(); steady-state
  /// reuse performs no allocation). `x` must not alias `*y`.
  void MatVecInto(const Vector& x, Vector* y) const;

  /// y = Aᵀ·x.
  Vector MatTVec(const Vector& x) const;

  /// y ← Aᵀ·x with the MatVecInto reuse/aliasing contract.
  void MatTVecInto(const Vector& x, Vector* y) const;

  /// A ← A + s·b·bᵀ (square matrices only): Gram/covariance accumulation.
  void AddRankOne(double s, const Vector& b);

  /// A ← s·A.
  void Scale(double s);

  /// A ← (A + Aᵀ)/2.
  void Symmetrize();

  /// Sum of diagonal entries (square matrices only).
  double Trace() const;

  /// C = A·B.
  Matrix MatMul(const Matrix& other) const;

  /// Aᵀ as a new matrix.
  Matrix Transposed() const;

  /// Entrywise Frobenius norm.
  double FrobeniusNorm() const;

  /// Copies row r into a Vector.
  Vector Row(int r) const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

}  // namespace pdm

#endif  // PDM_LINALG_MATRIX_H_
