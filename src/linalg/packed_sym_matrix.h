#ifndef PDM_LINALG_PACKED_SYM_MATRIX_H_
#define PDM_LINALG_PACKED_SYM_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

/// \file
/// Packed symmetric matrix: the upper triangle of an n×n symmetric matrix
/// stored row-major in n(n+1)/2 doubles — row r holds entries (r,r)..(r,n-1)
/// contiguously. This is the one resident layout of the ellipsoid shape
/// matrix A, which dominates per-product session state at serving scale
/// (DESIGN.md §12): half the bytes of a dense n×n copy.
///
/// The storage is symmetric *by construction*: there is no lower triangle to
/// drift out of sync, so the fused cut update needs no re-symmetrization.
///
/// Speed: the mat-vec walks four packed rows per pass over their shared
/// columns with 4-lane vector accumulators and a fused mirror scatter
/// (DESIGN.md §11), so it reads A once and runs at or below the cost of a
/// dense row-dot mat-vec over n² doubles.
///
/// Determinism contract: every kernel here is a fixed source-level FP op
/// sequence (the linalg layer builds with -ffp-contract=off), and
/// `MatPanelInto` runs each query through exactly `MatVecInto`'s op order, so
/// each panel column is BIT-IDENTICAL to a standalone mat-vec on that query.
/// Against exact arithmetic the mat-vec and quadratic form are pinned within
/// a few ulps of the result scale (tests/linalg_test.cc).

namespace pdm {

class PackedSymMatrix {
 public:
  /// Empty 0×0 matrix.
  PackedSymMatrix() : n_(0) {}

  /// n×n zeros in packed form.
  explicit PackedSymMatrix(int n);

  /// diag·I in packed form.
  static PackedSymMatrix ScaledIdentity(int n, double diag);

  /// Packs the upper triangle of a square dense matrix (entries below the
  /// diagonal are ignored). Round trip law: FromDense(ToDense()) is exact,
  /// and ToDense(FromDense(A)) == A whenever A is exactly symmetric.
  static PackedSymMatrix FromDense(const Matrix& dense);

  /// Mirrors the packed triangle into a full dense symmetric matrix. Exact:
  /// both mirror copies are the same stored double.
  Matrix ToDense() const;

  int dim() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Packed element count n(n+1)/2.
  size_t packed_size() const { return data_.size(); }

  /// Element access for any (r, c) — both triangles map to the one stored
  /// upper-triangle entry.
  double& At(int r, int c) {
    return data_[PackedIndex(r, c)];
  }
  double At(int r, int c) const {
    return data_[PackedIndex(r, c)];
  }

  /// Raw packed storage (n(n+1)/2 doubles, upper-triangular row-major).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// y ← A·x (resizing y to n; steady-state reuse performs no allocation).
  /// `x` must not alias `*y`. Deterministic fixed op order (file comment).
  void MatVecInto(const Vector& x, Vector* y) const;

  /// Y ← A·X over a query-major panel of k vectors: query j reads
  /// panel[j·n .. j·n+n) and writes y[j·n .. j·n+n), so y holds k·n doubles.
  /// Blocked 4 queries wide so each row block of A is streamed once per
  /// block of queries; every output column is bit-identical to a standalone
  /// MatVecInto on that query. `panel` must not alias `y`. This is the
  /// batched-quote hot kernel (DESIGN.md §11).
  void MatPanelInto(const double* panel, int k, double* y) const;

  /// xᵀ·A·x without materializing A·x (allocation-free diagnostics path).
  double QuadraticForm(const Vector& x) const;

  /// A ← factor·(A − coef·b·bᵀ) over the packed triangle — the fused
  /// Löwner–John cut update, one expression factor·(a − (coef·b_r)·b_c) per
  /// stored entry.
  void FusedScaleRankOne(double factor, double coef, const Vector& b);

  /// Sum of diagonal entries.
  double Trace() const;

 private:
  size_t PackedIndex(int r, int c) const {
    PDM_DCHECK(r >= 0 && r < n_ && c >= 0 && c < n_);
    if (r > c) {
      int t = r;
      r = c;
      c = t;
    }
    // Row r starts after the r previous rows of lengths n, n-1, ..., n-r+1.
    return static_cast<size_t>(r) * n_ - static_cast<size_t>(r) * (r - 1) / 2 +
           static_cast<size_t>(c - r);
  }

  int n_;
  std::vector<double> data_;
};

}  // namespace pdm

#endif  // PDM_LINALG_PACKED_SYM_MATRIX_H_
