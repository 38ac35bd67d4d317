#include "linalg/packed_sym_matrix.h"

#include "common/arch.h"

namespace pdm {
namespace {

/// Four doubles as one GCC vector. Its arithmetic is elementwise, so each
/// lane runs the op sequence the source spells out; the compiler neither
/// reorders nor fuses it (the linalg layer builds with -ffp-contract=off),
/// and each target clone maps it to one AVX register or two SSE2 ones.
typedef double V4 __attribute__((vector_size(32)));
/// The same vector at double alignment, for loads and stores at arbitrary
/// offsets inside the packed rows (may_alias: it reads plain doubles).
typedef double V4Unaligned __attribute__((vector_size(32), aligned(8), may_alias));

// The helpers below are always inlined: an out-of-line copy would be
// compiled once for the baseline ISA and called from the AVX2 clone too.
// They pass vectors by reference, since by value would change ABI between
// the target clones (-Wpsabi).
[[gnu::always_inline]] inline const V4Unaligned& AtV4(const double* p) {
  return *reinterpret_cast<const V4Unaligned*>(p);
}
[[gnu::always_inline]] inline V4Unaligned& AtV4(double* p) {
  return *reinterpret_cast<V4Unaligned*>(p);
}
[[gnu::always_inline]] inline double SumLanes(const V4& v) {
  return (v[0] + v[1]) + (v[2] + v[3]);
}

/// Rows r..r+3 of y ← A·x, where `row` points at packed row r. The four rows
/// share their columns c ≥ r+4, so one sweep over those columns serves all
/// four: each row gathers a·x[c] into its own 4-lane accumulator, and the
/// mirror entries scatter a·x[r+i] into y[c], fused into one store per
/// 4 columns. The 4×4 diagonal block and the column tail (n−r−4 mod 4) are
/// scalar. Per stored entry this is the same work as a dense row pass over
/// both mirror copies, with half the loads of A and a quarter of the
/// y traffic a one-row pass would need.
///
/// The mat-vec and panel kernels both inline this one op sequence, so "every
/// panel column is bit-identical to a mat-vec" holds by construction.
[[gnu::always_inline]] inline void RowBlock4(const double* __restrict row, int r,
                                             int n, const double* __restrict x,
                                             double* __restrict y) {
  const double* __restrict r0 = row;
  const double* __restrict r1 = r0 + (n - r);
  const double* __restrict r2 = r1 + (n - r - 1);
  const double* __restrict r3 = r2 + (n - r - 2);
  const double x0 = x[r];
  const double x1 = x[r + 1];
  const double x2 = x[r + 2];
  const double x3 = x[r + 3];
  // Column c ≥ r+4 of row r+i sits at offset c − r − i of that row.
  const double* __restrict a0 = r0 + 4;
  const double* __restrict a1 = r1 + 3;
  const double* __restrict a2 = r2 + 2;
  const double* __restrict a3 = r3 + 1;
  const double* __restrict xc = x + r + 4;
  double* __restrict yc = y + r + 4;
  const int m = n - r - 4;
  const V4 vx0 = {x0, x0, x0, x0};
  const V4 vx1 = {x1, x1, x1, x1};
  const V4 vx2 = {x2, x2, x2, x2};
  const V4 vx3 = {x3, x3, x3, x3};
  V4 acc0 = {0.0, 0.0, 0.0, 0.0};
  V4 acc1 = acc0;
  V4 acc2 = acc0;
  V4 acc3 = acc0;
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const V4 va0 = AtV4(a0 + i);
    const V4 va1 = AtV4(a1 + i);
    const V4 va2 = AtV4(a2 + i);
    const V4 va3 = AtV4(a3 + i);
    const V4 vxc = AtV4(xc + i);
    acc0 += va0 * vxc;
    acc1 += va1 * vxc;
    acc2 += va2 * vxc;
    acc3 += va3 * vxc;
    AtV4(yc + i) += (va0 * vx0 + va1 * vx1) + (va2 * vx2 + va3 * vx3);
  }
  double t0 = SumLanes(acc0);
  double t1 = SumLanes(acc1);
  double t2 = SumLanes(acc2);
  double t3 = SumLanes(acc3);
  for (; i < m; ++i) {
    t0 += a0[i] * xc[i];
    t1 += a1[i] * xc[i];
    t2 += a2[i] * xc[i];
    t3 += a3[i] * xc[i];
    yc[i] += (a0[i] * x0 + a1[i] * x1) + (a2[i] * x2 + a3[i] * x3);
  }
  // Diagonal block: A(r+i, r+j) for i ≤ j is row r+i at offset j − i.
  y[r] += ((r0[0] * x0 + r0[1] * x1) + (r0[2] * x2 + r0[3] * x3)) + t0;
  y[r + 1] += ((r0[1] * x0 + r1[0] * x1) + (r1[1] * x2 + r1[2] * x3)) + t1;
  y[r + 2] += ((r0[2] * x0 + r1[1] * x1) + (r2[0] * x2 + r2[1] * x3)) + t2;
  y[r + 3] += ((r0[3] * x0 + r1[2] * x1) + (r2[1] * x2 + r3[0] * x3)) + t3;
}

/// The last n mod 4 rows, starting at packed row r: a triangle of at most
/// six entries, one row at a time (gather into the row, scatter the mirror).
[[gnu::always_inline]] inline void TailRows(const double* __restrict row, int r,
                                            int n, const double* __restrict x,
                                            double* __restrict y) {
  for (; r < n; ++r) {
    const double xr = x[r];
    double acc = row[0] * xr;
    for (int c = r + 1; c < n; ++c) {
      acc += row[c - r] * x[c];
      y[c] += row[c - r] * xr;
    }
    y[r] += acc;
    row += n - r;
  }
}

/// Packed length of the four rows r..r+3.
[[gnu::always_inline]] inline size_t Block4Size(int n, int r) {
  return 4 * static_cast<size_t>(n - r) - 6;
}

/// y ← A·x over packed upper-triangular row-major storage: zero y, then one
/// RowBlock4 per four rows and TailRows for the rest. Each stored entry
/// serves both of its mirror positions, so A is read once in n(n+1)/2
/// doubles. The op order is fixed by the source, so the kernel is
/// deterministic per build and machine.
PDM_TARGET_CLONES
void PackedMatVecKernel(const double* __restrict data, int n,
                        const double* __restrict x, double* __restrict y) {
  for (int r = 0; r < n; ++r) y[r] = 0.0;
  const double* __restrict row = data;
  int r = 0;
  for (; r + 4 <= n; r += 4) {
    RowBlock4(row, r, n, x, y);
    row += Block4Size(n, r);
  }
  TailRows(row, r, n, x, y);
}

/// Panel kernel: 4 queries per pass over A. Each row block is applied to the
/// four queries back to back while it is hot in L1, and each query runs
/// literally PackedMatVecKernel's steps in its order (zero, RowBlock4 per
/// block, TailRows), so every output column is bit-identical to a
/// standalone mat-vec by construction. Remainder queries (k mod 4) run the
/// mat-vec kernel.
PDM_TARGET_CLONES
void PackedMatPanelKernel(const double* __restrict data, int n,
                          const double* __restrict panel, int k,
                          double* __restrict y) {
  const size_t stride = static_cast<size_t>(n);
  int j = 0;
  for (; j + 4 <= k; j += 4) {
    const double* __restrict x0 = panel + static_cast<size_t>(j) * stride;
    double* __restrict y0 = y + static_cast<size_t>(j) * stride;
    for (size_t i = 0; i < 4 * stride; ++i) y0[i] = 0.0;
    const double* __restrict row = data;
    int r = 0;
    for (; r + 4 <= n; r += 4) {
      for (int q = 0; q < 4; ++q) RowBlock4(row, r, n, x0 + q * stride, y0 + q * stride);
      row += Block4Size(n, r);
    }
    for (int q = 0; q < 4; ++q) TailRows(row, r, n, x0 + q * stride, y0 + q * stride);
  }
  for (; j < k; ++j) {
    PackedMatVecKernel(data, n, panel + static_cast<size_t>(j) * stride,
                       y + static_cast<size_t>(j) * stride);
  }
}

/// A ← factor·(A − coef·b·bᵀ) over the packed triangle: per stored entry
/// factor·(a − (coef·b[r])·b[c]), one contiguous pass per row.
PDM_TARGET_CLONES
void PackedFusedScaleRankOneKernel(double* __restrict data, int n, double factor,
                                   double coef, const double* __restrict b) {
  double* __restrict row = data;
  for (int r = 0; r < n; ++r) {
    const double cr = coef * b[r];
    for (int c = r; c < n; ++c) {
      row[c - r] = factor * (row[c - r] - cr * b[c]);
    }
    row += n - r;
  }
}

}  // namespace

PackedSymMatrix::PackedSymMatrix(int n) : n_(n) {
  PDM_CHECK(n >= 0);
  data_.assign(static_cast<size_t>(n) * (n + 1) / 2, 0.0);
}

PackedSymMatrix PackedSymMatrix::ScaledIdentity(int n, double diag) {
  PackedSymMatrix m(n);
  for (int i = 0; i < n; ++i) m.At(i, i) = diag;
  return m;
}

PackedSymMatrix PackedSymMatrix::FromDense(const Matrix& dense) {
  PDM_CHECK(dense.rows() == dense.cols());
  PackedSymMatrix m(dense.rows());
  size_t idx = 0;
  for (int r = 0; r < dense.rows(); ++r) {
    for (int c = r; c < dense.cols(); ++c) m.data_[idx++] = dense(r, c);
  }
  return m;
}

Matrix PackedSymMatrix::ToDense() const {
  Matrix dense(n_, n_);
  size_t idx = 0;
  for (int r = 0; r < n_; ++r) {
    for (int c = r; c < n_; ++c) {
      dense(r, c) = data_[idx];
      dense(c, r) = data_[idx];
      ++idx;
    }
  }
  return dense;
}

void PackedSymMatrix::MatVecInto(const Vector& x, Vector* y) const {
  PDM_CHECK(static_cast<int>(x.size()) == n_);
  PDM_DCHECK(&x != y);
  y->resize(static_cast<size_t>(n_));
  if (n_ < 4) {
    // Below one row block the kernel is TailRows alone; running it inline
    // skips the target-clone dispatch, with the same op sequence and bits.
    for (int r = 0; r < n_; ++r) (*y)[static_cast<size_t>(r)] = 0.0;
    TailRows(data_.data(), 0, n_, x.data(), y->data());
    return;
  }
  PackedMatVecKernel(data_.data(), n_, x.data(), y->data());
}

void PackedSymMatrix::MatPanelInto(const double* panel, int k, double* y) const {
  PDM_CHECK(k >= 0);
  if (k == 0) return;
  PDM_CHECK(panel != nullptr && y != nullptr);
  PackedMatPanelKernel(data_.data(), n_, panel, k, y);
}

double PackedSymMatrix::QuadraticForm(const Vector& x) const {
  PDM_CHECK(static_cast<int>(x.size()) == n_);
  // xᵀAx = Σ_r a_rr·x_r² + 2·Σ_{r<c} a_rc·x_r·x_c, one pass, no A·x buffer.
  double acc = 0.0;
  const double* row = data_.data();
  for (int r = 0; r < n_; ++r) {
    const double xr = x[static_cast<size_t>(r)];
    double partial = row[0] * xr;
    for (int c = r + 1; c < n_; ++c) {
      partial += 2.0 * row[c - r] * x[static_cast<size_t>(c)];
    }
    acc += partial * xr;
    row += n_ - r;
  }
  return acc;
}

void PackedSymMatrix::FusedScaleRankOne(double factor, double coef, const Vector& b) {
  PDM_CHECK(static_cast<int>(b.size()) == n_);
  PackedFusedScaleRankOneKernel(data_.data(), n_, factor, coef, b.data());
}

double PackedSymMatrix::Trace() const {
  double acc = 0.0;
  for (int i = 0; i < n_; ++i) acc += At(i, i);
  return acc;
}

}  // namespace pdm
