#include "linalg/matrix.h"

#include <cmath>

#include "common/arch.h"

namespace pdm {
namespace {

/// One row·vector dot with a reassociated 4-accumulator stride-4 reduction
/// (see vector_ops.cc's DotKernel for the rationale).
inline double RowDot(const double* __restrict row, const double* __restrict x,
                     int cols) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  int c = 0;
  for (; c + 4 <= cols; c += 4) {
    acc[0] += row[c] * x[c];
    acc[1] += row[c + 1] * x[c + 1];
    acc[2] += row[c + 2] * x[c + 2];
    acc[3] += row[c + 3] * x[c + 3];
  }
  double total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; c < cols; ++c) total += row[c] * x[c];
  return total;
}

/// Row-major mat-vec. `x` must not alias `y`.
PDM_TARGET_CLONES
void MatVecKernel(const double* __restrict data, int rows, int cols,
                  const double* __restrict x, double* __restrict y) {
  for (int r = 0; r < rows; ++r) {
    y[r] = RowDot(data + static_cast<size_t>(r) * cols, x, cols);
  }
}

}  // namespace

Matrix::Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
  PDM_CHECK(rows >= 0 && cols >= 0);
  data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0);
}

Matrix Matrix::ScaledIdentity(int n, double diag) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = diag;
  return m;
}

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  PDM_CHECK(!rows.empty());
  int r = static_cast<int>(rows.size());
  int c = static_cast<int>(rows[0].size());
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    PDM_CHECK(static_cast<int>(rows[static_cast<size_t>(i)].size()) == c);
    for (int j = 0; j < c; ++j) {
      m(i, j) = rows[static_cast<size_t>(i)][static_cast<size_t>(j)];
    }
  }
  return m;
}

Vector Matrix::MatVec(const Vector& x) const {
  Vector y;
  MatVecInto(x, &y);
  return y;
}

void Matrix::MatVecInto(const Vector& x, Vector* y) const {
  PDM_CHECK(static_cast<int>(x.size()) == cols_);
  PDM_DCHECK(&x != y);
  y->resize(static_cast<size_t>(rows_));
  MatVecKernel(data_.data(), rows_, cols_, x.data(), y->data());
}

Vector Matrix::MatTVec(const Vector& x) const {
  Vector y;
  MatTVecInto(x, &y);
  return y;
}

void Matrix::MatTVecInto(const Vector& x, Vector* y) const {
  PDM_CHECK(static_cast<int>(x.size()) == rows_);
  PDM_DCHECK(&x != y);
  y->assign(static_cast<size_t>(cols_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double* row = data_.data() + static_cast<size_t>(r) * cols_;
    double xr = x[static_cast<size_t>(r)];
    for (int c = 0; c < cols_; ++c) (*y)[static_cast<size_t>(c)] += row[c] * xr;
  }
}

void Matrix::AddRankOne(double s, const Vector& b) {
  PDM_CHECK(rows_ == cols_);
  PDM_CHECK(static_cast<int>(b.size()) == cols_);
  for (int r = 0; r < rows_; ++r) {
    double* row = data_.data() + static_cast<size_t>(r) * cols_;
    double sr = s * b[static_cast<size_t>(r)];
    for (int c = 0; c < cols_; ++c) row[c] += sr * b[static_cast<size_t>(c)];
  }
}

void Matrix::Scale(double s) {
  for (double& x : data_) x *= s;
}

void Matrix::Symmetrize() {
  PDM_CHECK(rows_ == cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

double Matrix::Trace() const {
  PDM_CHECK(rows_ == cols_);
  double acc = 0.0;
  for (int i = 0; i < rows_; ++i) acc += (*this)(i, i);
  return acc;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  PDM_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (int i = 0; i < rows_; ++i) {
    for (int k = 0; k < cols_; ++k) {
      double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.data_.data() + static_cast<size_t>(k) * other.cols_;
      double* orow = out.data_.data() + static_cast<size_t>(i) * out.cols_;
      for (int j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

Vector Matrix::Row(int r) const {
  PDM_CHECK(r >= 0 && r < rows_);
  Vector out(static_cast<size_t>(cols_));
  for (int c = 0; c < cols_; ++c) out[static_cast<size_t>(c)] = (*this)(r, c);
  return out;
}

}  // namespace pdm
