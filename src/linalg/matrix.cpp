#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "linalg/kernels.hpp"
#include "par/parallel.hpp"

namespace aspe::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    require(r.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

Vec Matrix::row(std::size_t r) const {
  require(r < rows_, "Matrix::row: index out of range");
  return Vec(row_ptr(r), row_ptr(r) + cols_);
}

Vec Matrix::col(std::size_t c) const {
  require(c < cols_, "Matrix::col: index out of range");
  Vec v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vec& v) {
  require(r < rows_ && v.size() == cols_, "Matrix::set_row: bad row");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::set_col(std::size_t c, const Vec& v) {
  require(c < cols_ && v.size() == rows_, "Matrix::set_col: bad column");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void Matrix::conservative_resize(std::size_t new_rows, std::size_t new_cols,
                                 double fill) {
  if (new_rows == rows_ && new_cols == cols_) return;
  if (new_cols == cols_) {
    data_.resize(new_rows * new_cols, fill);
    rows_ = new_rows;
    return;
  }
  Vec grown(new_rows * new_cols, fill);
  const std::size_t copy_rows = std::min(rows_, new_rows);
  const std::size_t copy_cols = std::min(cols_, new_cols);
  for (std::size_t r = 0; r < copy_rows; ++r) {
    std::copy_n(row_ptr(r), copy_cols, grown.data() + r * new_cols);
  }
  data_ = std::move(grown);
  rows_ = new_rows;
  cols_ = new_cols;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  transpose_copy(cview(), t.view());
  return t;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  require(rows_ == o.rows_ && cols_ == o.cols_, "Matrix::+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  require(rows_ == o.rows_ && cols_ == o.cols_, "Matrix::-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "Matrix::*: inner dimension mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  gemm(1.0, a.cview(), Op::None, b.cview(), Op::None, 0.0, c.view());
  return c;
}

Vec Matrix::apply(const Vec& x) const {
  require(x.size() == cols_, "Matrix::apply: dimension mismatch");
  Vec y(rows_, 0.0);
  gemv(1.0, cview(), Op::None, ConstVecView(x), 0.0, VecView(y));
  return y;
}

Vec Matrix::apply_transposed(const Vec& x) const {
  require(x.size() == rows_, "Matrix::apply_transposed: dimension mismatch");
  Vec y(cols_, 0.0);
  gemv(1.0, cview(), Op::Transpose, ConstVecView(x), 0.0, VecView(y));
  return y;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_columns(const std::vector<Vec>& cols) {
  require(!cols.empty(), "Matrix::from_columns: no columns");
  const std::size_t n = cols[0].size();
  Matrix m(n, cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    require(cols[c].size() == n, "Matrix::from_columns: ragged columns");
    m.set_col(c, cols[c]);
  }
  return m;
}

Matrix Matrix::from_rows(const std::vector<Vec>& rows) {
  require(!rows.empty(), "Matrix::from_rows: no rows");
  const std::size_t n = rows[0].size();
  Matrix m(rows.size(), n);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    require(rows[r].size() == n, "Matrix::from_rows: ragged rows");
    m.set_row(r, rows[r]);
  }
  return m;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (auto x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  // max is exact under any grouping, so the parallel reduction is
  // bit-identical to the serial scan regardless of chunking.
  if (data_.size() >= kParallelFlopThreshold) {
    return par::parallel_reduce(
        std::size_t{0}, data_.size(), std::size_t{1} << 16, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double m = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            m = std::max(m, std::abs(data_[i]));
          }
          return m;
        },
        [](double a, double b) { return std::max(a, b); });
  }
  double m = 0.0;
  for (auto x : data_) m = std::max(m, std::abs(x));
  return m;
}

bool Matrix::approx_equal(const Matrix& o, double tol) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - o.data_[i]) > tol) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")[\n";
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << "  ";
    for (std::size_t c = 0; c < m.cols(); ++c) os << m(r, c) << ' ';
    os << '\n';
  }
  return os << ']';
}

}  // namespace aspe::linalg
