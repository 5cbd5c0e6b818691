#include "common/linalg.h"

#include <cmath>

#include "common/logging.h"
#include "common/status.h"

namespace pstore {

namespace {

// Adds row[i] * row[j] to acc[j] for every j >= i, unless row[i] is zero.
void AddRowProducts(const double* row, size_t i, size_t cols, double* acc) {
  const double ri = row[i];
  if (ri == 0.0) return;
  for (size_t j = i; j < cols; ++j) acc[j] += ri * row[j];
}

}  // namespace

Matrix Matrix::TransposeTimesSelf() const {
  Matrix out(cols_, cols_);
  // Rows are taken four at a time, so one pass over an output row adds
  // four products per element instead of reloading and storing it four
  // times. Each element still adds its products one by one in row order,
  // skipping rows whose coefficient is zero, so the result is
  // bit-identical to the one-row-at-a-time loop the tail below runs.
  size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* y0 = &data_[r * cols_];
    const double* y1 = y0 + cols_;
    const double* y2 = y1 + cols_;
    const double* y3 = y2 + cols_;
    for (size_t i = 0; i < cols_; ++i) {
      double* acc = &out.data_[i * cols_];
      const double x0 = y0[i];
      const double x1 = y1[i];
      const double x2 = y2[i];
      const double x3 = y3[i];
      if (x0 == 0.0 || x1 == 0.0 || x2 == 0.0 || x3 == 0.0) {
        for (const double* row : {y0, y1, y2, y3}) {
          AddRowProducts(row, i, cols_, acc);
        }
        continue;
      }
      for (size_t j = i; j < cols_; ++j) {
        acc[j] = acc[j] + x0 * y0[j] + x1 * y1[j] + x2 * y2[j] + x3 * y3[j];
      }
    }
  }
  for (; r < rows_; ++r) {
    for (size_t i = 0; i < cols_; ++i) {
      AddRowProducts(&data_[r * cols_], i, cols_, &out.data_[i * cols_]);
    }
  }
  // Mirror the upper triangle.
  for (size_t i = 0; i < cols_; ++i) {
    for (size_t j = 0; j < i; ++j) {
      out.At(i, j) = out.At(j, i);
    }
  }
  return out;
}

std::vector<double> Matrix::TransposeTimesVector(
    const std::vector<double>& v) const {
  PSTORE_CHECK(v.size() == rows_);
  std::vector<double> out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    const double vr = v[r];
    if (vr == 0.0) continue;
    for (size_t c = 0; c < cols_; ++c) {
      out[c] += row[c] * vr;
    }
  }
  return out;
}

StatusOr<std::vector<double>> SolveLinearSystem(const Matrix& a,
                                                const std::vector<double>& b) {
  const size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem: shape mismatch");
  }
  // Work on an augmented copy.
  Matrix m(n, n + 1);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) m.At(r, c) = a.At(r, c);
    m.At(r, n) = b[r];
  }
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    double best = std::abs(m.At(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(m.At(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-12) {
      return Status::FailedPrecondition("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (size_t c = col; c <= n; ++c) {
        std::swap(m.At(col, c), m.At(pivot, c));
      }
    }
    const double inv = 1.0 / m.At(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = m.At(r, col) * inv;
      if (factor == 0.0) continue;
      for (size_t c = col; c <= n; ++c) {
        m.At(r, c) -= factor * m.At(col, c);
      }
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = m.At(ri, n);
    for (size_t c = ri + 1; c < n; ++c) acc -= m.At(ri, c) * x[c];
    x[ri] = acc / m.At(ri, ri);
  }
  return x;
}

StatusOr<std::vector<double>> SolveLeastSquares(const Matrix& a,
                                                const std::vector<double>& b,
                                                double ridge) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("SolveLeastSquares: shape mismatch");
  }
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument(
        "SolveLeastSquares: fewer rows than unknowns");
  }
  Matrix ata = a.TransposeTimesSelf();
  // Scale the ridge by the matrix magnitude so it is unit-free.
  double diag_max = 0.0;
  for (size_t i = 0; i < ata.rows(); ++i) {
    diag_max = std::max(diag_max, std::abs(ata.At(i, i)));
  }
  const double damping = ridge * (diag_max > 0.0 ? diag_max : 1.0);
  for (size_t i = 0; i < ata.rows(); ++i) {
    ata.At(i, i) += damping;
  }
  return SolveLinearSystem(ata, a.TransposeTimesVector(b));
}

}  // namespace pstore
