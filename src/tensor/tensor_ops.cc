#include <algorithm>
#include <cmath>

#include "tensor/tensor.h"

namespace dl2sql {

Result<Tensor> Add(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return Status::InvalidArgument("Add shape mismatch: ", a.shape().ToString(),
                                   " vs ", b.shape().ToString());
  }
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.NumElements();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  return out;
}

Result<Tensor> Mul(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return Status::InvalidArgument("Mul shape mismatch: ", a.shape().ToString(),
                                   " vs ", b.shape().ToString());
  }
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.NumElements();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  return out;
}

Tensor Relu(const Tensor& a) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.NumElements();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] > 0.f ? pa[i] : 0.f;
  return out;
}

Result<Tensor> MatMul(const Tensor& a, const Tensor& b) {
  if (a.shape().ndim() != 2 || b.shape().ndim() != 2) {
    return Status::InvalidArgument("MatMul requires 2-D tensors, got ",
                                   a.shape().ToString(), " x ",
                                   b.shape().ToString());
  }
  const int64_t m = a.shape()[0];
  const int64_t k = a.shape()[1];
  const int64_t k2 = b.shape()[0];
  const int64_t n = b.shape()[1];
  if (k != k2) {
    return Status::InvalidArgument("MatMul inner-dim mismatch: ",
                                   a.shape().ToString(), " x ",
                                   b.shape().ToString());
  }
  Tensor out(Shape({m, n}));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // ikj loop order keeps the innermost accesses sequential for both B and the
  // output row, which matters on the cache-starved edge profile we simulate.
  for (int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.f) continue;
      const float* brow = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Result<Tensor> Softmax(const Tensor& a) {
  if (a.shape().ndim() > 2) {
    return Status::InvalidArgument("Softmax requires 1-D or 2-D input, got ",
                                   a.shape().ToString());
  }
  const int64_t rows = a.shape().ndim() == 2 ? a.shape()[0] : 1;
  const int64_t cols = a.shape().ndim() == 2 ? a.shape()[1] : a.NumElements();
  Tensor out(a.shape());
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = a.data() + r * cols;
    float* orow = out.data() + r * cols;
    float mx = row[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    double sum = 0;
    for (int64_t c = 0; c < cols; ++c) {
      orow[c] = std::exp(row[c] - mx);
      sum += orow[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < cols; ++c) orow[c] *= inv;
  }
  return out;
}

Result<double> MaxAbsDiff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return Status::InvalidArgument("MaxAbsDiff shape mismatch: ",
                                   a.shape().ToString(), " vs ",
                                   b.shape().ToString());
  }
  double mx = 0;
  const int64_t n = a.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    mx = std::max(mx, static_cast<double>(std::fabs(a.at(i) - b.at(i))));
  }
  return mx;
}

Result<Tensor> PadChw(const Tensor& input, int64_t pad) {
  if (input.shape().ndim() != 3) {
    return Status::InvalidArgument("PadChw requires CHW input, got ",
                                   input.shape().ToString());
  }
  if (pad < 0) return Status::InvalidArgument("negative padding ", pad);
  if (pad == 0) return input;
  const int64_t c = input.shape()[0];
  const int64_t h = input.shape()[1];
  const int64_t w = input.shape()[2];
  Tensor out(Shape({c, h + 2 * pad, w + 2 * pad}));
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t hi = 0; hi < h; ++hi) {
      const float* src = input.data() + (ci * h + hi) * w;
      float* dst =
          out.data() + (ci * (h + 2 * pad) + hi + pad) * (w + 2 * pad) + pad;
      std::copy(src, src + w, dst);
    }
  }
  return out;
}

Result<Im2ColGeometry> MakeIm2ColGeometry(const Shape& input, int64_t kh,
                                          int64_t kw, int64_t stride,
                                          int64_t pad) {
  if (input.ndim() != 3) {
    return Status::InvalidArgument("Im2Col requires CHW input, got ",
                                   input.ToString());
  }
  if (stride <= 0) return Status::InvalidArgument("stride must be positive");
  if (pad < 0) return Status::InvalidArgument("negative padding ", pad);
  Im2ColGeometry g;
  g.c = input[0];
  g.h = input[1];
  g.w = input[2];
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad = pad;
  if (kh > g.h + 2 * pad || kw > g.w + 2 * pad) {
    return Status::InvalidArgument("kernel ", kh, "x", kw,
                                   " larger than padded input ", g.h + 2 * pad,
                                   "x", g.w + 2 * pad);
  }
  g.out_h = (g.h + 2 * pad - kh) / stride + 1;
  g.out_w = (g.w + 2 * pad - kw) / stride + 1;
  return g;
}

namespace {

/// Smallest x >= 0 with x * stride >= num (num may be negative).
int64_t CeilDivNonNeg(int64_t num, int64_t stride) {
  return num <= 0 ? 0 : (num + stride - 1) / stride;
}

}  // namespace

void Im2ColInto(const float* input, const Im2ColGeometry& g, float* out) {
  const int64_t cols = g.cols();
  for (int64_t ci = 0; ci < g.c; ++ci) {
    for (int64_t ki = 0; ki < g.kh; ++ki) {
      for (int64_t kj = 0; kj < g.kw; ++kj) {
        float* orow = out + ((ci * g.kh + ki) * g.kw + kj) * cols;
        // Output columns [ox_lo, ox_hi) read input column
        // ox * stride + kj - pad inside [0, w); the rest are padding.
        const int64_t ox_lo = std::min(CeilDivNonNeg(g.pad - kj, g.stride),
                                       g.out_w);
        const int64_t ox_hi = std::clamp(
            CeilDivNonNeg(g.w + g.pad - kj, g.stride), ox_lo, g.out_w);
        for (int64_t oy = 0; oy < g.out_h; ++oy) {
          float* dst = orow + oy * g.out_w;
          const int64_t iy = oy * g.stride + ki - g.pad;
          if (iy < 0 || iy >= g.h) {
            std::fill(dst, dst + g.out_w, 0.f);
            continue;
          }
          const float* src = input + (ci * g.h + iy) * g.w;
          const int64_t shift = kj - g.pad;
          std::fill(dst, dst + ox_lo, 0.f);
          for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
            dst[ox] = src[ox * g.stride + shift];
          }
          std::fill(dst + ox_hi, dst + g.out_w, 0.f);
        }
      }
    }
  }
}

Result<Tensor> Im2Col(const Tensor& input, int64_t kh, int64_t kw, int64_t stride,
                      int64_t pad) {
  DL2SQL_ASSIGN_OR_RETURN(Im2ColGeometry g,
                          MakeIm2ColGeometry(input.shape(), kh, kw, stride, pad));
  Tensor out(Shape({g.rows(), g.cols()}));
  Im2ColInto(input.data(), g, out.data());
  return out;
}

}  // namespace dl2sql
