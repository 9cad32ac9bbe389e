#include "nn/compute.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace dl2sql::nn {

namespace {

// The GEMM row kernel shared by Conv2dForward, LinearForward and
// ParallelMatMul. For rows i of a [m, k] and b [k, n] it writes
//   out[i, j] = (sum over kk = 0, 1, ..., k-1 with a[i, kk] != 0 of
//                a[i, kk] * b[kk, j]) [+ bias[i]]
// accumulated from 0.f in ascending kk, with the bias added last. Per element
// that is the float sequence of the scalar MatMul (tensor_ops.cc), so results
// are bit-identical to it; only the order in which elements are visited
// differs. Never reorder the reduction. Speed comes from register tiles of
// kRows output rows, so each b load feeds kRows rows, and from packing four
// output columns per vector: GCC vector extensions give packed SSE arithmetic
// at the baseline -O2, and lane-wise * and + are the same IEEE single
// operations as the scalar code.
constexpr int kRows = 4;

using Vec4 = float __attribute__((vector_size(16)));

inline Vec4 Load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void Store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

// Rows [i, i + R) x columns [j, j + 4 * V).
template <int R, int V>
void VecTile(const float* a, const float* b, const float* bias, float* out,
             int64_t k, int64_t n, int64_t i, int64_t j) {
  Vec4 acc[R][V] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    Vec4 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = Load4(b + kk * n + j + 4 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = a[(i + r) * k + kk];
      if (av == 0.f) continue;
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) acc[r][v] += av * bv[v];
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      Store4(out + (i + r) * n + j + 4 * v,
             bias != nullptr ? acc[r][v] + bias[i + r] : acc[r][v]);
    }
  }
}

// Rows [i, i + R) x the single column j (n % 4 tails, and n == 1 for Linear).
template <int R>
void ScalarTile(const float* a, const float* b, const float* bias, float* out,
                int64_t k, int64_t n, int64_t i, int64_t j) {
  float acc[R] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float bv = b[kk * n + j];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = a[(i + r) * k + kk];
      if (av == 0.f) continue;
      acc[r] += av * bv;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    out[(i + r) * n + j] = bias != nullptr ? acc[r] + bias[i + r] : acc[r];
  }
}

template <int R>
void RowBlock(const float* a, const float* b, const float* bias, float* out,
              int64_t k, int64_t n, int64_t i) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) VecTile<R, 2>(a, b, bias, out, k, n, i, j);
  for (; j + 4 <= n; j += 4) VecTile<R, 1>(a, b, bias, out, k, n, i, j);
  for (; j < n; ++j) ScalarTile<R>(a, b, bias, out, k, n, i, j);
}

// Output rows [r0, r1) of out = a [m, k] x b [k, n] (+ bias [m]).
void GemmRows(const float* a, const float* b, const float* bias, float* out,
              int64_t k, int64_t n, int64_t r0, int64_t r1) {
  int64_t i = r0;
  for (; i + kRows <= r1; i += kRows) {
    RowBlock<kRows>(a, b, bias, out, k, n, i);
  }
  switch (r1 - i) {
    case 3:
      RowBlock<3>(a, b, bias, out, k, n, i);
      break;
    case 2:
      RowBlock<2>(a, b, bias, out, k, n, i);
      break;
    case 1:
      RowBlock<1>(a, b, bias, out, k, n, i);
      break;
    default:
      break;
  }
}

// Runs GemmRows over all m output rows, split over the device's pool on
// multi-threaded profiles; chunks of rows never alias.
void Gemm(const float* a, const float* b, const float* bias, float* out,
          int64_t m, int64_t k, int64_t n, Device* device) {
  auto body = [&](int64_t r0, int64_t r1) {
    GemmRows(a, b, bias, out, k, n, r0, r1);
  };
  if (device != nullptr && device->pool()->num_threads() > 1 && m > 1) {
    device->pool()->ParallelFor(m, body);
  } else {
    body(0, m);
  }
}

}  // namespace

Result<Tensor> ParallelMatMul(const Tensor& a, const Tensor& b, Device* device) {
  if (a.shape().ndim() != 2 || b.shape().ndim() != 2) {
    return Status::InvalidArgument("ParallelMatMul requires 2-D tensors");
  }
  const int64_t m = a.shape()[0];
  const int64_t k = a.shape()[1];
  if (k != b.shape()[0]) {
    return Status::InvalidArgument("ParallelMatMul inner-dim mismatch: ",
                                   a.shape().ToString(), " x ",
                                   b.shape().ToString());
  }
  const int64_t n = b.shape()[1];
  Tensor out(Shape({m, n}));
  Gemm(a.data(), b.data(), nullptr, out.data(), m, k, n, device);
  return out;
}

Result<Tensor> Conv2dForward(const Tensor& input, const Tensor& weight,
                             const Tensor* bias, int64_t stride, int64_t pad,
                             Device* device) {
  if (input.shape().ndim() != 3) {
    return Status::InvalidArgument("Conv2dForward requires CHW input, got ",
                                   input.shape().ToString());
  }
  if (weight.shape().ndim() != 4) {
    return Status::InvalidArgument("Conv2dForward requires OIHW weight, got ",
                                   weight.shape().ToString());
  }
  const int64_t out_c = weight.shape()[0];
  if (input.shape()[0] != weight.shape()[1]) {
    return Status::InvalidArgument("conv channel mismatch: input ",
                                   input.shape().ToString(), " weight ",
                                   weight.shape().ToString());
  }
  if (bias != nullptr && bias->NumElements() != out_c) {
    return Status::InvalidArgument("conv bias size mismatch");
  }
  DL2SQL_ASSIGN_OR_RETURN(
      Im2ColGeometry g,
      MakeIm2ColGeometry(input.shape(), weight.shape()[2], weight.shape()[3],
                         stride, pad));

  // The patch matrix lives in a per-thread buffer reused across convs, so a
  // forward pass allocates only its outputs. Pool workers splitting the GEMM
  // read the calling thread's buffer while it waits in ParallelFor.
  thread_local std::vector<float> cols;
  const size_t need = static_cast<size_t>(g.rows() * g.cols());
  if (cols.size() < need) cols.resize(need);
  Im2ColInto(input.data(), g, cols.data());

  // OIHW weights are already the row-major [out_c, in_c * kh * kw] matrix.
  Tensor out(Shape({out_c, g.out_h, g.out_w}));
  Gemm(weight.data(), cols.data(), bias != nullptr ? bias->data() : nullptr,
       out.data(), out_c, g.rows(), g.cols(), device);
  return out;
}

namespace {

template <typename Reducer>
Result<Tensor> Pool2d(const Tensor& input, int64_t k, int64_t stride,
                      Reducer reduce, float init) {
  if (input.shape().ndim() != 3) {
    return Status::InvalidArgument("pooling requires CHW input, got ",
                                   input.shape().ToString());
  }
  if (k <= 0 || stride <= 0) {
    return Status::InvalidArgument("pooling window/stride must be positive");
  }
  const int64_t c = input.shape()[0];
  const int64_t h = input.shape()[1];
  const int64_t w = input.shape()[2];
  if (k > h || k > w) {
    return Status::InvalidArgument("pool window ", k, " larger than input ",
                                   input.shape().ToString());
  }
  const int64_t out_h = (h - k) / stride + 1;
  const int64_t out_w = (w - k) / stride + 1;
  Tensor out(Shape({c, out_h, out_w}));
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t oy = 0; oy < out_h; ++oy) {
      for (int64_t ox = 0; ox < out_w; ++ox) {
        float acc = init;
        for (int64_t ki = 0; ki < k; ++ki) {
          for (int64_t kj = 0; kj < k; ++kj) {
            acc = reduce(acc, input.at3(ci, oy * stride + ki, ox * stride + kj));
          }
        }
        out.at3(ci, oy, ox) = acc;
      }
    }
  }
  return out;
}

}  // namespace

Result<Tensor> MaxPool2dForward(const Tensor& input, int64_t k, int64_t stride) {
  return Pool2d(
      input, k, stride, [](float a, float b) { return std::max(a, b); },
      -std::numeric_limits<float>::infinity());
}

Result<Tensor> AvgPool2dForward(const Tensor& input, int64_t k, int64_t stride) {
  DL2SQL_ASSIGN_OR_RETURN(
      Tensor summed,
      Pool2d(
          input, k, stride, [](float a, float b) { return a + b; }, 0.f));
  const float inv = 1.f / static_cast<float>(k * k);
  for (int64_t i = 0; i < summed.NumElements(); ++i) summed.at(i) *= inv;
  return summed;
}

Result<Tensor> BatchNormForward(const Tensor& input, const Tensor& gamma,
                                const Tensor& beta, const Tensor& mean,
                                const Tensor& var, float eps) {
  if (input.shape().ndim() != 3) {
    return Status::InvalidArgument("BatchNorm requires CHW input, got ",
                                   input.shape().ToString());
  }
  const int64_t c = input.shape()[0];
  if (gamma.NumElements() != c || beta.NumElements() != c ||
      mean.NumElements() != c || var.NumElements() != c) {
    return Status::InvalidArgument("BatchNorm parameter size mismatch for ", c,
                                   " channels");
  }
  const int64_t plane = input.shape()[1] * input.shape()[2];
  Tensor out(input.shape());
  for (int64_t ci = 0; ci < c; ++ci) {
    const float scale =
        gamma.at(ci) / std::sqrt(var.at(ci) + eps);
    const float shift = beta.at(ci) - mean.at(ci) * scale;
    const float* src = input.data() + ci * plane;
    float* dst = out.data() + ci * plane;
    for (int64_t i = 0; i < plane; ++i) dst[i] = src[i] * scale + shift;
  }
  return out;
}

Result<Tensor> InstanceNormForward(const Tensor& input, const Tensor& gamma,
                                   const Tensor& beta, float eps) {
  if (input.shape().ndim() != 3) {
    return Status::InvalidArgument("InstanceNorm requires CHW input, got ",
                                   input.shape().ToString());
  }
  const int64_t c = input.shape()[0];
  if (gamma.NumElements() != c || beta.NumElements() != c) {
    return Status::InvalidArgument("InstanceNorm parameter size mismatch");
  }
  const int64_t plane = input.shape()[1] * input.shape()[2];
  Tensor out(input.shape());
  for (int64_t ci = 0; ci < c; ++ci) {
    const float* src = input.data() + ci * plane;
    double sum = 0;
    for (int64_t i = 0; i < plane; ++i) sum += src[i];
    const double mu = sum / static_cast<double>(plane);
    double sq = 0;
    for (int64_t i = 0; i < plane; ++i) {
      const double d = src[i] - mu;
      sq += d * d;
    }
    const double sigma2 = sq / static_cast<double>(plane);
    const float scale =
        gamma.at(ci) / static_cast<float>(std::sqrt(sigma2 + eps));
    const float shift = beta.at(ci) - static_cast<float>(mu) * scale;
    float* dst = out.data() + ci * plane;
    for (int64_t i = 0; i < plane; ++i) dst[i] = src[i] * scale + shift;
  }
  return out;
}

Result<Tensor> LinearForward(const Tensor& input, const Tensor& weight,
                             const Tensor* bias, Device* device) {
  if (weight.shape().ndim() != 2) {
    return Status::InvalidArgument("Linear weight must be 2-D, got ",
                                   weight.shape().ToString());
  }
  const int64_t out_dim = weight.shape()[0];
  const int64_t in_dim = weight.shape()[1];
  if (input.NumElements() != in_dim) {
    return Status::InvalidArgument("Linear input size ", input.NumElements(),
                                   " != weight in-dim ", in_dim);
  }
  if (bias != nullptr && bias->NumElements() != out_dim) {
    return Status::InvalidArgument("Linear bias size mismatch");
  }
  // y = W x is the n == 1 case of the shared kernel: x is a [in_dim, 1]
  // column read in place.
  Tensor out(Shape({out_dim}));
  Gemm(weight.data(), input.data(), bias != nullptr ? bias->data() : nullptr,
       out.data(), out_dim, in_dim, 1, device);
  return out;
}

Result<Tensor> Deconv2dForward(const Tensor& input, const Tensor& weight,
                               const Tensor* bias, int64_t stride, int64_t pad) {
  if (input.shape().ndim() != 3 || weight.shape().ndim() != 4) {
    return Status::InvalidArgument("Deconv2dForward requires CHW input and ",
                                   "OIHW weight");
  }
  const int64_t out_c = weight.shape()[0];
  const int64_t in_c = weight.shape()[1];
  const int64_t kh = weight.shape()[2];
  const int64_t kw = weight.shape()[3];
  if (input.shape()[0] != in_c) {
    return Status::InvalidArgument("deconv channel mismatch");
  }
  const int64_t h = input.shape()[1];
  const int64_t w = input.shape()[2];
  const int64_t out_h = (h - 1) * stride - 2 * pad + kh;
  const int64_t out_w = (w - 1) * stride - 2 * pad + kw;
  if (out_h <= 0 || out_w <= 0) {
    return Status::InvalidArgument("deconv output would be empty");
  }
  Tensor out(Shape({out_c, out_h, out_w}));
  // Scatter formulation: each input pixel contributes a kh x kw stamp.
  for (int64_t ic = 0; ic < in_c; ++ic) {
    for (int64_t y = 0; y < h; ++y) {
      for (int64_t x = 0; x < w; ++x) {
        const float v = input.at3(ic, y, x);
        if (v == 0.f) continue;
        for (int64_t oc = 0; oc < out_c; ++oc) {
          for (int64_t ki = 0; ki < kh; ++ki) {
            const int64_t oy = y * stride + ki - pad;
            if (oy < 0 || oy >= out_h) continue;
            for (int64_t kj = 0; kj < kw; ++kj) {
              const int64_t ox = x * stride + kj - pad;
              if (ox < 0 || ox >= out_w) continue;
              out.at3(oc, oy, ox) +=
                  v * weight.at((((oc * in_c) + ic) * kh + ki) * kw + kj);
            }
          }
        }
      }
    }
  }
  if (bias != nullptr) {
    const int64_t plane = out_h * out_w;
    for (int64_t oc = 0; oc < out_c; ++oc) {
      float* dst = out.data() + oc * plane;
      for (int64_t i = 0; i < plane; ++i) dst[i] += bias->at(oc);
    }
  }
  return out;
}

}  // namespace dl2sql::nn
