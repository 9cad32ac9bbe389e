/// \file tensor.h
/// \brief Dense float32 tensor used by the minidl inference library and by the
/// DL2SQL model-to-table converter.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "tensor/shape.h"

namespace dl2sql {

/// \brief A reference-counted dense float tensor with row-major layout.
///
/// Copying a Tensor shares the underlying buffer (cheap); use Clone() for a
/// deep copy. All inference code in this repo is single-precision, matching
/// the paper's edge-device deployment.
class Tensor {
 public:
  /// Empty 0-d tensor.
  Tensor() : shape_({}), data_(std::make_shared<std::vector<float>>(1, 0.f)) {}

  /// Allocates a zero-filled tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(std::make_shared<std::vector<float>>(
            static_cast<size_t>(shape_.NumElements()), 0.f)) {}

  /// Wraps existing values; `values.size()` must equal shape.NumElements().
  Tensor(Shape shape, std::vector<float> values)
      : shape_(std::move(shape)),
        data_(std::make_shared<std::vector<float>>(std::move(values))) {
    DL2SQL_CHECK(static_cast<int64_t>(data_->size()) == shape_.NumElements())
        << "value count " << data_->size() << " != shape " << shape_.ToString();
  }

  const Shape& shape() const { return shape_; }
  int64_t NumElements() const { return shape_.NumElements(); }

  float* data() { return data_->data(); }
  const float* data() const { return data_->data(); }

  float& at(int64_t i) { return (*data_)[static_cast<size_t>(i)]; }
  float at(int64_t i) const { return (*data_)[static_cast<size_t>(i)]; }

  /// 3-D (CHW) element access.
  float& at3(int64_t c, int64_t h, int64_t w) {
    return (*data_)[static_cast<size_t>((c * shape_[1] + h) * shape_[2] + w)];
  }
  float at3(int64_t c, int64_t h, int64_t w) const {
    return (*data_)[static_cast<size_t>((c * shape_[1] + h) * shape_[2] + w)];
  }

  /// 2-D element access.
  float& at2(int64_t r, int64_t c) {
    return (*data_)[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at2(int64_t r, int64_t c) const {
    return (*data_)[static_cast<size_t>(r * shape_[1] + c)];
  }

  /// Deep copy.
  Tensor Clone() const {
    return Tensor(shape_, std::vector<float>(*data_));
  }

  /// Returns a tensor sharing this buffer but viewed with a new shape of the
  /// same element count.
  Result<Tensor> Reshape(const Shape& new_shape) const {
    if (new_shape.NumElements() != shape_.NumElements()) {
      return Status::InvalidArgument("cannot reshape ", shape_.ToString(), " to ",
                                     new_shape.ToString());
    }
    Tensor t = *this;
    t.shape_ = new_shape;
    return t;
  }

  void FillZero() { std::fill(data_->begin(), data_->end(), 0.f); }
  void Fill(float v) { std::fill(data_->begin(), data_->end(), v); }

  /// Kaiming-uniform-like initialization used for all model builders; the
  /// exact distribution does not matter for the systems experiments, only
  /// that it is deterministic per seed.
  void RandomInit(Rng* rng, float scale = 0.1f) {
    for (auto& v : *data_) v = rng->UniformFloat(-scale, scale);
  }

  /// Creates a tensor with uniform random values.
  static Tensor Random(Shape shape, Rng* rng, float scale = 0.1f) {
    Tensor t(std::move(shape));
    t.RandomInit(rng, scale);
    return t;
  }

  const std::vector<float>& values() const { return *data_; }

 private:
  Shape shape_;
  std::shared_ptr<std::vector<float>> data_;
};

/// \name Elementwise & linear-algebra kernels (tensor_ops.cc)
/// @{

/// out = a + b (shapes must match).
Result<Tensor> Add(const Tensor& a, const Tensor& b);

/// out = a * b elementwise (shapes must match).
Result<Tensor> Mul(const Tensor& a, const Tensor& b);

/// out = max(a, 0).
Tensor Relu(const Tensor& a);

/// Matrix product of [m,k] x [k,n] -> [m,n].
Result<Tensor> MatMul(const Tensor& a, const Tensor& b);

/// Numerically stable softmax over the last axis of a 1-D or 2-D tensor.
Result<Tensor> Softmax(const Tensor& a);

/// Max |a - b| over all elements; shapes must match (checked).
Result<double> MaxAbsDiff(const Tensor& a, const Tensor& b);

/// Zero-pads a CHW tensor by `pad` on both sides of H and W.
Result<Tensor> PadChw(const Tensor& input, int64_t pad);

/// Shape of one im2col unfold of a CHW input: a [rows(), cols()] patch matrix.
struct Im2ColGeometry {
  int64_t c = 0, h = 0, w = 0;  ///< input channels, height, width
  int64_t kh = 0, kw = 0, stride = 1, pad = 0;
  int64_t out_h = 0, out_w = 0;

  int64_t rows() const { return c * kh * kw; }
  int64_t cols() const { return out_h * out_w; }
};

/// Checks an im2col of an `input`-shaped tensor (CHW, positive stride,
/// non-negative pad, kernel no larger than the padded input) and returns its
/// geometry.
Result<Im2ColGeometry> MakeIm2ColGeometry(const Shape& input, int64_t kh,
                                          int64_t kw, int64_t stride,
                                          int64_t pad);

/// Writes the patch matrix of the CHW data at `input` into `out`
/// (g.rows() * g.cols() floats), reading padding as zeros. This is the one
/// im2col loop: Im2Col wraps it, and the minidl conv kernel unfolds into a
/// reused scratch buffer with it.
void Im2ColInto(const float* input, const Im2ColGeometry& g, float* out);

/// im2col: unfolds a CHW input into a [C*kh*kw, out_h*out_w] patch matrix for
/// convolution-as-matmul. Mirrored by the DL2SQL feature-map table layout.
Result<Tensor> Im2Col(const Tensor& input, int64_t kh, int64_t kw, int64_t stride,
                      int64_t pad);

/// @}

}  // namespace dl2sql
