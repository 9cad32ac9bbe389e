/// \file compute.h
/// \brief Dense inference kernels shared by the layer implementations.
///
/// These are the "native" (LibTorch-equivalent) code paths used by the
/// independent-processing and UDF strategies. DL2SQL instead executes the
/// same math as SQL over relational tables; the property tests in
/// tests/dl2sql assert both paths agree to float tolerance.
#pragma once

#include "accel/device.h"
#include "common/result.h"
#include "tensor/tensor.h"

namespace dl2sql::nn {

/// 2-D convolution of a CHW input with OIHW weights, optional bias [out_c].
/// Implemented as im2col into a reused per-thread buffer + the shared GEMM
/// row kernel; each output element is bit-identical to Im2Col + MatMul + bias.
Result<Tensor> Conv2dForward(const Tensor& input, const Tensor& weight,
                             const Tensor* bias, int64_t stride, int64_t pad,
                             Device* device);

/// Max pooling over kxk windows with the given stride (CHW input).
Result<Tensor> MaxPool2dForward(const Tensor& input, int64_t k, int64_t stride);

/// Average pooling over kxk windows with the given stride (CHW input).
Result<Tensor> AvgPool2dForward(const Tensor& input, int64_t k, int64_t stride);

/// Inference-mode batch normalization over channels of a CHW input.
Result<Tensor> BatchNormForward(const Tensor& input, const Tensor& gamma,
                                const Tensor& beta, const Tensor& mean,
                                const Tensor& var, float eps);

/// Instance normalization: normalizes each channel by its own spatial
/// statistics (no running stats).
Result<Tensor> InstanceNormForward(const Tensor& input, const Tensor& gamma,
                                   const Tensor& beta, float eps);

/// Fully connected: y = W x + b for 1-D x, W [out, in], b [out].
Result<Tensor> LinearForward(const Tensor& input, const Tensor& weight,
                             const Tensor* bias, Device* device);

/// Transposed convolution (deconvolution) of a CHW input with IOHW-equivalent
/// weights stored OIHW (out_c first), stride/pad per the usual conv-transpose
/// shape rule: out = (in - 1) * stride - 2*pad + k.
Result<Tensor> Deconv2dForward(const Tensor& input, const Tensor& weight,
                               const Tensor* bias, int64_t stride, int64_t pad);

/// Matmul whose row loop is spread over the device's thread pool;
/// bit-identical to MatMul.
Result<Tensor> ParallelMatMul(const Tensor& a, const Tensor& b, Device* device);

}  // namespace dl2sql::nn
