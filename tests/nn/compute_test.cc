/// \file compute_test.cc
/// \brief Kernel-level properties: ParallelMatMul thread-count invariance,
/// bit-identity of the native conv/linear kernels (and whole-model forwards)
/// with the reference composition Im2Col + MatMul + bias, concurrent forwards
/// on one shared model, and the conv/deconv adjoint identity
/// <Conv(x), y> == <x, Deconv(y)>.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "nn/blocks.h"
#include "nn/builders.h"
#include "nn/compute.h"

namespace dl2sql::nn {
namespace {

// True when both tensors have the same shape and the same bytes.
bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.NumElements()) * sizeof(float)) == 0;
}

TEST(ParallelMatMulTest, MatchesSerialAcrossShapes) {
  auto parallel = Device::Create(DeviceKind::kServerCpu);
  Rng rng(1);
  // Include m > 1024 so the thread pool actually splits the row loop.
  const std::pair<int64_t, int64_t> shapes[] = {
      {3, 4}, {64, 64}, {1500, 32}, {2048, 8}};
  for (const auto& [m, k] : shapes) {
    Tensor a = Tensor::Random(Shape({m, k}), &rng, 1.0f);
    Tensor b = Tensor::Random(Shape({k, m / 2 + 1}), &rng, 1.0f);
    auto serial = MatMul(a, b);
    auto par = ParallelMatMul(a, b, parallel.get());
    ASSERT_TRUE(serial.ok() && par.ok());
    EXPECT_TRUE(BitEqual(*serial, *par)) << m << "x" << k;
  }
}

TEST(ParallelMatMulTest, NullDeviceRunsInline) {
  Rng rng(2);
  Tensor a = Tensor::Random(Shape({8, 8}), &rng);
  Tensor b = Tensor::Random(Shape({8, 8}), &rng);
  auto r = ParallelMatMul(a, b, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*MaxAbsDiff(*MatMul(a, b), *r), 0.0);
}

// The reference composition the native conv must reproduce bit for bit: the
// patch matrix, the scalar MatMul, then one bias pass (+0.f without bias).
Tensor RefConv(const Tensor& x, const Tensor& w, const Tensor* bias,
               int64_t stride, int64_t pad) {
  const int64_t out_c = w.shape()[0];
  auto cols = Im2Col(x, w.shape()[2], w.shape()[3], stride, pad);
  DL2SQL_CHECK(cols.ok()) << cols.status().ToString();
  auto wmat = w.Reshape(Shape({out_c, cols->shape()[0]}));
  auto prod = MatMul(*wmat, *cols);
  DL2SQL_CHECK(prod.ok());
  const int64_t out_h = (x.shape()[1] + 2 * pad - w.shape()[2]) / stride + 1;
  const int64_t out_w = (x.shape()[2] + 2 * pad - w.shape()[3]) / stride + 1;
  Tensor out(Shape({out_c, out_h, out_w}));
  const int64_t plane = out_h * out_w;
  for (int64_t oc = 0; oc < out_c; ++oc) {
    const float b = bias != nullptr ? bias->at(oc) : 0.f;
    for (int64_t i = 0; i < plane; ++i) {
      out.at(oc * plane + i) = prod->at(oc * plane + i) + b;
    }
  }
  return out;
}

// y = MatMul(W, x as a column) + b.
Tensor RefLinear(const Tensor& x, const Tensor& w, const Tensor* bias) {
  auto col = x.Reshape(Shape({x.NumElements(), 1}));
  auto prod = MatMul(w, *col);
  DL2SQL_CHECK(prod.ok());
  Tensor out(Shape({w.shape()[0]}));
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    out.at(i) = prod->at(i);
    if (bias != nullptr) out.at(i) += bias->at(i);
  }
  return out;
}

// Zeroes every `every`-th element so the kernels' zero-weight skip runs.
void PlantZeros(Tensor* t, int64_t every) {
  for (int64_t i = 0; i < t->NumElements(); i += every) t->at(i) = 0.f;
}

struct ConvCase {
  int64_t in_c, out_c, h, w, k, stride, pad;
};

class ConvBitIdentityTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBitIdentityTest, MatchesReferenceComposition) {
  const ConvCase p = GetParam();
  Rng rng(p.in_c * 1000 + p.out_c * 100 + p.k * 10 + p.stride + p.pad);
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  Tensor x = Tensor::Random(Shape({p.in_c, p.h, p.w}), &rng, 1.0f);
  Tensor w = Tensor::Random(Shape({p.out_c, p.in_c, p.k, p.k}), &rng, 1.0f);
  Tensor bias = Tensor::Random(Shape({p.out_c}), &rng, 1.0f);
  PlantZeros(&w, 3);
  const Tensor* const biases[] = {nullptr, &bias};
  for (const Tensor* b : biases) {
    auto got = Conv2dForward(x, w, b, p.stride, p.pad, device.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(BitEqual(*got, RefConv(x, w, b, p.stride, p.pad)))
        << "in_c=" << p.in_c << " out_c=" << p.out_c << " " << p.h << "x"
        << p.w << " k=" << p.k << " s=" << p.stride << " p=" << p.pad
        << (b != nullptr ? " with bias" : " no bias");
  }
}

// Kernels 1/3/5, strides 1/2, pads 0/1/2; output widths 1, 3, 5, 7, 9, 11
// and 13 exercise every vector/scalar column tail, out_c 1..9 every row tail.
INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvBitIdentityTest,
    ::testing::Values(ConvCase{3, 4, 16, 16, 3, 2, 1},   // fig8 block1
                      ConvCase{4, 8, 8, 8, 3, 2, 1},     // fig8 block2
                      ConvCase{8, 16, 4, 4, 3, 1, 1},    // fig8 block3
                      ConvCase{1, 2, 8, 8, 3, 2, 1},     // demo block1
                      ConvCase{2, 3, 7, 7, 3, 1, 1},     // out_w 7
                      ConvCase{3, 5, 5, 11, 1, 1, 0},    // k1, out_w 11
                      ConvCase{2, 6, 9, 13, 5, 1, 2},    // k5 p2, out_w 13
                      ConvCase{3, 7, 9, 9, 5, 2, 2},     // k5 s2, out_w 5
                      ConvCase{1, 9, 6, 5, 3, 2, 0},     // out_w 2, out_h 2
                      ConvCase{2, 1, 3, 3, 3, 1, 0},     // out 1x1
                      ConvCase{4, 4, 6, 6, 5, 1, 2},     // out_w 6
                      ConvCase{1, 3, 2, 2, 5, 2, 2},     // kernel wider than x
                      ConvCase{2, 4, 10, 7, 3, 2, 2}));  // pad 2, out_w 5

TEST(ConvBitIdentity, ZeroWeightsSkipNonFiniteInputs) {
  // An output channel whose weights are all zero must come out as its bias
  // even when the input holds an infinity: zero weights are skipped, never
  // multiplied (0 * inf would be NaN).
  Rng rng(5);
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  Tensor x = Tensor::Random(Shape({2, 6, 6}), &rng, 1.0f);
  x.at(7) = std::numeric_limits<float>::infinity();
  Tensor w = Tensor::Random(Shape({5, 2, 3, 3}), &rng, 1.0f);
  for (int64_t i = 2 * 18; i < 3 * 18; ++i) w.at(i) = 0.f;  // channel 2
  Tensor bias = Tensor::Random(Shape({5}), &rng, 1.0f);
  auto got = Conv2dForward(x, w, &bias, 1, 1, device.get());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(BitEqual(*got, RefConv(x, w, &bias, 1, 1)));
  for (int64_t i = 0; i < 36; ++i) EXPECT_EQ(got->at(2 * 36 + i), bias.at(2));
}

TEST(LinearBitIdentity, MatchesReferenceComposition) {
  Rng rng(11);
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  const std::pair<int64_t, int64_t> dims[] = {
      {64, 10}, {64, 2}, {4, 6}, {1, 1}, {17, 3}, {33, 5}, {8, 4}, {128, 9}};
  for (const auto& [in, out] : dims) {
    Tensor x = Tensor::Random(Shape({in}), &rng, 1.0f);
    Tensor w = Tensor::Random(Shape({out, in}), &rng, 1.0f);
    Tensor bias = Tensor::Random(Shape({out}), &rng, 1.0f);
    PlantZeros(&w, 5);
    const Tensor* const biases[] = {nullptr, &bias};
    for (const Tensor* b : biases) {
      auto got = LinearForward(x, w, b, device.get());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(BitEqual(*got, RefLinear(x, w, b))) << in << "->" << out;
    }
  }
}

// Reference forward of one layer: Conv2d and Linear (also inside residual
// and identity blocks) run the reference composition; every other layer
// runs its own Forward, which the native kernels do not touch.
Tensor RefForward(const nn::Layer& layer, const Tensor& x, Device* device);

Tensor RefSequence(const std::vector<nn::LayerPtr>& layers, Tensor x,
                   Device* device) {
  for (const auto& l : layers) x = RefForward(*l, x, device);
  return x;
}

Tensor RefForward(const nn::Layer& layer, const Tensor& x, Device* device) {
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
    return RefConv(x, conv->weight(), conv->bias() ? &*conv->bias() : nullptr,
                   conv->stride(), conv->pad());
  }
  if (const auto* fc = dynamic_cast<const nn::Linear*>(&layer)) {
    return RefLinear(x, fc->weight(), fc->bias() ? &*fc->bias() : nullptr);
  }
  if (const auto* rb = dynamic_cast<const nn::ResidualBlock*>(&layer)) {
    Tensor main_out = RefSequence(rb->main_path(), x, device);
    Tensor sc_out = RefSequence(rb->shortcut(), x, device);
    return Relu(*Add(main_out, sc_out));
  }
  if (const auto* ib = dynamic_cast<const nn::IdentityBlock*>(&layer)) {
    return Relu(*Add(RefSequence(ib->main_path(), x, device), x));
  }
  auto r = layer.Forward(x, device);
  DL2SQL_CHECK(r.ok()) << r.status().ToString();
  return *r;
}

Tensor RefModelForward(const nn::Model& model, const Tensor& x,
                       Device* device) {
  return RefSequence(model.layers(), x, device);
}

std::shared_ptr<Device> FourThreadServer() {
  DeviceProfile p = Device::ServerCpuProfile();
  p.num_threads = 4;
  return std::make_shared<Device>(p);
}

std::vector<nn::Model> FamilyModels() {
  std::vector<nn::Model> models;
  nn::BuilderOptions fig8;  // the fig8 repository's student CNN
  fig8.input_channels = 3;
  fig8.input_size = 16;
  fig8.base_channels = 4;
  fig8.num_classes = 10;
  fig8.seed = 104736;
  models.push_back(nn::BuildStudentCnn(fig8));
  nn::BuilderOptions demo;  // examples/demo_model.h
  demo.input_channels = 1;
  demo.input_size = 8;
  demo.base_channels = 2;
  demo.num_classes = 4;
  demo.seed = 7;
  models.push_back(nn::BuildStudentCnn(demo));
  nn::BuilderOptions res;
  res.input_size = 16;
  res.base_channels = 4;
  for (int64_t depth : {5, 10}) {
    auto m = nn::BuildResNet(depth, res);
    DL2SQL_CHECK(m.ok());
    models.push_back(std::move(m).ValueOrDie());
  }
  return models;
}

TEST(ModelBitIdentity, ForwardMatchesReferenceOnEdgeAndServer) {
  const std::shared_ptr<Device> devices[] = {
      Device::Create(DeviceKind::kEdgeCpu), FourThreadServer()};
  for (const nn::Model& model : FamilyModels()) {
    Rng rng(3);
    for (int trial = 0; trial < 4; ++trial) {
      Tensor x = Tensor::Random(model.input_shape(), &rng, 1.0f);
      const Tensor want = RefModelForward(model, x, devices[0].get());
      for (const auto& device : devices) {
        auto got = model.Forward(x, device.get());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(BitEqual(*got, want))
            << model.name() << " on " << device->profile().name;
      }
    }
  }
}

TEST(ConcurrentForward, SharedModelOnSharedServerDevice) {
  // Four threads run Forward on one model and one 4-thread server device.
  // Each conv unfolds into its calling thread's scratch buffer; the 1024-
  // channel conv is wide enough for the pool to split its rows, so workers
  // read a caller's buffer while other callers fill their own.
  Rng rng(21);
  nn::Model model("wide", Shape({2, 6, 6}), {"a", "b", "c"});
  model.AddLayer(std::make_shared<nn::Conv2d>("wide", 2, 1024, 3, 1, 1, &rng));
  model.AddLayer(std::make_shared<nn::ReluLayer>("relu"));
  model.AddLayer(std::make_shared<nn::Conv2d>("narrow", 1024, 4, 3, 2, 1, &rng));
  model.AddLayer(std::make_shared<nn::Flatten>("flatten"));
  model.AddLayer(std::make_shared<nn::Linear>("fc", 4 * 3 * 3, 3, &rng));
  auto device = FourThreadServer();

  constexpr int kThreads = 4;
  std::vector<Tensor> inputs;
  std::vector<Tensor> want;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(Tensor::Random(model.input_shape(), &rng, 1.0f));
    want.push_back(RefModelForward(model, inputs.back(), device.get()));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 8; ++rep) {
        auto got = model.Forward(inputs[static_cast<size_t>(t)], device.get());
        if (!got.ok() || !BitEqual(*got, want[static_cast<size_t>(t)])) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

double Dot(const Tensor& a, const Tensor& b) {
  double acc = 0;
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    acc += static_cast<double>(a.at(i)) * static_cast<double>(b.at(i));
  }
  return acc;
}

struct AdjointCase {
  int64_t in_c, out_c, size, k, stride, pad;
};

class ConvDeconvAdjointTest : public ::testing::TestWithParam<AdjointCase> {};

TEST_P(ConvDeconvAdjointTest, InnerProductIdentity) {
  // <Conv(x; W), y> == <x, Deconv(y; W^T)> where W^T swaps the channel axes.
  // This is an independent check of both kernels: any indexing or padding
  // bug breaks the identity for random x, y.
  const AdjointCase p = GetParam();
  // Geometry must divide exactly so deconv's output shape matches x.
  ASSERT_EQ((p.size + 2 * p.pad - p.k) % p.stride, 0);
  Rng rng(p.k * 17 + p.stride);
  auto device = Device::Create(DeviceKind::kEdgeCpu);

  Tensor x = Tensor::Random(Shape({p.in_c, p.size, p.size}), &rng, 1.0f);
  Tensor w = Tensor::Random(Shape({p.out_c, p.in_c, p.k, p.k}), &rng, 1.0f);
  auto conv = Conv2dForward(x, w, nullptr, p.stride, p.pad, device.get());
  ASSERT_TRUE(conv.ok()) << conv.status().ToString();
  Tensor y = Tensor::Random(conv->shape(), &rng, 1.0f);

  // W^T: [in_c, out_c, k, k] with weights transposed across channel axes.
  Tensor wt(Shape({p.in_c, p.out_c, p.k, p.k}));
  for (int64_t o = 0; o < p.out_c; ++o) {
    for (int64_t i = 0; i < p.in_c; ++i) {
      for (int64_t a = 0; a < p.k; ++a) {
        for (int64_t b = 0; b < p.k; ++b) {
          wt.at((((i * p.out_c) + o) * p.k + a) * p.k + b) =
              w.at((((o * p.in_c) + i) * p.k + a) * p.k + b);
        }
      }
    }
  }
  auto deconv = Deconv2dForward(y, wt, nullptr, p.stride, p.pad);
  ASSERT_TRUE(deconv.ok()) << deconv.status().ToString();
  ASSERT_EQ(deconv->shape(), x.shape());

  const double lhs = Dot(*conv, y);
  const double rhs = Dot(x, *deconv);
  EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvDeconvAdjointTest,
    ::testing::Values(AdjointCase{1, 1, 5, 3, 1, 0},
                      AdjointCase{2, 3, 7, 3, 2, 0},
                      AdjointCase{3, 2, 6, 3, 1, 1},
                      AdjointCase{2, 4, 9, 5, 2, 0},
                      AdjointCase{4, 1, 8, 1, 1, 0}));

TEST(SoftmaxTest, TwoDimensionalRows) {
  Tensor a(Shape({2, 3}), {1, 2, 3, -1, 0, 1});
  auto s = Softmax(a);
  ASSERT_TRUE(s.ok());
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 3; ++c) sum += s->at2(r, c);
    EXPECT_NEAR(sum, 1.f, 1e-6);
  }
  // Both rows have the same relative offsets, so equal distributions.
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(s->at2(0, c), s->at2(1, c), 1e-6);
  }
}

}  // namespace
}  // namespace dl2sql::nn
