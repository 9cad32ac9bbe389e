/// \file tensor_test.cc
/// \brief Tensor library tests: shapes, elementwise ops, matmul, im2col
/// (validated against a naive direct convolution), padding, blob round-trip.
#include <gtest/gtest.h>

#include "tensor/tensor.h"
#include "tensor/tensor_blob.h"

namespace dl2sql {
namespace {

TEST(ShapeTest, Basics) {
  Shape s({2, 3, 5});
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s.NumElements(), 30);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s.ToString(), "[2, 3, 5]");
  EXPECT_EQ(s.Strides(), (std::vector<int64_t>{15, 5, 1}));
  EXPECT_EQ(Shape({}).NumElements(), 1);
  EXPECT_TRUE(Shape({2, 3}) == Shape({2, 3}));
  EXPECT_TRUE(Shape({2, 3}) != Shape({3, 2}));
}

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t(Shape({2, 2}));
  EXPECT_EQ(t.NumElements(), 4);
  EXPECT_FLOAT_EQ(t.at(0), 0.f);
  t.at2(1, 1) = 5.f;
  EXPECT_FLOAT_EQ(t.at(3), 5.f);
  t.Fill(2.f);
  EXPECT_FLOAT_EQ(t.at(2), 2.f);
}

TEST(TensorTest, CopySharesBufferCloneDoesNot) {
  Tensor a(Shape({3}), {1.f, 2.f, 3.f});
  Tensor b = a;          // aliases
  Tensor c = a.Clone();  // deep copy
  b.at(0) = 9.f;
  EXPECT_FLOAT_EQ(a.at(0), 9.f);
  EXPECT_FLOAT_EQ(c.at(0), 1.f);
}

TEST(TensorTest, ReshapeChecksElementCount) {
  Tensor t(Shape({2, 3}));
  EXPECT_TRUE(t.Reshape(Shape({6})).ok());
  EXPECT_TRUE(t.Reshape(Shape({3, 2})).ok());
  EXPECT_FALSE(t.Reshape(Shape({5})).ok());
}

TEST(TensorOpsTest, AddMulShapeChecks) {
  Tensor a(Shape({2}), {1.f, 2.f});
  Tensor b(Shape({2}), {3.f, 4.f});
  auto sum = Add(a, b);
  ASSERT_TRUE(sum.ok());
  EXPECT_FLOAT_EQ(sum->at(1), 6.f);
  auto prod = Mul(a, b);
  ASSERT_TRUE(prod.ok());
  EXPECT_FLOAT_EQ(prod->at(1), 8.f);
  EXPECT_FALSE(Add(a, Tensor(Shape({3}))).ok());
}

TEST(TensorOpsTest, Relu) {
  Tensor a(Shape({4}), {-1.f, 0.f, 2.f, -0.5f});
  Tensor r = Relu(a);
  EXPECT_FLOAT_EQ(r.at(0), 0.f);
  EXPECT_FLOAT_EQ(r.at(2), 2.f);
  EXPECT_FLOAT_EQ(r.at(3), 0.f);
}

TEST(TensorOpsTest, MatMulSmall) {
  Tensor a(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  auto c = MatMul(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_FLOAT_EQ(c->at2(0, 0), 58.f);
  EXPECT_FLOAT_EQ(c->at2(0, 1), 64.f);
  EXPECT_FLOAT_EQ(c->at2(1, 0), 139.f);
  EXPECT_FLOAT_EQ(c->at2(1, 1), 154.f);
  EXPECT_FALSE(MatMul(a, a).ok());  // inner-dim mismatch
}

TEST(TensorOpsTest, SoftmaxSumsToOne) {
  Tensor a(Shape({4}), {0.5f, -1.f, 3.f, 0.f});
  auto s = Softmax(a);
  ASSERT_TRUE(s.ok());
  float sum = 0;
  for (int64_t i = 0; i < 4; ++i) {
    sum += s->at(i);
    EXPECT_GT(s->at(i), 0.f);
  }
  EXPECT_NEAR(sum, 1.f, 1e-6);
  // Invariance under shift.
  Tensor b(Shape({4}), {100.5f, 99.f, 103.f, 100.f});
  auto s2 = Softmax(b);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(s->at(i), s2->at(i), 1e-6);
}

TEST(TensorOpsTest, PadChw) {
  Tensor a(Shape({1, 2, 2}), {1, 2, 3, 4});
  auto p = PadChw(a, 1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->shape(), Shape({1, 4, 4}));
  EXPECT_FLOAT_EQ(p->at3(0, 0, 0), 0.f);
  EXPECT_FLOAT_EQ(p->at3(0, 1, 1), 1.f);
  EXPECT_FLOAT_EQ(p->at3(0, 2, 2), 4.f);
  EXPECT_FALSE(PadChw(a, -1).ok());
  // pad 0 is identity.
  auto p0 = PadChw(a, 0);
  EXPECT_EQ(p0->shape(), a.shape());
}

/// Naive direct convolution used as the ground truth for im2col.
float DirectConvAt(const Tensor& in, const Tensor& w, int64_t oc, int64_t oy,
                   int64_t ox, int64_t stride, int64_t pad) {
  const int64_t in_c = in.shape()[0];
  const int64_t h = in.shape()[1];
  const int64_t wd = in.shape()[2];
  const int64_t k = w.shape()[2];
  float acc = 0;
  for (int64_t ic = 0; ic < in_c; ++ic) {
    for (int64_t i = 0; i < k; ++i) {
      for (int64_t j = 0; j < k; ++j) {
        const int64_t y = oy * stride + i - pad;
        const int64_t x = ox * stride + j - pad;
        if (y < 0 || y >= h || x < 0 || x >= wd) continue;
        acc += in.at3(ic, y, x) *
               w.at((((oc * in_c) + ic) * k + i) * k + j);
      }
    }
  }
  return acc;
}

struct Im2ColCase {
  int64_t c, size, k, stride, pad;
};

class Im2ColPropertyTest : public ::testing::TestWithParam<Im2ColCase> {};

TEST_P(Im2ColPropertyTest, MatchesDirectConvolution) {
  const Im2ColCase p = GetParam();
  Rng rng(p.c * 100 + p.k);
  Tensor in = Tensor::Random(Shape({p.c, p.size, p.size}), &rng, 1.0f);
  Tensor w = Tensor::Random(Shape({2, p.c, p.k, p.k}), &rng, 1.0f);

  auto cols = Im2Col(in, p.k, p.k, p.stride, p.pad);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  auto wmat = w.Reshape(Shape({2, p.c * p.k * p.k}));
  ASSERT_TRUE(wmat.ok());
  auto out = MatMul(*wmat, *cols);
  ASSERT_TRUE(out.ok());

  const int64_t out_size = (p.size + 2 * p.pad - p.k) / p.stride + 1;
  ASSERT_EQ(out->shape()[1], out_size * out_size);
  for (int64_t oc = 0; oc < 2; ++oc) {
    for (int64_t oy = 0; oy < out_size; ++oy) {
      for (int64_t ox = 0; ox < out_size; ++ox) {
        EXPECT_NEAR(out->at2(oc, oy * out_size + ox),
                    DirectConvAt(in, w, oc, oy, ox, p.stride, p.pad), 1e-4)
            << "oc=" << oc << " oy=" << oy << " ox=" << ox;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColPropertyTest,
    ::testing::Values(Im2ColCase{1, 5, 3, 1, 0}, Im2ColCase{1, 5, 3, 2, 0},
                      Im2ColCase{3, 6, 3, 1, 1}, Im2ColCase{2, 7, 5, 2, 2},
                      Im2ColCase{4, 4, 1, 1, 0}, Im2ColCase{2, 8, 3, 3, 1}));

TEST(TensorOpsTest, Im2ColGathersFromZeroPaddedInput) {
  // Every patch-matrix entry is a copy of the explicitly zero-padded input,
  // for non-square inputs and kernels, every pad 0..3 and strides 1..3.
  Rng rng(4);
  Tensor in = Tensor::Random(Shape({2, 5, 7}), &rng, 1.0f);
  for (int64_t pad = 0; pad <= 3; ++pad) {
    auto padded = PadChw(in, pad);
    ASSERT_TRUE(padded.ok());
    for (int64_t stride = 1; stride <= 3; ++stride) {
      for (const auto& [kh, kw] : {std::pair<int64_t, int64_t>{1, 1},
                                   {3, 2}, {2, 5}, {5, 5}}) {
        auto cols = Im2Col(in, kh, kw, stride, pad);
        ASSERT_TRUE(cols.ok()) << cols.status().ToString();
        const int64_t out_h = (5 + 2 * pad - kh) / stride + 1;
        const int64_t out_w = (7 + 2 * pad - kw) / stride + 1;
        ASSERT_EQ(cols->shape(), Shape({2 * kh * kw, out_h * out_w}));
        for (int64_t c = 0; c < 2; ++c) {
          for (int64_t ki = 0; ki < kh; ++ki) {
            for (int64_t kj = 0; kj < kw; ++kj) {
              for (int64_t oy = 0; oy < out_h; ++oy) {
                for (int64_t ox = 0; ox < out_w; ++ox) {
                  ASSERT_EQ(cols->at2((c * kh + ki) * kw + kj, oy * out_w + ox),
                            padded->at3(c, oy * stride + ki, ox * stride + kj))
                      << "pad=" << pad << " stride=" << stride << " k=" << kh
                      << "x" << kw;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(TensorOpsTest, Im2ColErrors) {
  Tensor in(Shape({1, 3, 3}));
  EXPECT_FALSE(Im2Col(in, 5, 5, 1, 0).ok());   // kernel larger than input
  EXPECT_FALSE(Im2Col(in, 2, 2, 0, 0).ok());   // bad stride
  EXPECT_FALSE(Im2Col(in, 2, 2, 1, -1).ok());  // negative padding
  EXPECT_FALSE(Im2Col(Tensor(Shape({3, 3})), 2, 2, 1, 0).ok());  // not CHW
}

TEST(TensorOpsTest, MaxAbsDiff) {
  Tensor a(Shape({2}), {1.f, 2.f});
  Tensor b(Shape({2}), {1.5f, 1.f});
  auto d = MaxAbsDiff(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 1.0);
  EXPECT_FALSE(MaxAbsDiff(a, Tensor(Shape({3}))).ok());
}

TEST(TensorBlobTest, RoundTrip) {
  Rng rng(3);
  Tensor t = Tensor::Random(Shape({3, 4, 5}), &rng, 2.0f);
  const std::string blob = EncodeTensorBlob(t);
  auto back = DecodeTensorBlob(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shape(), t.shape());
  auto diff = MaxAbsDiff(t, *back);
  EXPECT_DOUBLE_EQ(*diff, 0.0);
}

TEST(TensorBlobTest, RejectsCorruptInput) {
  EXPECT_FALSE(DecodeTensorBlob("").ok());
  EXPECT_FALSE(DecodeTensorBlob("garbage").ok());
  Tensor t(Shape({2, 2}));
  std::string blob = EncodeTensorBlob(t);
  blob.resize(blob.size() - 4);  // truncate payload
  EXPECT_FALSE(DecodeTensorBlob(blob).ok());
}

}  // namespace
}  // namespace dl2sql
