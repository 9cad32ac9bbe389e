/// \file micro_nn.cc
/// \brief google-benchmark microbenchmarks of the minidl inference kernels
/// and the DL2SQL conversion/inference path.
#include <benchmark/benchmark.h>

#include "dl2sql/pipeline.h"
#include "nn/builders.h"
#include "nn/compute.h"

namespace dl2sql {
namespace {

// Args: {input channels, input size, base channels}.
void BM_NativeStudentForward(benchmark::State& state) {
  nn::BuilderOptions b;
  b.input_channels = state.range(0);
  b.input_size = state.range(1);
  b.base_channels = state.range(2);
  nn::Model model = nn::BuildStudentCnn(b);
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  Rng rng(1);
  Tensor input = Tensor::Random(model.input_shape(), &rng, 1.0f);
  for (auto _ : state) {
    auto r = model.Forward(input, device.get());
    DL2SQL_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NativeStudentForward)
    ->ArgNames({"c", "size", "base"})
    ->Args({1, 8, 2})    // examples/demo_model.h, the served nudf_student
    ->Args({3, 16, 4})   // the fig8 model repository
    ->Args({3, 16, 8})
    ->Args({3, 32, 8})
    ->Args({3, 64, 8});

// Args: {in dim, out dim}. The fig8 student's head is 64 -> 2..10.
void BM_LinearForward(benchmark::State& state) {
  Rng rng(1);
  Tensor x = Tensor::Random(Shape({state.range(0)}), &rng, 1.0f);
  Tensor w = Tensor::Random(Shape({state.range(1), state.range(0)}), &rng);
  Tensor bias = Tensor::Random(Shape({state.range(1)}), &rng);
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  for (auto _ : state) {
    auto r = nn::LinearForward(x, w, &bias, device.get());
    DL2SQL_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LinearForward)
    ->ArgNames({"in", "out"})
    ->Args({64, 10})
    ->Args({512, 64});

void BM_NativeResNetForward(benchmark::State& state) {
  nn::BuilderOptions b;
  b.input_size = 32;
  b.base_channels = 8;
  auto model = nn::BuildResNet(state.range(0), b);
  DL2SQL_CHECK(model.ok());
  auto device = Device::Create(DeviceKind::kEdgeCpu);
  Rng rng(1);
  Tensor input = Tensor::Random(model->input_shape(), &rng, 1.0f);
  for (auto _ : state) {
    auto r = model->Forward(input, device.get());
    DL2SQL_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NativeResNetForward)->Arg(5)->Arg(10)->Arg(20);

void BM_Dl2SqlStudentInfer(benchmark::State& state) {
  nn::BuilderOptions b;
  b.input_size = state.range(0);
  b.base_channels = 4;
  nn::Model model = nn::BuildStudentCnn(b);
  db::Database db;
  auto converted = core::ConvertModel(model, {}, &db);
  DL2SQL_CHECK(converted.ok());
  core::Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
  Rng rng(1);
  Tensor input = Tensor::Random(model.input_shape(), &rng, 1.0f);
  for (auto _ : state) {
    auto r = runner.Infer(input);
    DL2SQL_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Dl2SqlStudentInfer)->Arg(8)->Arg(16)->Arg(32);

void BM_ConvertModel(benchmark::State& state) {
  nn::BuilderOptions b;
  b.input_size = 16;
  b.base_channels = 8;
  auto model = nn::BuildResNet(state.range(0), b);
  DL2SQL_CHECK(model.ok());
  for (auto _ : state) {
    db::Database db;
    auto converted = core::ConvertModel(*model, {}, &db);
    DL2SQL_CHECK(converted.ok());
    benchmark::DoNotOptimize(converted);
  }
}
BENCHMARK(BM_ConvertModel)->Arg(5)->Arg(10);

}  // namespace
}  // namespace dl2sql

BENCHMARK_MAIN();
