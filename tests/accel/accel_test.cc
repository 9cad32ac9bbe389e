/// \file accel_test.cc
/// \brief Thread pool and simulated-device tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "accel/device.h"
#include "accel/thread_pool.h"

namespace dl2sql {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(10000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SmallRangesRunInline) {
  ThreadPool pool(4);
  int64_t sum = 0;  // safe: inline execution for n < 1024
  pool.ParallelFor(100, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPoolTest, ZeroAndNegativeAreNoOps) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](int64_t, int64_t) { called = true; });
  pool.ParallelFor(-5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<int64_t> data(200000);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(static_cast<int64_t>(data.size()), [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += data[static_cast<size_t>(i)];
    total += local;
  });
  EXPECT_EQ(total.load(), 199999ll * 200000 / 2);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolMorselTest, CoversRangeExactlyOnceWithSmallMorsels) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(50000);
  ASSERT_TRUE(pool.ParallelForMorsel(50000, 128,
                                     [&](int64_t b, int64_t e, int) {
                                       for (int64_t i = b; i < e; ++i) {
                                         hits[static_cast<size_t>(i)]++;
                                       }
                                       return Status::OK();
                                     })
                  .ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolMorselTest, PropagatesFirstErrorAndCancels) {
  ThreadPool pool(4);
  std::atomic<int64_t> morsels_run{0};
  const Status s = pool.ParallelForMorsel(
      1 << 20, 64, [&](int64_t b, int64_t, int) -> Status {
        morsels_run++;
        if (b >= 4096) {
          return Status::InvalidArgument("boom at ", b);
        }
        return Status::OK();
      });
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("boom"), std::string::npos);
  // Cancellation: the failure stops the cursor well before all 16384
  // morsels are dispatched.
  EXPECT_LT(morsels_run.load(), (1 << 20) / 64);
}

TEST(ThreadPoolMorselTest, RangeSmallerThanOneMorselRunsInline) {
  ThreadPool pool(4);
  int calls = 0;  // safe without atomics: must run inline on this thread
  ASSERT_TRUE(pool.ParallelForMorsel(100, 4096,
                                     [&](int64_t b, int64_t e, int worker) {
                                       ++calls;
                                       EXPECT_EQ(b, 0);
                                       EXPECT_EQ(e, 100);
                                       EXPECT_EQ(worker, 0);
                                       return Status::OK();
                                     })
                  .ok());
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolMorselTest, WorkerIdsAreInRange) {
  ThreadPool pool(3);
  std::atomic<bool> bad{false};
  ASSERT_TRUE(pool.ParallelForMorsel(100000, 64,
                                     [&](int64_t, int64_t, int worker) {
                                       if (worker < 0 || worker >= 3) {
                                         bad = true;
                                       }
                                       return Status::OK();
                                     })
                  .ok());
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPoolMorselTest, NestedInvocationFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int64_t> inner_total{0};
  const Status s = pool.ParallelForMorsel(
      1 << 16, 1024, [&](int64_t b, int64_t e, int) {
        // A nested parallel loop issued from a pool worker must degrade to an
        // inline serial loop instead of waiting on the (occupied) pool.
        int64_t local = 0;
        const Status inner = pool.ParallelForMorsel(
            e - b, 128, [&](int64_t ib, int64_t ie, int) {
              local += ie - ib;
              return Status::OK();
            });
        inner_total += local;
        return inner;
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(inner_total.load(), 1 << 16);
}

TEST(ThreadPoolMorselTest, ZeroRowsIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  ASSERT_TRUE(pool.ParallelForMorsel(0, 4096,
                                     [&](int64_t, int64_t, int) {
                                       called = true;
                                       return Status::OK();
                                     })
                  .ok());
  EXPECT_FALSE(called);
}

TEST(ThreadPoolMorselTest, FixedBoundariesRegardlessOfThreadCount) {
  // Morsel i must cover [i*m, min(n, (i+1)*m)) for every pool size — the
  // property per-morsel output buffers rely on for determinism.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> seen;
    ASSERT_TRUE(pool.ParallelForMorsel(10000, 1024,
                                       [&](int64_t b, int64_t e, int) {
                                         std::lock_guard<std::mutex> lock(mu);
                                         seen.emplace_back(b, e);
                                         return Status::OK();
                                       })
                    .ok());
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 10u);
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].first, static_cast<int64_t>(i) * 1024);
      EXPECT_EQ(seen[i].second,
                std::min<int64_t>(10000, static_cast<int64_t>(i + 1) * 1024));
    }
  }
}

TEST(ThreadPoolMorselTest, ConcurrentCallersSurviveBackToBackSmallCalls) {
  // Each call's completion state lives on its caller's stack. Many short
  // calls from several threads at once make the caller's return race the
  // last worker's completion signal; the pool must never touch a finished
  // call's frame (run under TSAN/ASan to see it).
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 3000;
  std::atomic<int64_t> rows{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCallsPerCaller; ++i) {
        const Status s = pool.ParallelForMorsel(
            64, 8, [&](int64_t b, int64_t e, int) {
              rows.fetch_add(e - b, std::memory_order_relaxed);
              return Status::OK();
            });
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rows.load(), int64_t{kCallers} * kCallsPerCaller * 64);
}

TEST(DeviceTest, ProfilesMatchPaperTestbeds) {
  auto edge = Device::Create(DeviceKind::kEdgeCpu);
  auto server = Device::Create(DeviceKind::kServerCpu);
  auto gpu = Device::Create(DeviceKind::kServerGpu);
  EXPECT_EQ(edge->profile().num_threads, 1);
  EXPECT_FALSE(edge->profile().NeedsTransfer());
  EXPECT_FALSE(server->profile().NeedsTransfer());
  EXPECT_TRUE(gpu->profile().NeedsTransfer());
  // The GPU is the fastest at tensor compute; the edge the slowest.
  EXPECT_LT(gpu->profile().compute_scale, server->profile().compute_scale);
  EXPECT_LT(server->profile().compute_scale, edge->profile().compute_scale);
  // SQL runs at host speed on both server profiles.
  EXPECT_DOUBLE_EQ(gpu->profile().relational_scale,
                   server->profile().relational_scale);
}

TEST(DeviceTest, TransferModel) {
  auto gpu = Device::Create(DeviceKind::kServerGpu);
  const double small = gpu->TransferSeconds(4);
  const double large = gpu->TransferSeconds(1 << 30);
  EXPECT_GE(small, gpu->profile().transfer_latency_s);
  EXPECT_GT(large, small);
  // Latency floor dominates tiny copies.
  EXPECT_NEAR(small, gpu->profile().transfer_latency_s, 1e-6);

  auto edge = Device::Create(DeviceKind::kEdgeCpu);
  EXPECT_DOUBLE_EQ(edge->TransferSeconds(1 << 20), 0.0);
}

TEST(DeviceTest, ChargeTransferAccumulates) {
  auto gpu = Device::Create(DeviceKind::kServerGpu);
  CostAccumulator acc;
  const double s = gpu->ChargeTransfer(1 << 20, &acc, "loading");
  EXPECT_GT(s, 0.0);
  EXPECT_DOUBLE_EQ(acc.Get("loading"), s);
}

}  // namespace
}  // namespace dl2sql
