#include "common/threading.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <gtest/gtest.h>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/communicator.h"

namespace vero {
namespace {

// Kernel thread id. Unlike std::thread::id it is not recycled as soon as a
// thread exits, so a respawned helper shows up as a new id.
long OsThreadId() { return syscall(SYS_gettid); }

TEST(BarrierTest, ExactlyOneSerialParticipantPerCycle) {
  const size_t n = 4;
  Barrier barrier(n);
  std::atomic<int> serial_count{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&] {
      for (int cycle = 0; cycle < 50; ++cycle) {
        if (barrier.ArriveAndWaitFor(0) == BarrierWait::kSerial) {
          serial_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(serial_count.load(), 50);
}

TEST(BarrierTest, SynchronizesPhases) {
  const size_t n = 3;
  Barrier barrier(n);
  std::atomic<int> phase_sum{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&] {
      for (int cycle = 0; cycle < 100; ++cycle) {
        phase_sum.fetch_add(1);
        barrier.ArriveAndWaitFor(0);
        // Between barriers every thread must have incremented.
        if (phase_sum.load() < static_cast<int>(n) * (cycle + 1)) {
          violated.store(true);
        }
        barrier.ArriveAndWaitFor(0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated.load());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroIterations) {
  ParallelFor(0, 4, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The runtime is process-wide, so its helper count is the peak number of
// helper slots open at once over every case in this binary. Every other
// case opens at most kReuseWidth - 1 at once (the Cluster case: 4 workers x
// 1), so a call of width kReuseWidth can only ever run on the caller and
// kReuseWidth - 1 helpers.
constexpr size_t kReuseWidth = 5;

TEST(ParallelForTest, BackToBackCallsReuseHelpers) {
  constexpr size_t kIndices = 64;
  const long caller = OsThreadId();
  std::vector<std::atomic<int>> hits(kIndices);
  std::vector<long> runner(kIndices);
  std::set<long> threads;
  for (int call = 0; call < 1000; ++call) {
    for (auto& h : hits) h.store(0);
    ParallelFor(kIndices, kReuseWidth, [&](size_t i) {
      hits[i].fetch_add(1);
      runner[i] = OsThreadId();
    });
    for (size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "call " << call << " index " << i;
    }
    threads.insert(runner.begin(), runner.end());
  }
  // The caller is worker 0, and helpers persist across calls instead of
  // being spawned per call.
  EXPECT_EQ(threads.count(caller), 1u);
  EXPECT_LE(threads.size(), kReuseWidth);
}

TEST(ParallelForTest, ConcurrentCallersEachCoverEveryIndex) {
  constexpr size_t kIndices = 97;
  Cluster cluster(4);
  cluster.Run([&](WorkerContext&) {
    for (int call = 0; call < 200; ++call) {
      std::vector<std::atomic<int>> hits(kIndices);
      ParallelFor(kIndices, 2, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < kIndices; ++i) ASSERT_EQ(hits[i].load(), 1);
    }
  });
}

TEST(ParallelForTest, NestedCallCompletes) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(kOuter, 2, [&](size_t i) {
    ParallelFor(kInner, 2,
                [&](size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ExceptionReachesCallerAndRuntimeRecovers) {
  EXPECT_THROW(ParallelFor(100, 2,
                           [](size_t i) {
                             if (i == 37) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(100, 2, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace vero
