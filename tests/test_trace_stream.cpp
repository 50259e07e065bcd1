// TraceStream semantics: FIFO delivery, close/cancel lifecycle, backpressure
// blocking, and the footprint watermarks the sim exports. Cross-thread
// races are exercised separately in test_concurrency_stress.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/trace_stream.h"

namespace slc {
namespace {

std::shared_ptr<const KernelTrace> named_kernel(const std::string& name, size_t accesses = 1) {
  auto k = std::make_shared<KernelTrace>();
  k->name = name;
  k->compute_per_access = 1.0;
  for (size_t i = 0; i < accesses; ++i) {
    TraceAccess a;
    a.addr = i * kBlockBytes;
    a.bursts = 1;
    k->accesses.push_back(a);
  }
  return k;
}

TEST(TraceStream, DeliversFifo) {
  TraceStream s(0);
  ASSERT_TRUE(s.push(named_kernel("a")));
  ASSERT_TRUE(s.push(named_kernel("b")));
  ASSERT_TRUE(s.push(named_kernel("c")));
  s.close();
  EXPECT_EQ(s.pop()->name, "a");
  EXPECT_EQ(s.pop()->name, "b");
  EXPECT_EQ(s.pop()->name, "c");
  EXPECT_EQ(s.pop(), nullptr) << "closed and drained";
  EXPECT_EQ(s.pop(), nullptr) << "null terminator is sticky";
}

TEST(TraceStream, PushAfterCloseThrows) {
  TraceStream s(0);
  s.close();
  EXPECT_THROW(s.push(named_kernel("late")), std::logic_error);
}

TEST(TraceStream, CancelDiscardsQueuedChunksAndRejectsPushes) {
  TraceStream s(0);
  auto doomed = named_kernel("doomed");
  const std::weak_ptr<const KernelTrace> queued = doomed;
  ASSERT_TRUE(s.push(std::move(doomed)));
  s.cancel();
  EXPECT_TRUE(queued.expired()) << "cancel releases the queued chunk";
  EXPECT_EQ(s.pop(), nullptr);
  EXPECT_FALSE(s.push(named_kernel("rejected")));
}

TEST(TraceStream, BudgetBlocksPushUntilPop) {
  TraceStream s(1);
  ASSERT_TRUE(s.push(named_kernel("first")));
  std::atomic<bool> second_landed{false};
  std::thread producer([&] {
    ASSERT_TRUE(s.push(named_kernel("second")));  // must block: queue full
    second_landed = true;
  });
  // The producer cannot complete until we drain a slot. Give it a moment to
  // park on the condvar, then assert it is still parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_landed.load()) << "push must wait at the budget";
  EXPECT_EQ(s.pop()->name, "first");
  producer.join();
  EXPECT_TRUE(second_landed.load());
  EXPECT_EQ(s.pop()->name, "second");
  EXPECT_EQ(s.chunk_high_water(), 1u) << "queue never exceeded the budget";
}

TEST(TraceStream, WatermarksTrackPeakFootprint) {
  TraceStream s(0);
  ASSERT_TRUE(s.push(named_kernel("a", 10)));
  ASSERT_TRUE(s.push(named_kernel("b", 30)));
  EXPECT_EQ(s.chunk_high_water(), 2u);
  EXPECT_EQ(s.access_high_water(), 40u);
  s.pop();
  // Draining never lowers a high-water mark.
  ASSERT_TRUE(s.push(named_kernel("c", 1)));
  EXPECT_EQ(s.chunk_high_water(), 2u);
  EXPECT_EQ(s.access_high_water(), 40u);
  s.close();
}

TEST(TraceStream, SharedPtrPushBorrowsWithoutCopy) {
  // The materialized adapter aliases caller-owned kernels; the chunk the
  // consumer sees must be the same object, not a copy.
  const KernelTrace owned = *named_kernel("borrowed", 5);
  TraceStream s(0);
  ASSERT_TRUE(s.push(std::shared_ptr<const KernelTrace>(std::shared_ptr<const void>(), &owned)));
  s.close();
  EXPECT_EQ(s.pop().get(), &owned);
}

}  // namespace
}  // namespace slc
