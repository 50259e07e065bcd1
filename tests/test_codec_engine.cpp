// CodecEngine: parallel-for coverage, the completion contract (every job
// finishes exactly once and runs its on_done on that transition), and the
// determinism guarantee — a 1-thread and an N-thread run produce identical
// per-block results, payloads and merged stats/ratios.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "test_util.h"
#include "compress/codec_registry.h"
#include "engine/codec_engine.h"
#include "workloads/approx_memory.h"

namespace slc {
namespace {

using test::engine_analyze;
using test::engine_compress;
using test::quantized_walk;
using test::test_options;

TEST(CodecEngine, ParallelForCoversEveryIndexExactlyOnce) {
  CodecEngine engine(4);
  EXPECT_EQ(engine.num_threads(), 4u);
  for (const size_t count : {0u, 1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(count);
    engine.submit(count, [&](size_t begin, size_t end, unsigned worker) {
      EXPECT_LT(worker, engine.num_threads());
      EXPECT_LE(begin, end);
      EXPECT_LE(end, count);
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    }).wait();
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// The shard rule, read back from the ranges the body sees: a job under
// kMinShard items is one shard; otherwise every shard but the last has at
// least kMinShard items and a multiple of 16, all but the last are the same
// size, and none exceeds kMaxShard.
TEST(CodecEngine, ShardSizesRespectFloorTileAndCap) {
  static_assert(CodecEngine::kMinShard == 64 && CodecEngine::kMaxShard == 4096);
  for (const unsigned threads : {1u, 2u, 4u}) {
    CodecEngine engine(threads);
    for (const size_t count :
         {size_t{1}, size_t{17}, size_t{63}, size_t{64}, size_t{65}, size_t{100}, size_t{256},
          size_t{1000}, size_t{4097}, size_t{100000}, size_t{300000}}) {
      std::mutex m;
      std::vector<std::pair<size_t, size_t>> ranges;
      engine.submit(count, [&](size_t begin, size_t end, unsigned) {
        std::lock_guard<std::mutex> lk(m);
        ranges.emplace_back(begin, end);
      }).wait();
      std::sort(ranges.begin(), ranges.end());
      ASSERT_FALSE(ranges.empty());
      const std::string at = "count " + std::to_string(count) + " threads " +
                             std::to_string(threads);
      EXPECT_EQ(ranges.front().first, 0u) << at;
      EXPECT_EQ(ranges.back().second, count) << at;
      if (count < CodecEngine::kMinShard) {
        EXPECT_EQ(ranges.size(), 1u) << at;
        continue;
      }
      const size_t shard = ranges.front().second - ranges.front().first;
      for (size_t i = 0; i < ranges.size(); ++i) {
        const size_t size = ranges[i].second - ranges[i].first;
        if (i > 0) {
          EXPECT_EQ(ranges[i].first, ranges[i - 1].second) << at;
        }
        EXPECT_LE(size, CodecEngine::kMaxShard) << at;
        if (i + 1 == ranges.size()) continue;
        EXPECT_EQ(size, shard) << at;
        EXPECT_GE(size, CodecEngine::kMinShard) << at;
        EXPECT_EQ(size % 16, 0u) << at;
      }
    }
  }
}

TEST(CodecEngine, ParallelForRethrowsBodyExceptions) {
  CodecEngine engine(2);
  EXPECT_THROW(engine
                   .submit(100,
                           [&](size_t begin, size_t, unsigned) {
                             if (begin == 0) throw std::runtime_error("boom");
                           })
                   .wait(),
               std::runtime_error);
  // The pool must stay usable afterwards.
  std::atomic<size_t> total{0};
  engine.submit(10, [&](size_t begin, size_t end, unsigned) { total += end - begin; }).wait();
  EXPECT_EQ(total.load(), 10u);
}

// The tier-1 determinism property: identical per-block decisions, payload
// bytes and merged stats for 1 worker vs N workers.
TEST(CodecEngine, ThreadCountInvariantResults) {
  const auto training = quantized_walk(31, 256);
  const auto blocks = to_blocks(quantized_walk(32, 300));

  for (const char* scheme : {"E2MC", "TSLC-OPT"}) {
    const auto comp = CodecRegistry::instance().create(scheme, test_options(training));
    CodecEngine one(1);
    CodecEngine four(4);

    const auto a1 = engine_analyze(one, *comp, blocks, 32);
    const auto a4 = engine_analyze(four, *comp, blocks, 32);
    ASSERT_EQ(a1.blocks.size(), a4.blocks.size());
    for (size_t i = 0; i < a1.blocks.size(); ++i) {
      EXPECT_EQ(a1.blocks[i].bit_size, a4.blocks[i].bit_size) << scheme << " block " << i;
      EXPECT_EQ(a1.blocks[i].lossy, a4.blocks[i].lossy) << scheme << " block " << i;
    }
    EXPECT_EQ(a1.ratios.blocks(), a4.ratios.blocks());
    EXPECT_EQ(a1.ratios.raw_ratio(), a4.ratios.raw_ratio()) << scheme;
    EXPECT_EQ(a1.ratios.effective_ratio(), a4.ratios.effective_ratio()) << scheme;
    EXPECT_EQ(a1.lossy_blocks, a4.lossy_blocks) << scheme;
    EXPECT_EQ(a1.truncated_symbols, a4.truncated_symbols) << scheme;

    const auto c1 = engine_compress(one, *comp, blocks);
    const auto c4 = engine_compress(four, *comp, blocks);
    ASSERT_EQ(c1.size(), c4.size());
    for (size_t i = 0; i < c1.size(); ++i) {
      EXPECT_EQ(c1[i].bit_size, c4[i].bit_size) << scheme << " block " << i;
      EXPECT_EQ(c1[i].payload, c4[i].payload) << scheme << " block " << i;
    }
  }
}

// --- async submission API ---------------------------------------------------

TEST(CodecEngine, FutureBasics) {
  CodecFuture empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.wait(), std::logic_error);

  CodecEngine engine(2);
  // count == 0 finishes inside submit(): on_done runs on this thread before
  // submit returns, and wait returns without touching the pool.
  const auto submitter = std::this_thread::get_id();
  int done_calls = 0;
  auto zero = engine.submit(
      0, [](size_t, size_t, unsigned) { FAIL() << "must not run"; }, 0, CodecEngine::kNoDeadline,
      [&](std::exception_ptr err) {
        EXPECT_EQ(err, nullptr);
        EXPECT_EQ(std::this_thread::get_id(), submitter);
        ++done_calls;
      });
  EXPECT_EQ(done_calls, 1);
  EXPECT_TRUE(zero.valid());
  zero.wait();
  EXPECT_FALSE(zero.valid());  // one-shot

  std::atomic<size_t> total{0};
  auto fut = engine.submit(100, [&](size_t begin, size_t end, unsigned) { total += end - begin; });
  fut.wait();
  EXPECT_EQ(total.load(), 100u);
}

// Multiple jobs in flight on one pool: each job's result must be identical
// to a solo sequential analyze/compress of the same stream.
TEST(CodecEngine, ConcurrentSubmitsMatchSequentialAnalyze) {
  const auto training = quantized_walk(31, 256);
  const auto comp = CodecRegistry::instance().create("E2MC", test_options(training));
  std::vector<std::vector<Block>> streams;
  for (uint64_t s = 0; s < 4; ++s) streams.push_back(to_blocks(quantized_walk(40 + s, 150)));

  // Every job is in flight before the first wait: one analyze and one
  // compress job per stream, each writing its own index-aligned slots.
  CodecEngine engine(4);
  std::vector<std::vector<BlockAnalysis>> analysis_slots;
  std::vector<std::vector<CompressedBlock>> payloads;
  for (const auto& stream : streams) {
    analysis_slots.emplace_back(stream.size());
    payloads.emplace_back(stream.size());
  }
  std::vector<CodecFuture> jobs;
  for (size_t s = 0; s < streams.size(); ++s) {
    jobs.push_back(test::submit_sweep(engine, streams[s], analysis_slots[s].data(),
                                      [&comp](std::span<const BlockView> views,
                                              BlockAnalysis* dst) {
                                        comp->analyze_batch(views, dst);
                                      }));
    jobs.push_back(test::submit_sweep(engine, streams[s], payloads[s].data(),
                                      [&comp](std::span<const BlockView> views,
                                              CompressedBlock* dst) {
                                        comp->compress_batch(views, dst);
                                      }));
  }
  for (CodecFuture& job : jobs) job.wait();

  CodecEngine reference(1);
  for (size_t s = 0; s < streams.size(); ++s) {
    const auto got = test::fold_analyses(std::move(analysis_slots[s]), 32);
    const auto want = engine_analyze(reference, *comp, streams[s], 32);
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (size_t i = 0; i < got.blocks.size(); ++i)
      EXPECT_EQ(got.blocks[i].bit_size, want.blocks[i].bit_size) << "stream " << s << " block " << i;
    EXPECT_EQ(got.ratios.raw_ratio(), want.ratios.raw_ratio()) << "stream " << s;
    EXPECT_EQ(got.ratios.effective_ratio(), want.ratios.effective_ratio()) << "stream " << s;
    EXPECT_EQ(got.lossy_blocks, want.lossy_blocks);
    EXPECT_EQ(got.truncated_symbols, want.truncated_symbols);

    const auto& got_payloads = payloads[s];
    const auto want_payloads = engine_compress(reference, *comp, streams[s]);
    ASSERT_EQ(got_payloads.size(), want_payloads.size());
    for (size_t i = 0; i < got_payloads.size(); ++i)
      EXPECT_EQ(got_payloads[i].payload, want_payloads[i].payload) << "stream " << s;
  }
}

// An exception is confined to its job: concurrent jobs complete normally,
// the failed future rethrows, and the pool stays usable. 512 items on two
// workers are 8 shards of 64 per job, so the failed job has shards to cancel.
TEST(CodecEngine, ExceptionInOneJobDoesNotPoisonOthers) {
  CodecEngine engine(2);
  std::atomic<size_t> good_total{0};
  auto bad = engine.submit(512, [&](size_t begin, size_t, unsigned) {
    if (begin == 0) throw std::runtime_error("boom");
  });
  auto good =
      engine.submit(512, [&](size_t begin, size_t end, unsigned) { good_total += end - begin; });

  good.wait();
  EXPECT_EQ(good_total.load(), 512u);
  EXPECT_THROW(bad.wait(), std::runtime_error);

  // The pool must stay usable afterwards.
  std::atomic<size_t> total{0};
  engine.submit(10, [&](size_t begin, size_t end, unsigned) { total += end - begin; }).wait();
  EXPECT_EQ(total.load(), 10u);
}

// ApproxMemory::commit shards through the engine; stats and mutated contents
// must not depend on the worker count.
TEST(CodecEngine, CommitInvariantAcrossEngines) {
  const auto training = quantized_walk(31, 256);
  CodecOptions opts = test_options(training);
  const auto codec = CodecRegistry::instance().create_block_codec("TSLC-OPT", opts);

  auto run_commit = [&](std::shared_ptr<CodecEngine> engine) {
    ApproxMemory mem;
    mem.set_engine(std::move(engine));
    mem.set_codec(codec);
    const RegionId r = mem.alloc("x", 300 * kBlockBytes, /*safe=*/true, 16);
    auto dst = mem.span<uint8_t>(r);
    const auto src = quantized_walk(35, 300);
    std::copy(src.begin(), src.end(), dst.begin());
    mem.commit(r);
    return std::make_pair(mem.stats(), std::vector<uint8_t>(dst.begin(), dst.end()));
  };

  const auto [stats_seq, data_seq] = run_commit(nullptr);  // inline path
  const auto [stats_one, data_one] = run_commit(std::make_shared<CodecEngine>(1));
  const auto [stats_four, data_four] = run_commit(std::make_shared<CodecEngine>(4));

  EXPECT_EQ(data_seq, data_one);
  EXPECT_EQ(data_seq, data_four);
  for (const auto* s : {&stats_one, &stats_four}) {
    EXPECT_EQ(stats_seq.blocks, s->blocks);
    EXPECT_EQ(stats_seq.lossy_blocks, s->lossy_blocks);
    EXPECT_EQ(stats_seq.bursts, s->bursts);
    EXPECT_EQ(stats_seq.final_bits, s->final_bits);
    EXPECT_EQ(stats_seq.truncated_symbols, s->truncated_symbols);
  }
}

// --- completion contract -----------------------------------------------------

/// Records every on_done call: how many, and the last `err`.
struct DoneProbe {
  std::mutex m;
  int calls = 0;
  std::exception_ptr err;

  CodecEngine::OnDone callback() {
    return [this](std::exception_ptr e) {
      std::lock_guard<std::mutex> lk(m);
      ++calls;
      err = std::move(e);
    };
  }
};

// on_done runs after the waiters wake, on the worker that finished the last
// shard; shutdown() joins that worker, so after it the call count is final.
TEST(CodecEngine, OnDoneRunsOnceForDrainedJob) {
  CodecEngine engine(4);
  DoneProbe probe;
  std::atomic<size_t> items{0};
  auto fut = engine.submit(
      1000, [&](size_t begin, size_t end, unsigned) { items += end - begin; }, 0,
      CodecEngine::kNoDeadline, probe.callback());
  fut.wait();
  engine.shutdown();
  EXPECT_EQ(items.load(), 1000u);
  EXPECT_EQ(probe.calls, 1);
  EXPECT_EQ(probe.err, nullptr);
}

TEST(CodecEngine, OnDoneGetsFirstShardException) {
  CodecEngine engine(4);
  DoneProbe probe;
  auto fut = engine.submit(
      1000,
      [](size_t begin, size_t, unsigned) {
        if (begin == 0) throw std::runtime_error("boom");
      },
      0, CodecEngine::kNoDeadline, probe.callback());
  EXPECT_THROW(fut.wait(), std::runtime_error);
  engine.shutdown();
  ASSERT_EQ(probe.calls, 1);
  ASSERT_NE(probe.err, nullptr);
  try {
    std::rethrow_exception(probe.err);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

// A job still queued at shutdown() is finished with the shutdown reason,
// and its on_done runs once, on the thread in shutdown().
TEST(CodecEngine, OnDoneRunsOnceForJobAbandonedAtShutdown) {
  CodecEngine engine(1);
  std::atomic<bool> started{false}, release{false};
  auto gate = engine.submit(1, [&](size_t, size_t, unsigned) {
    started = true;
    while (!release) std::this_thread::yield();
  });
  while (!started) std::this_thread::yield();
  DoneProbe probe;
  std::thread::id done_thread;
  auto queued = engine.submit(
      4, [](size_t, size_t, unsigned) { ADD_FAILURE() << "an abandoned job must not run"; }, 0,
      CodecEngine::kNoDeadline, [&, record = probe.callback()](std::exception_ptr e) {
        done_thread = std::this_thread::get_id();
        record(std::move(e));
      });

  std::thread::id stopper_id;
  std::thread stopper([&] {
    stopper_id = std::this_thread::get_id();
    engine.shutdown();
  });
  while (!engine.stopping()) std::this_thread::yield();
  release = true;
  stopper.join();

  gate.wait();
  EXPECT_THROW(queued.wait(), std::runtime_error);
  EXPECT_EQ(probe.calls, 1);
  EXPECT_NE(probe.err, nullptr);
  EXPECT_EQ(done_thread, stopper_id);
}

TEST(CodecEngine, SubmitAfterShutdownThrowsAndNeverRunsOnDone) {
  CodecEngine engine(2);
  engine.shutdown();
  DoneProbe probe;
  bool ran = false;
  EXPECT_THROW(engine.submit(
                   8, [&](size_t, size_t, unsigned) { ran = true; }, 0, CodecEngine::kNoDeadline,
                   probe.callback()),
               std::runtime_error);
  EXPECT_THROW(engine.submit(0, [](size_t, size_t, unsigned) {}, 0, CodecEngine::kNoDeadline,
                             probe.callback()),
               std::runtime_error);
  EXPECT_FALSE(ran);
  EXPECT_EQ(probe.calls, 0);
}

// on_done holds no engine lock and not the job's mutex: while it blocks on a
// caller mutex, the thread holding that mutex can still wait the job, submit
// and wait another job (served by the second worker), then let it go.
TEST(CodecEngine, OnDoneTakingCallerMutexDoesNotBlockSubmitter) {
  CodecEngine engine(2);
  std::mutex caller_m;
  std::atomic<bool> entered{false};
  int done_calls = 0;
  CodecFuture first;
  {
    std::unique_lock<std::mutex> held(caller_m);
    first = engine.submit(1, [](size_t, size_t, unsigned) {}, 0, CodecEngine::kNoDeadline,
                          [&](std::exception_ptr) {
                            entered = true;
                            std::lock_guard<std::mutex> lk(caller_m);
                            ++done_calls;
                          });
    while (!entered) std::this_thread::yield();
    first.wait();  // the waiters were woken before on_done ran
    std::atomic<size_t> items{0};
    engine.submit(64, [&](size_t begin, size_t end, unsigned) { items += end - begin; }).wait();
    EXPECT_EQ(items.load(), 64u);
  }
  engine.shutdown();
  EXPECT_EQ(done_calls, 1);
}

// --- shutdown + priority ----------------------------------------------------

// A job still queued when the engine shuts down must be marked finished with
// a stored exception: a future that outlives the engine throws from wait()
// instead of deadlocking.
TEST(CodecEngine, ShutdownAbandonsQueuedJobsAndFutureOutlivesEngine) {
  auto engine = std::make_unique<CodecEngine>(1);
  std::atomic<bool> started{false}, release{false};

  // The gate job occupies the only worker, so everything submitted behind it
  // stays on the queue for as long as we hold the gate closed.
  auto gate = engine->submit(1, [&](size_t, size_t, unsigned) {
    started = true;
    while (!release) std::this_thread::yield();
  });
  auto orphan = engine->submit(1, [](size_t, size_t, unsigned) {});
  while (!started) std::this_thread::yield();

  std::thread stopper([&] { engine->shutdown(); });
  // Once the stop is visible, a fresh submit throws and enqueues nothing.
  while (!engine->stopping()) std::this_thread::yield();
  EXPECT_THROW(engine->submit(1, [](size_t, size_t, unsigned) {}), std::runtime_error);
  release = true;
  stopper.join();

  gate.wait();  // fully claimed before the stop: drains normally
  engine.reset();
  // The future outlives the engine; its job was abandoned, so wait() throws.
  EXPECT_THROW(orphan.wait(), std::runtime_error);
}

// With one worker held by a gate job, the claim loop must pick the
// higher-priority job first once the gate opens, FIFO among equals.
TEST(CodecEngine, PriorityClaimsBeforeFifo) {
  CodecEngine engine(1);
  std::atomic<bool> started{false}, release{false};
  auto gate = engine.submit(1, [&](size_t, size_t, unsigned) {
    started = true;
    while (!release) std::this_thread::yield();
  });
  while (!started) std::this_thread::yield();

  std::mutex order_m;
  std::vector<int> order;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lk(order_m);
    order.push_back(tag);
  };
  auto bulk_a = engine.submit(1, [&](size_t, size_t, unsigned) { record(0); },
                              CodecEngine::kPriorityBulk);
  auto bulk_b = engine.submit(1, [&](size_t, size_t, unsigned) { record(1); },
                              CodecEngine::kPriorityBulk);
  auto urgent = engine.submit(1, [&](size_t, size_t, unsigned) { record(2); },
                              CodecEngine::kPriorityLatency);

  release = true;
  gate.wait();
  bulk_a.wait();
  bulk_b.wait();
  urgent.wait();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2) << "the latency job must be claimed first";
  EXPECT_EQ(order[1], 0) << "equal priorities drain FIFO";
  EXPECT_EQ(order[2], 1);
}

// EDF within a priority band: two deadline-priority batches submitted
// later-deadline-first must still dispatch in deadline order once the gate
// opens, and a dated job beats an undated one of the same priority.
TEST(CodecEngine, EarliestDeadlineClaimsFirstWithinBand) {
  CodecEngine engine(1);
  std::atomic<bool> started{false}, release{false};
  auto gate = engine.submit(1, [&](size_t, size_t, unsigned) {
    started = true;
    while (!release) std::this_thread::yield();
  });
  while (!started) std::this_thread::yield();

  std::mutex order_m;
  std::vector<int> order;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lk(order_m);
    order.push_back(tag);
  };
  const auto now = std::chrono::steady_clock::now();
  // Submission order: undated, late, early — claim order must invert to
  // early, late, undated.
  auto undated = engine.submit(1, [&](size_t, size_t, unsigned) { record(0); },
                               CodecEngine::kPriorityDeadline);
  auto late = engine.submit(1, [&](size_t, size_t, unsigned) { record(1); },
                            CodecEngine::kPriorityDeadline, now + std::chrono::seconds(60));
  auto early = engine.submit(1, [&](size_t, size_t, unsigned) { record(2); },
                             CodecEngine::kPriorityDeadline, now + std::chrono::seconds(1));
  // Band still outranks deadline: a bulk job with the earliest date loses to
  // every deadline-band job above.
  auto bulk = engine.submit(1, [&](size_t, size_t, unsigned) { record(3); },
                            CodecEngine::kPriorityBulk, now - std::chrono::seconds(1));

  release = true;
  gate.wait();
  undated.wait();
  late.wait();
  early.wait();
  bulk.wait();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 2) << "earliest deadline in the band claims first";
  EXPECT_EQ(order[1], 1) << "later deadline second";
  EXPECT_EQ(order[2], 0) << "undated (kNoDeadline) drains last in its band";
  EXPECT_EQ(order[3], 3) << "priority still dominates the deadline tiebreak";
}

// A multi-shard deadline batch drains completely before a same-band batch
// with a later deadline starts: shard claims follow the job-level EDF order.
// 512 items on one worker are 8 shards of 64 per batch.
TEST(CodecEngine, DeadlineBatchesDispatchInDeadlineOrder) {
  CodecEngine engine(1);
  std::atomic<bool> started{false}, release{false};
  auto gate = engine.submit(1, [&](size_t, size_t, unsigned) {
    started = true;
    while (!release) std::this_thread::yield();
  });
  while (!started) std::this_thread::yield();

  std::mutex order_m;
  std::vector<int> order;
  const auto now = std::chrono::steady_clock::now();
  auto batch = [&](int tag, std::chrono::seconds deadline) {
    return engine.submit(
        512,
        [&order, &order_m, tag](size_t, size_t, unsigned) {
          std::lock_guard<std::mutex> lk(order_m);
          order.push_back(tag);
        },
        CodecEngine::kPriorityDeadline, now + deadline);
  };
  auto late = batch(1, std::chrono::seconds(60));
  auto early = batch(0, std::chrono::seconds(1));

  release = true;
  gate.wait();
  late.wait();
  early.wait();
  ASSERT_EQ(order.size(), 16u) << "two batches of 8 shards each";
  const auto first_late = std::find(order.begin(), order.end(), 1);
  const auto last_early = std::find(order.rbegin(), order.rend(), 0);
  ASSERT_NE(first_late, order.end());
  ASSERT_NE(last_early, order.rend());
  // Every early-deadline shard ran before the first late-deadline shard.
  EXPECT_LT(last_early.base() - order.begin(), first_late - order.begin() + 1)
      << "the earlier-deadline batch must drain before the later one starts";
}

}  // namespace
}  // namespace slc
