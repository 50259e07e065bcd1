// CodecEngine: parallel-for coverage, and the determinism guarantee — a
// 1-thread and an N-thread run produce identical per-block results, payloads
// and merged stats/ratios.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "test_util.h"
#include "compress/codec_registry.h"
#include "engine/codec_engine.h"
#include "workloads/approx_memory.h"

namespace slc {
namespace {

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

    const auto a1 = one.submit_analyze(*comp, blocks, 32).wait();
    const auto a4 = four.submit_analyze(*comp, blocks, 32).wait();
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

    const auto c1 = one.submit_compress(*comp, blocks).wait();
    const auto c4 = four.submit_compress(*comp, blocks).wait();
    ASSERT_EQ(c1.size(), c4.size());
    for (size_t i = 0; i < c1.size(); ++i) {
      EXPECT_EQ(c1[i].bit_size, c4[i].bit_size) << scheme << " block " << i;
      EXPECT_EQ(c1[i].payload, c4[i].payload) << scheme << " block " << i;
    }
  }
}

TEST(CodecEngine, AnalyzeBytesMatchesAnalyzeStream) {
  const auto training = quantized_walk(31, 256);
  const auto data = quantized_walk(33, 64);
  const auto blocks = to_blocks(data);
  const auto comp = CodecRegistry::instance().create("E2MC", test_options(training));

  CodecEngine engine(2);
  const auto from_blocks = engine.submit_analyze(*comp, blocks, 32).wait();
  const auto from_bytes = engine.analyze_bytes(*comp, data, 32);
  ASSERT_EQ(from_bytes.blocks.size(), from_blocks.blocks.size());
  for (size_t i = 0; i < from_bytes.blocks.size(); ++i)
    EXPECT_EQ(from_bytes.blocks[i].bit_size, from_blocks.blocks[i].bit_size);
  EXPECT_EQ(from_bytes.ratios.raw_ratio(), from_blocks.ratios.raw_ratio());
}

// Satellite regression: analyze_bytes' zero-padded tail must be
// byte-identical to to_blocks(pad_tail = true) + submit_analyze for every
// ragged size, including empty input.
TEST(CodecEngine, AnalyzeBytesTailPaddingMatchesToBlocks) {
  const auto training = quantized_walk(31, 256);
  const auto comp = CodecRegistry::instance().create("E2MC", test_options(training));
  const auto base = quantized_walk(36, 6);

  CodecEngine engine(3);
  for (const size_t bytes :
       {size_t{0}, size_t{1}, size_t{40}, kBlockBytes - 1, kBlockBytes, kBlockBytes + 1,
        5 * kBlockBytes + 17, 6 * kBlockBytes}) {
    ASSERT_LE(bytes, base.size());
    const std::span<const uint8_t> data(base.data(), bytes);
    const auto blocks = to_blocks(data, kBlockBytes, /*pad_tail=*/true);

    const auto from_bytes = engine.analyze_bytes(*comp, data, 32);
    const auto from_blocks = engine.submit_analyze(*comp, blocks, 32).wait();

    ASSERT_EQ(from_bytes.blocks.size(), from_blocks.blocks.size()) << bytes << " bytes";
    for (size_t i = 0; i < from_bytes.blocks.size(); ++i) {
      const BlockAnalysis& a = from_bytes.blocks[i];
      const BlockAnalysis& b = from_blocks.blocks[i];
      EXPECT_EQ(a.bit_size, b.bit_size) << bytes << " bytes, block " << i;
      EXPECT_EQ(a.is_compressed, b.is_compressed) << bytes << " bytes, block " << i;
      EXPECT_EQ(a.lossy, b.lossy) << bytes << " bytes, block " << i;
      EXPECT_EQ(a.lossless_bits, b.lossless_bits) << bytes << " bytes, block " << i;
      EXPECT_EQ(a.truncated_symbols, b.truncated_symbols) << bytes << " bytes, block " << i;
    }
    EXPECT_EQ(from_bytes.ratios.blocks(), from_blocks.ratios.blocks()) << bytes;
    EXPECT_EQ(from_bytes.ratios.raw_ratio(), from_blocks.ratios.raw_ratio()) << bytes;
    EXPECT_EQ(from_bytes.ratios.effective_ratio(), from_blocks.ratios.effective_ratio()) << bytes;
    EXPECT_EQ(from_bytes.lossy_blocks, from_blocks.lossy_blocks) << bytes;
    EXPECT_EQ(from_bytes.truncated_symbols, from_blocks.truncated_symbols) << bytes;
  }
}

TEST(CodecEngine, AnalyzeBytesPadsTail) {
  const auto training = quantized_walk(31, 256);
  auto data = quantized_walk(34, 3);
  data.resize(data.size() - 40);  // ragged tail
  const auto comp = CodecRegistry::instance().create("E2MC", test_options(training));

  CodecEngine engine(2);
  const auto res = engine.analyze_bytes(*comp, data, 32);
  EXPECT_EQ(res.blocks.size(), 3u);  // tail zero-padded into a full block
  const auto blocks = to_blocks(data);
  ASSERT_EQ(blocks.size(), 3u);
  for (size_t i = 0; i < 3; ++i)
    EXPECT_EQ(res.blocks[i].bit_size, comp->analyze(blocks[i].view()).bit_size);
}

// A block size of 0 is rejected before any work starts (it used to divide by
// zero), and the engine stays usable.
TEST(CodecEngine, AnalyzeBytesRejectsZeroBlockBytes) {
  const auto comp = CodecRegistry::instance().create("BDI", test_options({}));
  const std::vector<uint8_t> data(256, 0x5A);
  CodecEngine engine(2);
  EXPECT_THROW(engine.analyze_bytes(*comp, data, 32, 0), std::invalid_argument);
  EXPECT_EQ(engine.analyze_bytes(*comp, data, 32).blocks.size(), 2u);
}

// --- async submission API ---------------------------------------------------

TEST(CodecEngine, FutureBasics) {
  CodecFuture<void> empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.ready());
  EXPECT_THROW(empty.wait(), std::logic_error);

  CodecEngine engine(2);
  // count == 0: ready immediately, wait returns without touching the pool.
  auto zero = engine.submit(0, [](size_t, size_t, unsigned) { FAIL() << "must not run"; });
  EXPECT_TRUE(zero.valid());
  EXPECT_TRUE(zero.ready());
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

  CodecEngine engine(4);
  std::vector<CodecFuture<CodecEngine::StreamAnalysis>> analyses;
  std::vector<CodecFuture<std::vector<CompressedBlock>>> payloads;
  for (const auto& stream : streams) {
    analyses.push_back(engine.submit_analyze(*comp, stream, 32));
    payloads.push_back(engine.submit_compress(*comp, stream));
  }

  CodecEngine reference(1);
  for (size_t s = 0; s < streams.size(); ++s) {
    const auto got = analyses[s].wait();
    const auto want = reference.submit_analyze(*comp, streams[s], 32).wait();
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (size_t i = 0; i < got.blocks.size(); ++i)
      EXPECT_EQ(got.blocks[i].bit_size, want.blocks[i].bit_size) << "stream " << s << " block " << i;
    EXPECT_EQ(got.ratios.raw_ratio(), want.ratios.raw_ratio()) << "stream " << s;
    EXPECT_EQ(got.ratios.effective_ratio(), want.ratios.effective_ratio()) << "stream " << s;
    EXPECT_EQ(got.lossy_blocks, want.lossy_blocks);
    EXPECT_EQ(got.truncated_symbols, want.truncated_symbols);

    const auto got_payloads = payloads[s].wait();
    const auto want_payloads = reference.submit_compress(*comp, streams[s]).wait();
    ASSERT_EQ(got_payloads.size(), want_payloads.size());
    for (size_t i = 0; i < got_payloads.size(); ++i)
      EXPECT_EQ(got_payloads[i].payload, want_payloads[i].payload) << "stream " << s;
  }
}

// An exception is confined to its job: concurrent jobs complete normally,
// the failed future rethrows, and the pool stays usable.
TEST(CodecEngine, ExceptionInOneJobDoesNotPoisonOthers) {
  CodecEngine engine(2);
  std::atomic<size_t> good_total{0};
  auto bad = engine.submit(64, [&](size_t begin, size_t, unsigned) {
    if (begin == 0) throw std::runtime_error("boom");
  });
  auto good =
      engine.submit(64, [&](size_t begin, size_t end, unsigned) { good_total += end - begin; });

  good.wait();
  EXPECT_EQ(good_total.load(), 64u);
  EXPECT_THROW(bad.wait(), std::runtime_error);

  // The pool must stay usable afterwards.
  std::atomic<size_t> total{0};
  engine.submit(10, [&](size_t begin, size_t end, unsigned) { total += end - begin; }).wait();
  EXPECT_EQ(total.load(), 10u);
}

// submit_job's finalize runs once, on the waiting thread, after the drain —
// the merge point the determinism contract hangs on.
TEST(CodecEngine, SubmitJobFinalizeMergesPerWorkerState) {
  CodecEngine engine(4);
  auto per_worker = std::make_shared<std::vector<uint64_t>>(engine.num_threads(), 0);
  auto fut = engine.submit_job<uint64_t>(
      1000,
      [per_worker](size_t begin, size_t end, unsigned worker) {
        for (size_t i = begin; i < end; ++i) (*per_worker)[worker] += i;
      },
      [per_worker]() {
        uint64_t total = 0;
        for (const uint64_t w : *per_worker) total += w;
        return total;
      });
  EXPECT_EQ(fut.wait(), 1000u * 999u / 2);
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
  // Wait until the stop is visible: once it is, a fresh submit is abandoned
  // at enqueue (ready immediately, wait() throws). Probes queued before the
  // stop are abandoned by shutdown; dropping their futures is fine.
  for (;;) {
    auto probe = engine->submit(1, [](size_t, size_t, unsigned) {});
    if (probe.ready()) {
      EXPECT_THROW(probe.wait(), std::runtime_error);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release = true;
  stopper.join();

  gate.wait();  // fully claimed before the stop: drains normally
  engine.reset();
  // The future outlives the engine; its job was abandoned, so wait() throws.
  EXPECT_TRUE(orphan.ready());
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
        64,
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
  ASSERT_FALSE(order.empty());
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
