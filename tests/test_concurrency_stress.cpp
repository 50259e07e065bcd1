// Race-hunting stress suite for the concurrent stack, written for the TSan
// CI tier (the plain tier runs it too; the race detector gives it teeth).
// Families:
//   * engine lifetime vs outstanding futures — the stored-exception
//     contract: shutting down or destroying the engine with futures alive
//     must deliver every result or a std::runtime_error, never a hang, leak
//     or racy read;
//   * server submits racing engine shutdown — every ticket completes
//     exactly once, the engine job's on_done fails batches the pool will
//     never run, and drain()/~CodecServer return instead of waiting on a
//     counter that can no longer move;
//   * shared fingerprint-cache traffic — concurrent analyze jobs through one
//     engine-owned cache stay byte-identical to the uncached oracle;
//   * TraceStream producer/consumer traffic — a slow producer against fast
//     consumers, backpressure under a tiny budget, and mid-stream
//     destruction (cancel) must neither hang, drop, nor double-deliver a
//     chunk;
//   * the workload input memo's first use from several threads — every
//     thread decodes the same inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compress/codec_registry.h"
#include "engine/codec_engine.h"
#include "server/codec_server.h"
#include "sim/trace_stream.h"
#include "test_util.h"
#include "workloads/workload.h"
#include "workloads/workload_factories.h"

namespace slc {
namespace {

using test::engine_analyze;
using test::quantized_walk;
using test::test_options;

const std::vector<uint8_t>& training() {
  static const std::vector<uint8_t> data = quantized_walk(31, 256);
  return data;
}

StreamConfig e2mc_stream(const char* name) {
  StreamConfig cfg;
  cfg.name = name;
  cfg.codec = "E2MC";
  cfg.options = test_options(training());
  return cfg;
}

// --- engine lifetime vs futures ---------------------------------------------

// Destroying the engine with futures still outstanding: each future must
// resolve afterwards — normally (the job drained before the stop) or with
// the stored std::runtime_error (abandoned in the queue) — at 1 worker and
// at N workers. 256 items are 4 shards of 64 at either worker count, so a
// job can be stopped with some shards claimed and others not.
TEST(ConcurrencyStress, EngineDestroyedWithOutstandingFutures) {
  for (const unsigned threads : {1u, 4u}) {
    constexpr size_t kJobs = 32, kItems = 256;
    std::vector<CodecFuture> futs;
    futs.reserve(kJobs);
    std::atomic<size_t> ran{0};
    {
      CodecEngine engine(threads);
      for (size_t j = 0; j < kJobs; ++j)
        futs.push_back(engine.submit(kItems, [&ran](size_t b, size_t e, unsigned) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          ran.fetch_add(e - b);
        }));
    }  // ~CodecEngine: shuts down; jobs still queued are abandoned
    size_t ok = 0, abandoned = 0;
    for (auto& f : futs) {
      try {
        f.wait();
        ++ok;
      } catch (const std::runtime_error&) {
        ++abandoned;
      }
    }
    EXPECT_EQ(ok + abandoned, kJobs) << "threads=" << threads;
    // A job that resolved normally ran every item (abandoned jobs may have
    // run the shards claimed before the stop, hence >=, not ==).
    EXPECT_GE(ran.load(), kItems * ok) << "threads=" << threads;
  }
}

// wait() racing shutdown() from concurrent waiter threads: every waiter
// returns (result or stored exception); none deadlocks on a condvar whose
// notifier is gone. Each job is 4 shards of 64 items.
TEST(ConcurrencyStress, FutureWaitRacesEngineShutdown) {
  for (const unsigned threads : {1u, 4u}) {
    CodecEngine engine(threads);
    constexpr size_t kJobs = 48, kWaiters = 4;
    std::vector<CodecFuture> futs;
    futs.reserve(kJobs);
    for (size_t j = 0; j < kJobs; ++j)
      futs.push_back(engine.submit(256, [](size_t, size_t, unsigned) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }));
    std::atomic<size_t> ok{0}, abandoned{0};
    std::vector<std::thread> waiters;
    waiters.reserve(kWaiters);
    for (size_t w = 0; w < kWaiters; ++w)
      waiters.emplace_back([&futs, &ok, &abandoned, w] {
        for (size_t j = w; j < kJobs; j += kWaiters) {
          try {
            futs[j].wait();
            ok.fetch_add(1);
          } catch (const std::runtime_error&) {
            abandoned.fetch_add(1);
          }
        }
      });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    engine.shutdown();
    for (auto& w : waiters) w.join();
    EXPECT_EQ(ok.load() + abandoned.load(), kJobs) << "threads=" << threads;
  }
}

// --- server vs engine shutdown ----------------------------------------------

// Deterministic reproduction of the stranded-batch deadlock: a single-worker
// engine is pinned on a blocker job while the server dispatches a batch, so
// the batch is accepted at enqueue but its shards are never claimed. The
// shutdown abandons it; the job's on_done must fail the ticket and retire
// the batch — without it, ticket.wait(), drain() and ~CodecServer all hang
// here.
TEST(ConcurrencyStress, EngineShutdownFailsEnqueuedServerBatch) {
  auto engine = std::make_shared<CodecEngine>(1);
  std::atomic<bool> started{false}, release{false};
  auto blocker = engine->submit(1, [&started, &release](size_t, size_t, unsigned) {
    started = true;
    while (!release) std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  while (!started) std::this_thread::sleep_for(std::chrono::microseconds(100));

  CodecServer::Config cfg;
  cfg.engine = engine;
  cfg.batch_blocks = 1;  // dispatch at once: the batch queues behind the blocker
  CodecServer server(cfg);
  const StreamId s = server.open_stream(e2mc_stream("stuck"));
  const auto data = quantized_walk(32, 2);
  auto ticket = server.submit(s, Request{.bytes = data});

  std::thread stopper([&engine] { engine->shutdown(); });
  // Release the blocker only once the stop is visible: the worker then
  // finishes the blocker, sees stop_ and never claims the batch.
  while (!engine->stopping()) std::this_thread::yield();
  release = true;
  const Response res = ticket.wait();
  EXPECT_EQ(res.status, ResponseStatus::kError);
  EXPECT_THROW(res.throw_if_failed(), std::runtime_error);
  stopper.join();
  server.drain();  // regression: returns only because on_done retired the batch
  EXPECT_EQ(server.inflight_blocks(), 0u);
  blocker.wait();  // the blocker itself drained normally
}

// Free-running submitters racing an engine shutdown, with backpressure
// enabled so parked submitters must also be released. Every ticket resolves,
// and the server drains cleanly afterwards.
TEST(ConcurrencyStress, ServerSubmitsRaceEngineShutdown) {
  auto engine = std::make_shared<CodecEngine>(4);
  CodecServer::Config cfg;
  cfg.engine = engine;
  cfg.batch_blocks = 4;
  cfg.max_inflight_blocks = 16;
  CodecServer server(cfg);
  const StreamId s = server.open_stream(e2mc_stream("race"));

  constexpr size_t kSubmitters = 3, kIters = 40;
  std::atomic<size_t> ok{0}, failed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (size_t t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&server, &ok, &failed, s, t] {
      const auto data = quantized_walk(100 + t, 2);
      for (size_t i = 0; i < kIters; ++i) {
        const Response res = server.submit(s, Request{.bytes = data}).wait();
        if (res.ok())
          ok.fetch_add(1);
        else
          failed.fetch_add(1);  // abandoned by the engine shutdown
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  engine->shutdown();
  for (auto& th : submitters) th.join();
  EXPECT_EQ(ok.load() + failed.load(), kSubmitters * kIters);
  server.drain();  // no batch may be stranded by the shutdown
  EXPECT_EQ(server.inflight_blocks(), 0u);
}

// Fire-and-forget batches racing engine->shutdown(). The engine's only
// worker is pinned while the submitters start, so batches queue up; it is
// released a little earlier before the stop each round. Batches drain until
// the stop, the ones still queued are abandoned by shutdown(), and later
// submits are refused. Each ticket resolves exactly once: the stream counts
// every request once (a batch completed twice would count its requests twice
// and underflow the in-flight counters), and inflight_blocks() returns to 0.
TEST(ConcurrencyStress, ServerBatchesRaceEngineShutdownCompleteOnce) {
  for (int round = 0; round < 8; ++round) {
    auto engine = std::make_shared<CodecEngine>(1);
    std::atomic<bool> started{false}, release{false};
    auto blocker = engine->submit(1, [&started, &release](size_t, size_t, unsigned) {
      started = true;
      while (!release) std::this_thread::yield();
    });
    while (!started) std::this_thread::yield();

    CodecServer::Config cfg;
    cfg.engine = engine;
    cfg.batch_blocks = 2;
    cfg.max_inflight_blocks = 0;  // unbounded: submitters never wait
    CodecServer server(cfg);
    const StreamId s = server.open_stream(e2mc_stream("race"));

    constexpr size_t kSubmitters = 3, kRequests = 60;
    std::latch start(kSubmitters + 1);
    std::vector<std::vector<ServerTicket>> tickets(kSubmitters);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (size_t t = 0; t < kSubmitters; ++t)
      submitters.emplace_back([&, t] {
        const auto data = quantized_walk(200 + t, 1);
        start.arrive_and_wait();
        for (size_t i = 0; i < kRequests; ++i)
          tickets[t].push_back(server.submit(s, Request{.bytes = data}));
      });
    start.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    release = true;
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    engine->shutdown();
    for (auto& th : submitters) th.join();
    server.drain();
    blocker.wait();

    size_t ok = 0, failed = 0;
    for (auto& per_thread : tickets)
      for (ServerTicket& ticket : per_thread) {
        const Response res = ticket.wait();
        if (res.ok()) {
          ++ok;
        } else {
          EXPECT_EQ(res.status, ResponseStatus::kError);
          EXPECT_THROW(res.throw_if_failed(), std::runtime_error);
          ++failed;
        }
      }
    EXPECT_EQ(ok + failed, kSubmitters * kRequests) << "round " << round;
    EXPECT_EQ(server.stream_stats(s).requests, kSubmitters * kRequests) << "round " << round;
    EXPECT_EQ(server.inflight_blocks(), 0u) << "round " << round;
  }
}

// --- shared fingerprint cache -----------------------------------------------

// Concurrent client threads pushing overlapping analyze jobs through one
// engine and its shared fingerprint cache: every result must equal the
// single-threaded uncached oracle, no matter how probes interleave. (The
// decisions are the contract; hit/miss tallies are not.)
TEST(ConcurrencyStress, SharedCacheConcurrentAnalyzeJobs) {
  const auto blocks = test::dedup_corpus({.blocks = 96,
                                          .dup_fraction = 0.5,
                                          .flip_fraction = 0.2,
                                          .zero_fraction = 0.1,
                                          .seed = 91});
  auto engine = std::make_shared<CodecEngine>(4);
  CodecOptions cached_opts = test_options(training());
  cached_opts.fingerprint_cache = engine->fingerprint_cache();
  const auto cached = CodecRegistry::instance().create("TSLC-OPT", cached_opts);
  const auto uncached = CodecRegistry::instance().create("TSLC-OPT", test_options(training()));
  CodecEngine reference(1);
  const auto want = engine_analyze(reference, *uncached, blocks, 32);

  constexpr size_t kClients = 3, kIters = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&engine, &cached, &blocks, &want, &mismatches] {
      for (size_t i = 0; i < kIters; ++i) {
        const auto got = engine_analyze(*engine, *cached, blocks, 32);
        if (got.blocks.size() != want.blocks.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t b = 0; b < want.blocks.size(); ++b) {
          if (got.blocks[b].bit_size != want.blocks[b].bit_size ||
              got.blocks[b].lossy != want.blocks[b].lossy ||
              got.blocks[b].truncated_symbols != want.blocks[b].truncated_symbols)
            mismatches.fetch_add(1);
        }
      }
    });
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---- TraceStream producer/consumer stress ---------------------------------

std::shared_ptr<const KernelTrace> tagged_kernel(uint64_t tag) {
  auto k = std::make_shared<KernelTrace>();
  k->name = "k" + std::to_string(tag);
  k->compute_per_access = 1.0;
  TraceAccess a;
  a.addr = tag * kBlockBytes;  // tag smuggled through the address
  a.bursts = 1;
  k->accesses.push_back(a);
  return k;
}

// Slow producer, fast consumers, a one-chunk budget: every kernel is
// delivered to exactly one consumer and nobody hangs. (Strict FIFO order is
// a single-consumer property and is pinned in test_trace_stream.cpp.)
TEST(ConcurrencyStress, TraceStreamSlowProducerFastConsumers) {
  constexpr uint64_t kKernels = 200;
  TraceStream stream(1);  // tightest budget: every push waits for a pop
  std::mutex seen_m;
  std::vector<uint64_t> seen;

  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c)
    consumers.emplace_back([&] {
      while (auto chunk = stream.pop()) {
        const uint64_t tag = chunk->accesses.front().addr / kBlockBytes;
        {
          std::lock_guard<std::mutex> lk(seen_m);
          seen.push_back(tag);
        }
        std::this_thread::yield();
      }
    });

  for (uint64_t i = 1; i <= kKernels; ++i) {
    ASSERT_TRUE(stream.push(tagged_kernel(i)));
    if (i % 16 == 0) std::this_thread::yield();  // slow producer
  }
  stream.close();
  for (auto& c : consumers) c.join();
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), kKernels) << "every chunk exactly once";
  for (uint64_t i = 1; i <= kKernels; ++i) EXPECT_EQ(seen[i - 1], i);
  EXPECT_LE(stream.chunk_high_water(), 1u) << "budget must bound the queue";
}

// Mid-stream destruction: consumers cancel while the producer is blocked on
// backpressure. The producer must observe the rejection (push -> false) and
// both sides must unwind without a hang.
TEST(ConcurrencyStress, TraceStreamCancelWhileProducerBlocked) {
  for (int round = 0; round < 20; ++round) {
    auto stream = std::make_shared<TraceStream>(2);
    std::atomic<bool> rejected{false};
    std::thread producer([&] {
      for (uint64_t i = 1;; ++i) {
        if (!stream->push(tagged_kernel(i))) {
          rejected = true;
          return;
        }
      }
    });
    // Drain a few chunks so the producer is mid-flight, then tear down the
    // consumer side the way ~GpuSim-owner code would.
    for (int i = 0; i < 3; ++i) stream->pop();
    stream->cancel();
    producer.join();
    EXPECT_TRUE(rejected.load());
    EXPECT_EQ(stream->pop(), nullptr) << "cancelled stream delivers nothing";
    EXPECT_TRUE(stream->push(tagged_kernel(99)) == false)
        << "pushes after cancel are rejected, not queued";
  }
}

// Producer closes while consumers are mid-drain: all queued chunks arrive,
// then every consumer sees the null terminator.
TEST(ConcurrencyStress, TraceStreamCloseDrainsBeforeTerminating) {
  for (const unsigned consumers_n : {1u, 4u}) {
    TraceStream stream(0);  // unbounded: queue everything up front
    constexpr uint64_t kKernels = 500;
    for (uint64_t i = 1; i <= kKernels; ++i) ASSERT_TRUE(stream.push(tagged_kernel(i)));
    stream.close();

    std::atomic<uint64_t> delivered{0};
    std::vector<std::thread> consumers;
    for (unsigned c = 0; c < consumers_n; ++c)
      consumers.emplace_back([&] {
        while (stream.pop()) delivered.fetch_add(1);
      });
    for (auto& c : consumers) c.join();
    EXPECT_EQ(delivered.load(), kKernels) << consumers_n << " consumers";
    EXPECT_EQ(stream.chunk_high_water(), kKernels);
  }
}

// ---- workload input memo ----------------------------------------------------

// Four threads init fresh instances of the five memoized workloads at the
// same moment. ctest runs each test in its own process, so the memo starts
// empty and the threads race to build every entry: each starts at a
// different workload, so builds of different keys contend for the memo's one
// lock while later threads ask for a key another is building. Every thread
// must see the same region bytes.
TEST(ConcurrencyStress, WorkloadInputMemoFirstUseFromFourThreads) {
  const std::vector<std::string> names = {"DCT", "TP", "NN", "SRAD1", "SRAD2"};
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::vector<uint8_t>>> seen(
      kThreads, std::vector<std::vector<uint8_t>>(names.size()));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t k = 0; k < names.size(); ++k) {
        const size_t w = (t + k) % names.size();
        auto wl = make_workload(names[w], WorkloadScale::kTiny);
        ApproxMemory mem;
        wl->init(mem);
        for (RegionId r = 0; r < mem.num_regions(); ++r) {
          const auto bytes = mem.span<const uint8_t>(r);
          seen[t][w].insert(seen[t][w].end(), bytes.begin(), bytes.end());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t)
    for (size_t w = 0; w < names.size(); ++w)
      EXPECT_TRUE(seen[t][w] == seen[0][w]) << names[w] << " differs on thread " << t;
  EXPECT_EQ(input_memo_stats(WorkloadScale::kTiny).entries, names.size());
}

}  // namespace
}  // namespace slc
