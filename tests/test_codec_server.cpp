// CodecServer: stream lifecycle, the typed Request/Response contract
// (analyze / decide / compress kinds), request coalescing, the deadline
// flush timer, admission control (backpressure vs rejection), priority
// coexistence, per-request error delivery, and the determinism guarantee —
// per-stream results are byte-identical for 1 and N engine threads.
//
// This file registers test-only codecs (TEST-SLOW, TEST-THROW, TEST-LONG,
// TEST-STALE), so it lives in its own test binary: the registry is
// process-global and the main suite asserts the exact production name lists.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "compress/e2mc.h"
#include "core/fingerprint_cache.h"
#include "server/codec_server.h"
#include "test_util.h"

namespace slc {
namespace {

using test::quantized_walk;
using test::test_options;

// --- test-only codecs -------------------------------------------------------

/// Stores nothing, compresses nothing, but takes a configurable while per
/// block — the knob the backpressure/admission tests need to keep work in
/// flight.
class SlowCodec : public Compressor {
 public:
  std::string name() const override { return "TEST-SLOW"; }
  Block decompress(const CompressedBlock&, size_t block_bytes) const override {
    return Block(block_bytes);
  }
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override {
    for (size_t i = 0; i < blocks.size(); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      BlockAnalysis a;
      a.bit_size = blocks[i].size() * 8;
      a.lossless_bits = a.bit_size;
      out[i] = a;
    }
  }
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override {
    for (size_t i = 0; i < blocks.size(); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      CompressedBlock cb;
      cb.bit_size = blocks[i].size() * 8;
      cb.is_compressed = false;
      out[i] = cb;
    }
  }
};

/// Every analysis throws — exercises per-request error delivery.
class ThrowingCodec : public Compressor {
 public:
  std::string name() const override { return "TEST-THROW"; }
  Block decompress(const CompressedBlock&, size_t) const override {
    throw std::runtime_error("TEST-THROW decompress");
  }
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis*) const override {
    if (!blocks.empty()) throw std::runtime_error("TEST-THROW analyze");
  }
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock*) const override {
    if (!blocks.empty()) throw std::runtime_error("TEST-THROW compress");
  }
};

/// Returns a payload one byte longer than its block — what no registry codec
/// does (the stored-raw rule caps payloads at the block), but the open
/// Compressor interface allows.
class LongPayloadCodec : public Compressor {
 public:
  std::string name() const override { return "TEST-LONG"; }
  Block decompress(const CompressedBlock&, size_t block_bytes) const override {
    return Block(block_bytes);
  }
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override {
    for (size_t i = 0; i < blocks.size(); ++i) out[i].bit_size = blocks[i].size() * 8;
  }
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override {
    for (size_t i = 0; i < blocks.size(); ++i) {
      out[i].payload.assign(blocks[i].size() + 1, 0xAB);
      out[i].bit_size = (blocks[i].size() + 1) * 8;
      out[i].is_compressed = true;
    }
  }
};

/// Writes its output slots on its first compress call and leaves them
/// untouched on every later one — a kernel whose slots could carry an
/// earlier batch's bytes if the server reused them without a reset.
class StaleSlotCodec : public Compressor {
 public:
  std::string name() const override { return "TEST-STALE"; }
  Block decompress(const CompressedBlock&, size_t block_bytes) const override {
    return Block(block_bytes);
  }
  void analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const override {
    for (size_t i = 0; i < blocks.size(); ++i) out[i].bit_size = blocks[i].size() * 8;
  }
  void compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const override {
    if (calls_.fetch_add(1) != 0) return;
    for (size_t i = 0; i < blocks.size(); ++i) {
      out[i].payload.assign(blocks[i].bytes().begin(), blocks[i].bytes().begin() + 8);
      out[i].bit_size = 64;
      out[i].is_compressed = true;
    }
  }

 private:
  mutable std::atomic<int> calls_{0};
};

/// Registry entry of a test-only codec.
template <class Codec>
CodecInfo fixture_info(const char* name) {
  CodecInfo info;
  info.name = name;
  info.scheme = "test fixture";
  info.paper = "n/a";
  info.order = 999;
  info.make = [](const CodecOptions&) -> std::shared_ptr<const Compressor> {
    return std::make_shared<Codec>();
  };
  return info;
}

const CodecRegistrar slow_registrar{fixture_info<SlowCodec>("TEST-SLOW")};
const CodecRegistrar throw_registrar{fixture_info<ThrowingCodec>("TEST-THROW")};
const CodecRegistrar long_registrar{fixture_info<LongPayloadCodec>("TEST-LONG")};
const CodecRegistrar stale_registrar{fixture_info<StaleSlotCodec>("TEST-STALE")};

StreamConfig e2mc_stream(std::string name, std::span<const uint8_t> training,
                         StreamPriority prio = StreamPriority::kNormal) {
  StreamConfig cfg;
  cfg.name = std::move(name);
  cfg.codec = "E2MC";
  cfg.options = test_options(training);
  cfg.priority = prio;
  return cfg;
}

// --- tests ------------------------------------------------------------------

TEST(CodecServer, OpenStreamValidatesAgainstRegistry) {
  CodecServer server;
  StreamConfig bad;
  bad.codec = "NO-SUCH-CODEC";
  EXPECT_THROW(server.open_stream(bad), std::out_of_range);

  StreamConfig untrained;
  untrained.codec = "E2MC";  // needs training data the options lack
  EXPECT_THROW(server.open_stream(untrained), std::invalid_argument);

  EXPECT_THROW(server.stream_name(0), std::out_of_range) << "a failed open adds no stream";
  const auto training = quantized_walk(31, 256);
  const StreamId s = server.open_stream(e2mc_stream("ok", training));
  EXPECT_EQ(server.stream_name(s), "ok");
}

// A request's analysis must match the scheme's analyze kernel run directly
// over to_blocks of the same data, ragged tail included.
TEST(CodecServer, RequestMatchesEngineAnalyzeBytes) {
  const auto training = quantized_walk(31, 256);
  auto data = quantized_walk(42, 5);
  data.resize(data.size() - 77);  // ragged tail

  CodecServer server;
  const StreamId s = server.open_stream(e2mc_stream("req", training));
  auto ticket = server.submit(s, Request{.bytes = data});
  const Response got = ticket.wait();  // forces dispatch of the partial batch
  ASSERT_TRUE(got.ok());

  const auto comp = CodecRegistry::instance().create("E2MC", test_options(training));
  const auto want = test::direct_analyze(*comp, to_blocks(data), 32);

  ASSERT_EQ(got.analysis.blocks.size(), want.blocks.size());
  for (size_t i = 0; i < got.analysis.blocks.size(); ++i)
    EXPECT_EQ(got.analysis.blocks[i].bit_size, want.blocks[i].bit_size) << "block " << i;
  EXPECT_EQ(got.analysis.ratios.raw_ratio(), want.ratios.raw_ratio());
  EXPECT_EQ(got.analysis.ratios.effective_ratio(), want.ratios.effective_ratio());
  EXPECT_EQ(got.analysis.lossy_blocks, want.lossy_blocks);
  EXPECT_EQ(got.analysis.truncated_symbols, want.truncated_symbols);
}

TEST(CodecServer, CoalescesSmallRequestsIntoBatches) {
  const auto training = quantized_walk(31, 256);
  CodecServer::Config cfg;
  cfg.batch_blocks = 8;
  // Batch-count assertions need deterministic boundaries: no timer flush.
  cfg.max_coalesce_delay = std::chrono::microseconds(0);
  CodecServer server(cfg);
  const StreamId s = server.open_stream(e2mc_stream("coalesce", training));

  std::vector<ServerTicket> tickets;
  const auto data = quantized_walk(43, 2);  // 2 blocks per request
  for (int i = 0; i < 6; ++i) tickets.push_back(server.submit(s, Request{.bytes = data}));
  server.drain();

  const StreamStats st = server.stream_stats(s);
  EXPECT_EQ(st.requests, 6u);
  EXPECT_EQ(st.commit.blocks, 12u);
  // 12 blocks at threshold 8: one batch at the fourth submit, one on drain.
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.latency.count(), 6u);

  for (auto& t : tickets) {
    const Response res = t.wait();
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.analysis.blocks.size(), 2u);
  }
}

TEST(CodecServer, EmptyRequestCompletesImmediately) {
  const auto training = quantized_walk(31, 256);
  CodecServer server;
  const StreamId s = server.open_stream(e2mc_stream("empty", training));
  auto ticket = server.submit(s, Request{});
  EXPECT_TRUE(ticket.ready());
  const Response res = ticket.wait();
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.analysis.blocks.empty());
  EXPECT_EQ(server.stream_stats(s).requests, 1u);
  EXPECT_THROW(ticket.wait(), std::logic_error);  // one-shot
}

TEST(CodecServer, BackpressureBoundsInflightBlocks) {
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(2);
  cfg.batch_blocks = 16;
  cfg.max_inflight_blocks = 64;
  CodecServer server(cfg);

  StreamConfig sc;
  sc.name = "slow";
  sc.codec = "TEST-SLOW";
  const StreamId s = server.open_stream(sc);

  const auto data = quantized_walk(44, 16);  // one full batch per request
  for (int i = 0; i < 20; ++i) {
    server.submit(s, Request{.bytes = data});  // fire-and-forget: budget must still retire
    EXPECT_LE(server.inflight_blocks(), cfg.max_inflight_blocks);
  }
  server.drain();
  EXPECT_EQ(server.inflight_blocks(), 0u);
  const StreamStats st = server.stream_stats(s);
  EXPECT_EQ(st.requests, 20u);
  EXPECT_EQ(st.commit.blocks, 20u * 16u);
  EXPECT_EQ(st.rejected, 0u) << "kBlock streams never shed";
}

// An oversized request (bigger than the whole budget) is admitted once the
// queue is empty instead of deadlocking.
TEST(CodecServer, OversizedRequestDoesNotDeadlock) {
  CodecServer::Config cfg;
  cfg.batch_blocks = 8;
  cfg.max_inflight_blocks = 4;
  CodecServer server(cfg);
  const auto training = quantized_walk(31, 256);
  const StreamId s = server.open_stream(e2mc_stream("big", training));
  const auto data = quantized_walk(45, 32);
  auto ticket = server.submit(s, Request{.bytes = data});  // 32 > budget 4
  const Response res = ticket.wait();
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.analysis.blocks.size(), 32u);
}

// Regression: over-budget requests below the coalescing threshold must not
// pile into one batch that blows the budget several-fold — each is admitted
// alone (server empty) and dispatched immediately.
TEST(CodecServer, OversizedRequestsSerializeThroughBudget) {
  CodecServer::Config cfg;
  cfg.batch_blocks = 256;  // none of the requests reaches this on its own
  cfg.max_inflight_blocks = 64;
  CodecServer server(cfg);
  const auto training = quantized_walk(31, 256);
  const StreamId s = server.open_stream(e2mc_stream("oversized", training));

  std::vector<ServerTicket> tickets;
  for (uint64_t i = 0; i < 3; ++i) {
    const auto data = quantized_walk(60 + i, 100);
    tickets.push_back(server.submit(s, Request{.bytes = data}));  // 100 > budget 64
    EXPECT_LE(server.inflight_blocks(), 100u) << "only one oversized batch may be in flight";
  }
  for (auto& t : tickets) EXPECT_EQ(t.wait().analysis.blocks.size(), 100u);
  server.drain();
  EXPECT_EQ(server.stream_stats(s).batches, 3u) << "one batch per oversized request";
}

// Regression: a stream's never-dispatched pending blocks must not wedge
// another stream's admission — submit pushes stalled batches out before
// waiting, so backpressure always waits on engine progress.
TEST(CodecServer, CrossStreamBackpressureMakesProgress) {
  CodecServer::Config cfg;
  cfg.batch_blocks = 256;
  cfg.max_inflight_blocks = 64;
  CodecServer server(cfg);
  const auto training = quantized_walk(31, 256);
  const StreamId a = server.open_stream(e2mc_stream("a", training));
  const StreamId b = server.open_stream(e2mc_stream("b", training));

  const auto data_a = quantized_walk(70, 60);
  const auto data_b = quantized_walk(71, 10);
  server.submit(a, Request{.bytes = data_a});  // queued, under both thresholds
  auto ticket = server.submit(b, Request{.bytes = data_b});  // 60 + 10 > 64
  EXPECT_EQ(ticket.wait().analysis.blocks.size(), 10u);
  server.drain();
  EXPECT_EQ(server.stream_stats(a).commit.blocks, 60u);
  EXPECT_EQ(server.stream_stats(b).commit.blocks, 10u);
}

// Regression: a waiter that loses the admission race to a submit whose
// blocks stay parked (below batch threshold, within budget) must re-flush
// pending batches on wakeup — with a one-shot flush it sleeps forever with
// nothing in flight to notify it. The slow codec widens the race window;
// pre-fix this hangs under the losing-waiter interleaving (ctest timeout).
// The flush timer is disabled so only the re-flush path can save the test.
TEST(CodecServer, ConcurrentWaitersReflushPendingBatches) {
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(2);
  cfg.batch_blocks = 256;
  cfg.max_inflight_blocks = 64;
  cfg.max_coalesce_delay = std::chrono::microseconds(0);
  CodecServer server(cfg);
  StreamConfig sc;
  sc.name = "slow";
  sc.codec = "TEST-SLOW";
  const StreamId s = server.open_stream(sc);

  const auto d0 = quantized_walk(80, 64);
  const auto d1 = quantized_walk(81, 10);
  const auto d2 = quantized_walk(82, 60);
  server.submit(s, Request{.bytes = d0});  // parked pending, fills the budget
  std::thread t1([&] { server.submit(s, Request{.bytes = d1}); });
  std::thread t2([&] { server.submit(s, Request{.bytes = d2}); });
  t1.join();
  t2.join();
  server.drain();
  EXPECT_EQ(server.stream_stats(s).commit.blocks, 64u + 10u + 60u);
}

TEST(CodecServer, CodecErrorDeliveredPerRequestAndConfined) {
  const auto training = quantized_walk(31, 256);
  CodecServer server;
  StreamConfig bad;
  bad.name = "bad";
  bad.codec = "TEST-THROW";
  const StreamId sb = server.open_stream(bad);
  const StreamId sg = server.open_stream(e2mc_stream("good", training));

  const auto bad_data = quantized_walk(46, 4);
  const auto good_data = quantized_walk(47, 4);
  auto bad_ticket = server.submit(sb, Request{.bytes = bad_data});
  auto good_ticket = server.submit(sg, Request{.bytes = good_data});
  const Response bad_res = bad_ticket.wait();
  EXPECT_EQ(bad_res.status, ResponseStatus::kError);
  EXPECT_FALSE(bad_res.ok());
  EXPECT_THROW(bad_res.throw_if_failed(), std::runtime_error);
  EXPECT_EQ(good_ticket.wait().analysis.blocks.size(), 4u);
  server.drain();

  const StreamStats bad_stats = server.stream_stats(sb);
  EXPECT_EQ(bad_stats.requests, 1u);
  EXPECT_EQ(bad_stats.commit.blocks, 0u) << "failed batches contribute no commit counters";
  EXPECT_EQ(server.stream_stats(sg).commit.blocks, 4u);
}

// The acceptance-criteria property: identical per-request results and
// per-stream deterministic stats for a 1-thread and an N-thread engine.
TEST(CodecServer, PerStreamResultsThreadCountInvariant) {
  const auto training = quantized_walk(31, 256);

  auto run = [&](unsigned threads) {
    CodecServer::Config cfg;
    cfg.engine = std::make_shared<CodecEngine>(threads);
    cfg.batch_blocks = 32;
    CodecServer server(cfg);
    const StreamId bulk =
        server.open_stream(e2mc_stream("bulk", training, StreamPriority::kBulk));
    const StreamId lat =
        server.open_stream(e2mc_stream("lat", training, StreamPriority::kLatency));

    std::vector<ServerTicket> tickets;
    std::vector<StreamId> owners;
    for (uint64_t i = 0; i < 12; ++i) {
      const StreamId sid = i % 3 == 0 ? lat : bulk;
      const auto data = quantized_walk(100 + i, 5 + i % 7);
      tickets.push_back(server.submit(sid, Request{.bytes = data}));
      owners.push_back(sid);
    }
    std::vector<Response> results;
    for (auto& t : tickets) results.push_back(t.wait());
    server.drain();
    return std::make_tuple(std::move(results), server.stream_stats(bulk).commit,
                           server.stream_stats(lat).commit);
  };

  const auto [res1, bulk1, lat1] = run(1);
  const auto [res4, bulk4, lat4] = run(4);

  ASSERT_EQ(res1.size(), res4.size());
  for (size_t r = 0; r < res1.size(); ++r) {
    ASSERT_TRUE(res1[r].ok());
    ASSERT_TRUE(res4[r].ok());
    ASSERT_EQ(res1[r].analysis.blocks.size(), res4[r].analysis.blocks.size()) << "request " << r;
    for (size_t i = 0; i < res1[r].analysis.blocks.size(); ++i)
      EXPECT_EQ(res1[r].analysis.blocks[i].bit_size, res4[r].analysis.blocks[i].bit_size)
          << "request " << r << " block " << i;
    EXPECT_EQ(res1[r].analysis.ratios.raw_ratio(), res4[r].analysis.ratios.raw_ratio())
        << "request " << r;
    EXPECT_EQ(res1[r].analysis.ratios.effective_ratio(), res4[r].analysis.ratios.effective_ratio());
    EXPECT_EQ(res1[r].analysis.lossy_blocks, res4[r].analysis.lossy_blocks);
    EXPECT_EQ(res1[r].analysis.truncated_symbols, res4[r].analysis.truncated_symbols);
  }
  EXPECT_EQ(bulk1, bulk4);  // CommitStats all-field equality
  EXPECT_EQ(lat1, lat4);
}

// Regression: a batch dispatched after the engine shut down is abandoned at
// enqueue; the server must fail its tickets with the stored exception
// instead of hanging forever in drain() / the destructor.
TEST(CodecServer, SubmitAfterEngineShutdownFailsTicketsInsteadOfHanging) {
  auto engine = std::make_shared<CodecEngine>(2);
  CodecServer::Config cfg;
  cfg.engine = engine;
  cfg.batch_blocks = 4;
  CodecServer server(cfg);
  const auto training = quantized_walk(31, 256);
  const StreamId s = server.open_stream(e2mc_stream("late", training));

  engine->shutdown();
  const auto data = quantized_walk(90, 8);
  auto ticket = server.submit(s, Request{.bytes = data});  // >= batch: dispatches now
  const Response res = ticket.wait();
  EXPECT_EQ(res.status, ResponseStatus::kError);
  EXPECT_THROW(res.throw_if_failed(), std::runtime_error);
  server.drain();  // must return, not deadlock
  const StreamStats st = server.stream_stats(s);
  EXPECT_EQ(st.requests, 1u);
  EXPECT_EQ(st.commit.blocks, 0u);
  EXPECT_EQ(server.inflight_blocks(), 0u);
}

TEST(CodecServer, AggregateStatsSumStreams) {
  const auto training = quantized_walk(31, 256);
  CodecServer server;
  const StreamId a = server.open_stream(e2mc_stream("a", training));
  const StreamId b = server.open_stream(e2mc_stream("b", training));
  const auto data_a = quantized_walk(48, 3);
  const auto data_b = quantized_walk(49, 5);
  server.submit(a, Request{.bytes = data_a});
  server.submit(b, Request{.bytes = data_b});
  server.drain();

  const StreamStats agg = server.aggregate_stats();
  EXPECT_EQ(agg.requests, 2u);
  EXPECT_EQ(agg.commit.blocks, 8u);
  EXPECT_EQ(agg.commit.blocks,
            server.stream_stats(a).commit.blocks + server.stream_stats(b).commit.blocks);
  EXPECT_EQ(agg.latency.count(), 2u);
}

// Streams of different codecs sharing one server stay isolated: each
// stream's results match its codec's kernel run directly on the data.
TEST(CodecServer, MixedCodecStreamsStayIsolated) {
  const auto training = quantized_walk(31, 256);
  const auto data = quantized_walk(50, 6);

  CodecServer server;
  StreamConfig bdi;
  bdi.name = "bdi";
  bdi.codec = "BDI";
  bdi.options = test_options({});
  const StreamId sb = server.open_stream(bdi);
  const StreamId se = server.open_stream(e2mc_stream("e2mc", training));

  auto tb = server.submit(sb, Request{.bytes = data});
  auto te = server.submit(se, Request{.bytes = data});
  const Response got_b = tb.wait();
  const Response got_e = te.wait();

  const auto blocks = to_blocks(data);
  const auto want_b =
      test::direct_analyze(*CodecRegistry::instance().create("BDI", test_options({})), blocks, 32);
  const auto want_e = test::direct_analyze(
      *CodecRegistry::instance().create("E2MC", test_options(training)), blocks, 32);
  ASSERT_EQ(got_b.analysis.blocks.size(), want_b.blocks.size());
  ASSERT_EQ(got_e.analysis.blocks.size(), want_e.blocks.size());
  for (size_t i = 0; i < got_b.analysis.blocks.size(); ++i)
    EXPECT_EQ(got_b.analysis.blocks[i].bit_size, want_b.blocks[i].bit_size);
  for (size_t i = 0; i < got_e.analysis.blocks.size(); ++i)
    EXPECT_EQ(got_e.analysis.blocks[i].bit_size, want_e.blocks[i].bit_size);
}

// --- typed-API tests: kinds, deadlines, admission, cache modes --------------

// The tentpole lull property: a partial batch must flush within its deadline
// budget with no subsequent submit, flush or wait — only the timer thread
// can dispatch it (idle flush is disabled here so the deadline alone arms
// the timer).
TEST(CodecServer, DeadlineFlushesPartialBatchDuringLull) {
  CodecServer::Config cfg;
  cfg.batch_blocks = 256;  // far above the request: would coalesce forever
  cfg.max_coalesce_delay = std::chrono::microseconds(0);
  CodecServer server(cfg);
  const auto training = quantized_walk(31, 256);
  const StreamId s = server.open_stream(e2mc_stream("lull", training));

  const auto data = quantized_walk(51, 4);
  auto ticket =
      server.submit(s, Request{.bytes = data, .deadline = std::chrono::milliseconds(20)});
  // Poll ready() only — it never dispatches. Generous wall-clock bound: the
  // assertion is "flushes without help", not "flushes in exactly 10 ms".
  const auto start = std::chrono::steady_clock::now();
  while (!ticket.ready() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(ticket.ready()) << "flush timer never dispatched the parked batch";
  const Response res = ticket.wait();
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.analysis.blocks.size(), 4u);
  EXPECT_EQ(server.stream_stats(s).batches, 1u);
}

// Deadline-free requests are covered by the idle linger (max_coalesce_delay)
// instead: a lull still cannot strand them.
TEST(CodecServer, IdleLingerFlushesPartialBatchWithoutDeadline) {
  CodecServer::Config cfg;
  cfg.batch_blocks = 256;
  cfg.max_coalesce_delay = std::chrono::milliseconds(1);
  CodecServer server(cfg);
  const auto training = quantized_walk(31, 256);
  const StreamId s = server.open_stream(e2mc_stream("linger", training));

  const auto data = quantized_walk(52, 3);
  auto ticket = server.submit(s, Request{.bytes = data});
  const auto start = std::chrono::steady_clock::now();
  while (!ticket.ready() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(ticket.ready()) << "idle linger never flushed the parked batch";
  EXPECT_EQ(ticket.wait().analysis.blocks.size(), 3u);
}

// Admission control at saturation: a kReject stream sheds immediately where
// a kBlock stream waits its turn and is eventually served.
TEST(CodecServer, RejectPolicyShedsWhereBlockPolicyWaits) {
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(2);
  cfg.batch_blocks = 16;
  cfg.max_inflight_blocks = 32;
  cfg.max_coalesce_delay = std::chrono::microseconds(0);
  CodecServer server(cfg);

  StreamConfig shed_cfg;
  shed_cfg.name = "shed";
  shed_cfg.codec = "TEST-SLOW";
  shed_cfg.admission = AdmissionPolicy::kReject;
  const StreamId shed_s = server.open_stream(shed_cfg);
  StreamConfig wait_cfg;
  wait_cfg.name = "wait";
  wait_cfg.codec = "TEST-SLOW";  // default kBlock
  const StreamId wait_s = server.open_stream(wait_cfg);

  // Fills the whole budget and dispatches at submit; TEST-SLOW keeps it in
  // flight for >= 3.2 ms — far longer than the sub-microsecond submits below.
  const auto data = quantized_walk(91, 32);
  auto first = server.submit(shed_s, Request{.bytes = data});
  auto shed = server.submit(shed_s, Request{.bytes = data});
  EXPECT_TRUE(shed.ready()) << "rejection must be immediate, not queued";
  const Response shed_res = shed.wait();
  EXPECT_EQ(shed_res.status, ResponseStatus::kRejected);
  EXPECT_FALSE(shed_res.ok());
  EXPECT_TRUE(shed_res.analysis.blocks.empty());
  EXPECT_TRUE(shed_res.payloads.empty());
  EXPECT_THROW(shed_res.throw_if_failed(), std::runtime_error);

  // Same saturation, kBlock policy: waits for the budget and gets served.
  auto blocked = server.submit(wait_s, Request{.bytes = data});
  const Response blocked_res = blocked.wait();
  EXPECT_TRUE(blocked_res.ok());
  EXPECT_EQ(blocked_res.analysis.blocks.size(), 32u);

  EXPECT_TRUE(first.wait().ok());
  server.drain();
  const StreamStats shed_st = server.stream_stats(shed_s);
  EXPECT_EQ(shed_st.requests, 2u) << "rejected submits still count as requests";
  EXPECT_EQ(shed_st.rejected, 1u);
  EXPECT_EQ(shed_st.commit.blocks, 32u) << "only the served request commits";
  EXPECT_EQ(shed_st.latency.count(), 1u) << "rejected requests record no latency sample";
  const StreamStats wait_st = server.stream_stats(wait_s);
  EXPECT_EQ(wait_st.rejected, 0u);
  EXPECT_EQ(wait_st.commit.blocks, 32u);
  EXPECT_EQ(server.aggregate_stats().rejected, 1u) << "merge() carries rejected";
}

// Full payload serving: server compress responses must be byte-identical to
// the direct codec path for every registry scheme, at 1 and N engine
// threads, and the payloads must decompress correctly (exact bytes for
// lossless schemes, scalar-path-identical bytes for the lossy ones).
TEST(CodecServer, CompressPayloadsMatchDirectCodecPathAllSchemes) {
  const auto training = quantized_walk(31, 256);
  const std::vector<uint8_t> data = quantized_walk(53, 8);
  const std::vector<Block> blocks = to_blocks(data);

  for (const unsigned threads : {1u, 4u}) {
    CodecServer::Config cfg;
    cfg.engine = std::make_shared<CodecEngine>(threads);
    cfg.batch_blocks = 4;  // the 8 blocks split across batches
    CodecServer server(cfg);

    for (const std::string& name : CodecRegistry::instance().names()) {
      if (name.rfind("TEST-", 0) == 0) continue;  // fixtures registered above
      const CodecInfo& info = CodecRegistry::instance().at(name);
      if (!info.make) continue;  // RAW has no Compressor form
      StreamConfig sc;
      sc.name = name;
      sc.codec = name;
      sc.options = test_options(training);
      const StreamId s = server.open_stream(sc);

      // Two requests that coalesce into shared batches.
      const std::span<const uint8_t> bytes(data);
      auto t1 = server.submit(
          s, Request{.kind = RequestKind::kCompress, .bytes = bytes.first(5 * kBlockBytes)});
      auto t2 = server.submit(
          s, Request{.kind = RequestKind::kCompress, .bytes = bytes.subspan(5 * kBlockBytes)});
      Response r1 = t1.wait();
      Response r2 = t2.wait();
      ASSERT_TRUE(r1.ok()) << name;
      ASSERT_TRUE(r2.ok()) << name;
      ASSERT_EQ(r1.payloads.size(), 5u) << name;
      ASSERT_EQ(r2.payloads.size(), 3u) << name;
      EXPECT_TRUE(r1.analysis.blocks.empty()) << "compress responses carry payloads, not analyses";

      std::vector<CompressedBlock> got = std::move(r1.payloads);
      got.insert(got.end(), std::make_move_iterator(r2.payloads.begin()),
                 std::make_move_iterator(r2.payloads.end()));

      const auto comp = CodecRegistry::instance().create(name, test_options(training));
      const std::vector<CompressedBlock> want = comp->compress_batch(blocks);
      ASSERT_EQ(got.size(), want.size()) << name;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].payload, want[i].payload)
            << name << " block " << i << " threads " << threads;
        EXPECT_EQ(got[i].bit_size, want[i].bit_size) << name << " block " << i;
        EXPECT_EQ(got[i].is_compressed, want[i].is_compressed) << name << " block " << i;
        const Block decoded = comp->decompress(got[i], kBlockBytes);
        EXPECT_EQ(decoded, comp->decompress(want[i], kBlockBytes)) << name << " block " << i;
        if (!info.lossy) {
          EXPECT_EQ(decoded, blocks[i]) << name << " block " << i;
        }
      }
    }
  }
}

// Batches are kind-homogeneous: a kind switch dispatches the pending batch
// instead of mixing analyses and payloads in one engine job.
TEST(CodecServer, KindSwitchFlushesPendingBatch) {
  const auto training = quantized_walk(31, 256);
  CodecServer::Config cfg;
  cfg.batch_blocks = 256;
  cfg.max_coalesce_delay = std::chrono::microseconds(0);
  CodecServer server(cfg);
  const StreamId s = server.open_stream(e2mc_stream("kinds", training));

  const auto data = quantized_walk(54, 2);
  auto ta = server.submit(s, Request{.bytes = data});
  auto tc = server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = data});
  const Response ra = ta.wait();
  const Response rc = tc.wait();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(ra.analysis.blocks.size(), 2u);
  EXPECT_EQ(rc.payloads.size(), 2u);
  server.drain();
  EXPECT_EQ(server.stream_stats(s).batches, 2u) << "one batch per kind";
}

// kDecide is the cheap tier: the same deterministic aggregates as kAnalyze
// with no per-block vector materialized.
TEST(CodecServer, DecideKindReturnsAggregatesOnly) {
  const auto training = quantized_walk(31, 256);
  CodecServer server;
  const StreamId s = server.open_stream(e2mc_stream("decide", training));

  const auto data = quantized_walk(55, 6);
  const Response analyzed = server.submit(s, Request{.bytes = data}).wait();
  const Response decided =
      server.submit(s, Request{.kind = RequestKind::kDecide, .bytes = data}).wait();
  ASSERT_TRUE(analyzed.ok());
  ASSERT_TRUE(decided.ok());
  EXPECT_EQ(analyzed.analysis.blocks.size(), 6u);
  EXPECT_TRUE(decided.analysis.blocks.empty());
  EXPECT_EQ(decided.analysis.ratios.raw_ratio(), analyzed.analysis.ratios.raw_ratio());
  EXPECT_EQ(decided.analysis.ratios.effective_ratio(),
            analyzed.analysis.ratios.effective_ratio());
  EXPECT_EQ(decided.analysis.lossy_blocks, analyzed.analysis.lossy_blocks);
  EXPECT_EQ(decided.analysis.truncated_symbols, analyzed.analysis.truncated_symbols);
}

// A served-late response says so: deadline_missed on the response, the
// stream's deadline_misses counter, and the tag round-trip.
TEST(CodecServer, DeadlineMissSurfacedInResponseAndStats) {
  const auto training = quantized_walk(31, 256);
  CodecServer::Config cfg;
  cfg.batch_blocks = 4;
  CodecServer server(cfg);
  const StreamId s = server.open_stream(e2mc_stream("miss", training));

  const auto data = quantized_walk(56, 4);
  // 1 ns deadline: dispatches inline (batch full) and always completes late.
  auto ticket = server.submit(
      s, Request{.bytes = data, .deadline = std::chrono::nanoseconds(1), .tag = 0xfeed});
  const Response res = ticket.wait();
  EXPECT_TRUE(res.ok()) << "deadlines are advisory: a late response is still served";
  EXPECT_TRUE(res.deadline_missed);
  EXPECT_EQ(res.tag, 0xfeedu);
  server.drain();
  EXPECT_EQ(server.stream_stats(s).deadline_misses, 1u);
  EXPECT_EQ(server.aggregate_stats().deadline_misses, 1u) << "merge() carries misses";
}

TEST(CodecServer, StreamStatsMergeAddsNewCounters) {
  StreamStats a;
  a.requests = 5;
  a.rejected = 2;
  a.deadline_misses = 1;
  StreamStats b;
  b.requests = 7;
  b.rejected = 3;
  b.deadline_misses = 4;
  a.merge(b);
  EXPECT_EQ(a.requests, 12u);
  EXPECT_EQ(a.rejected, 5u);
  EXPECT_EQ(a.deadline_misses, 5u);
}

// CacheMode is the one way to wire a memo: a pre-set
// options.fingerprint_cache fails open_stream; kShared traffic lands in the
// engine's cache while kOff streams generate no cache traffic.
TEST(CodecServer, CacheModeRejectsPresetCacheAndOffStaysCold) {
  const auto training = quantized_walk(31, 256);

  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(2);
  CodecServer server(cfg);
  StreamConfig preset;
  preset.name = "preset";
  preset.codec = "TSLC-OPT";
  preset.options = test_options(training);
  preset.options.fingerprint_cache = std::make_shared<FingerprintCache>();
  preset.cache_mode = CacheMode::kShared;
  EXPECT_THROW(server.open_stream(preset), std::invalid_argument);
  EXPECT_THROW(server.stream_name(0), std::out_of_range) << "the failed open added no stream";
  if (!FingerprintCache::runtime_enabled()) GTEST_SKIP() << "cache force-disabled";

  StreamConfig shared = preset;
  shared.name = "shared";
  shared.options.fingerprint_cache = nullptr;
  const StreamId s = server.open_stream(shared);

  StreamConfig off;
  off.name = "off";
  off.codec = "TSLC-OPT";
  off.options = test_options(training);
  const StreamId so = server.open_stream(off);

  const auto data = quantized_walk(57, 8);
  const Response cached_res = server.submit(s, Request{.bytes = data}).wait();
  const Response cold_res = server.submit(so, Request{.bytes = data}).wait();
  ASSERT_TRUE(cached_res.ok());
  ASSERT_TRUE(cold_res.ok());
  EXPECT_GT(cached_res.analysis.cache.probes(), 0u);
  EXPECT_GT(server.engine().fingerprint_cache()->size(), 0u)
      << "kShared traffic must land in the engine's cache";
  EXPECT_EQ(cold_res.analysis.cache.probes(), 0u) << "CacheMode::kOff generates no probes";
}

// A MAG of 0 (or one that does not divide the block) must fail open_stream,
// not kill the process on the engine worker that completes the first batch.
TEST(CodecServer, OpenStreamRejectsBadMag) {
  const auto training = quantized_walk(31, 256);
  CodecServer server;
  for (const char* codec : {"E2MC", "BDI", "TSLC-OPT"}) {
    for (const size_t mag : {size_t{0}, size_t{48}}) {
      StreamConfig sc;
      sc.name = "bad-mag";
      sc.codec = codec;
      sc.options = test_options(training);
      sc.options.mag_bytes = mag;
      EXPECT_THROW(server.open_stream(sc), std::invalid_argument) << codec << " MAG " << mag;
    }
  }
  EXPECT_THROW(server.stream_name(0), std::out_of_range) << "no failed open added a stream";
}

// --- arena layout, payload safety, timer wakes ---------------------------------

/// The five requests of the layout tests, coalesced into one batch: 40, 50
/// and 30 blocks, a byte buffer with a ragged tail, and an empty request.
/// 190 blocks span several engine shards at 1 and at 4 workers.
struct LayoutInput {
  std::vector<uint8_t> small = quantized_walk(120, 40);
  std::vector<uint8_t> mid = quantized_walk(121, 50);
  std::vector<uint8_t> large = quantized_walk(122, 30);
  std::vector<uint8_t> ragged = [] {
    auto d = quantized_walk(123, 70);
    d.resize(d.size() - 77);
    return d;
  }();

  /// Each request's blocks as the direct codec sees them (empty last).
  std::vector<std::vector<Block>> per_request() const {
    return {to_blocks(small), to_blocks(mid), to_blocks(large), to_blocks(ragged), {}};
  }
  std::vector<Request> requests(RequestKind kind) const {
    return {Request{.kind = kind, .bytes = small}, Request{.kind = kind, .bytes = mid},
            Request{.kind = kind, .bytes = large}, Request{.kind = kind, .bytes = ragged},
            Request{.kind = kind}};
  }
};

// Every kind over a batch of requests of mixed sizes, a ragged tail and an
// empty request equals the direct codec over the same blocks: per-block
// analyses, payload bytes, bit sizes and flags, each response's ratios and
// decision aggregates, and the stream's CommitStats — at 1 and 4 engine
// workers.
TEST(CodecServer, CoalescedMixedBlockSizesMatchDirectCodecAllKinds) {
  const auto training = quantized_walk(31, 256);
  const LayoutInput in;
  const auto per_request = in.per_request();
  std::vector<Block> all;
  for (const auto& r : per_request) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(), 190u);

  for (const char* codec : {"E2MC", "BDI"}) {
    const auto comp = CodecRegistry::instance().create(codec, test_options(training));
    std::vector<BlockAnalysis> want_a(all.size());
    comp->analyze_batch(to_views(all), want_a.data());
    const std::vector<CompressedBlock> want_c = comp->compress_batch(all);

    for (const unsigned threads : {1u, 4u}) {
      for (const RequestKind kind :
           {RequestKind::kAnalyze, RequestKind::kDecide, RequestKind::kCompress}) {
        const std::string at = std::string(codec) + " threads " + std::to_string(threads) +
                               " kind " + std::to_string(static_cast<int>(kind));
        CodecServer::Config cfg;
        cfg.engine = std::make_shared<CodecEngine>(threads);
        cfg.batch_blocks = 1024;
        cfg.max_coalesce_delay = std::chrono::microseconds(0);
        CodecServer server(cfg);
        StreamConfig sc;
        sc.name = "layout";
        sc.codec = codec;
        sc.options = test_options(training);
        const StreamId s = server.open_stream(sc);

        std::vector<ServerTicket> tickets;
        for (const Request& r : in.requests(kind)) tickets.push_back(server.submit(s, r));
        std::vector<Response> got;
        for (auto& t : tickets) got.push_back(t.wait());
        server.drain();
        EXPECT_EQ(server.stream_stats(s).batches, 1u) << at;

        CommitStats want_stats;
        size_t i = 0;  // index into `all`
        for (size_t r = 0; r < per_request.size(); ++r) {
          const Response& resp = got[r];
          ASSERT_TRUE(resp.ok()) << at << " request " << r;
          RatioAccumulator ratios(kDefaultMagBytes);
          uint64_t lossy = 0, truncated = 0;
          for (size_t j = 0; j < per_request[r].size(); ++j, ++i) {
            const BlockAnalysis& a = want_a[i];
            const CompressedBlock& c = want_c[i];
            const size_t bits = kind == RequestKind::kCompress ? c.bit_size : a.bit_size;
            ratios.add(kBlockBytes * 8, bits);
            want_stats.blocks += 1;
            want_stats.bursts += bursts_for_bits(bits, kDefaultMagBytes);
            want_stats.original_bits += kBlockBytes * 8;
            want_stats.final_bits += bits;
            if (kind == RequestKind::kCompress) {
              want_stats.uncompressed_blocks += c.is_compressed ? 0 : 1;
              ASSERT_EQ(resp.payloads.size(), per_request[r].size()) << at;
              EXPECT_EQ(resp.payloads[j].payload, c.payload) << at << " block " << i;
              EXPECT_EQ(resp.payloads[j].bit_size, c.bit_size) << at << " block " << i;
              EXPECT_EQ(resp.payloads[j].is_compressed, c.is_compressed) << at << " block " << i;
              continue;
            }
            lossy += a.lossy ? 1 : 0;
            truncated += a.truncated_symbols;
            want_stats.lossy_blocks += a.lossy ? 1 : 0;
            want_stats.uncompressed_blocks += a.is_compressed ? 0 : 1;
            want_stats.truncated_symbols += a.truncated_symbols;
            want_stats.lossless_bits += a.lossless_bits;
            want_stats.cache.record(a.cache);
            if (kind == RequestKind::kAnalyze) {
              ASSERT_EQ(resp.analysis.blocks.size(), per_request[r].size()) << at;
              test::expect_analysis_eq(a, resp.analysis.blocks[j], at);
            }
          }
          if (kind != RequestKind::kAnalyze) {
            EXPECT_TRUE(resp.analysis.blocks.empty()) << at;
          }
          if (kind != RequestKind::kCompress) {
            EXPECT_TRUE(resp.payloads.empty()) << at;
          }
          EXPECT_EQ(resp.analysis.ratios.blocks(), ratios.blocks()) << at << " request " << r;
          EXPECT_EQ(resp.analysis.ratios.raw_ratio(), ratios.raw_ratio()) << at;
          EXPECT_EQ(resp.analysis.ratios.effective_ratio(), ratios.effective_ratio()) << at;
          EXPECT_EQ(resp.analysis.lossy_blocks, lossy) << at;
          EXPECT_EQ(resp.analysis.truncated_symbols, truncated) << at;
        }
        EXPECT_TRUE(server.stream_stats(s).commit == want_stats) << at;
      }
    }
  }
}

// A payload longer than its block fails the whole batch with
// std::length_error; every request of the batch gets kError and no payloads,
// nothing is written past the slot (the ASan build checks that), and the
// stream stays usable.
TEST(CodecServer, PayloadLongerThanItsBlockFailsTheBatch) {
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(2);
  cfg.batch_blocks = 1024;
  cfg.max_coalesce_delay = std::chrono::microseconds(0);
  CodecServer server(cfg);
  StreamConfig sc;
  sc.name = "long";
  sc.codec = "TEST-LONG";
  const StreamId s = server.open_stream(sc);

  const auto a = quantized_walk(130, 100);
  const auto b = quantized_walk(131, 3);
  auto ta = server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = a});
  auto tb = server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = b});
  for (auto* t : {&ta, &tb}) {
    const Response res = t->wait();
    EXPECT_EQ(res.status, ResponseStatus::kError);
    EXPECT_TRUE(res.payloads.empty()) << "a failed batch carries no payloads";
    EXPECT_THROW(res.throw_if_failed(), std::length_error);
  }
  server.drain();
  EXPECT_EQ(server.stream_stats(s).batches, 1u);
  EXPECT_EQ(server.stream_stats(s).commit.blocks, 0u);
  EXPECT_EQ(server.inflight_blocks(), 0u);

  // kAnalyze never builds payloads, so the same stream still serves it.
  EXPECT_TRUE(server.submit(s, Request{.bytes = b}).wait().ok());
}

// A kernel's own exception on a kCompress batch also leaves no payloads.
TEST(CodecServer, CompressErrorBatchCarriesNoPayloads) {
  CodecServer server;
  StreamConfig sc;
  sc.name = "throw";
  sc.codec = "TEST-THROW";
  const StreamId s = server.open_stream(sc);
  const auto data = quantized_walk(132, 4);
  const Response res =
      server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = data}).wait();
  EXPECT_EQ(res.status, ResponseStatus::kError);
  EXPECT_TRUE(res.payloads.empty());
}

// TEST-SLOW reports raw-size blocks with empty payloads; they come back
// empty, with their bit sizes, not as the block's bytes.
TEST(CodecServer, EmptyPayloadsComeBackEmpty) {
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(1);
  CodecServer server(cfg);
  StreamConfig sc;
  sc.name = "slow";
  sc.codec = "TEST-SLOW";
  const StreamId s = server.open_stream(sc);
  const auto data = quantized_walk(133, 3);
  const Response res =
      server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = data}).wait();
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.payloads.size(), 3u);
  for (const CompressedBlock& p : res.payloads) {
    EXPECT_TRUE(p.payload.empty());
    EXPECT_EQ(p.bit_size, kBlockBytes * 8);
    EXPECT_FALSE(p.is_compressed);
  }
}

// Worker slots are reused across batches — and across streams, which are
// tenants — so each is reset before every kernel call: a kernel that leaves
// a slot untouched returns an empty payload of 0 bits, never the bytes an
// earlier batch left there. One worker, so both batches use the same slots.
TEST(CodecServer, UntouchedSlotsNeverReturnAnEarlierBatchsBytes) {
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(1);
  CodecServer server(cfg);
  StreamConfig sc;
  sc.name = "stale";
  sc.codec = "TEST-STALE";
  const StreamId s = server.open_stream(sc);

  const auto data = quantized_walk(134, 4);
  const Response first =
      server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = data}).wait();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.payloads.size(), 4u);
  EXPECT_EQ(first.payloads[0].payload.size(), 8u);
  EXPECT_TRUE(first.payloads[0].is_compressed);

  const Response second =
      server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = data}).wait();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.payloads.size(), 4u);
  for (const CompressedBlock& p : second.payloads) {
    EXPECT_TRUE(p.payload.empty()) << "an earlier batch's bytes leaked into this response";
    EXPECT_EQ(p.bit_size, 0u);
    EXPECT_FALSE(p.is_compressed);
  }
}

// Fire-and-forget kCompress tickets: every batch still retires its budget
// and drain() returns, with nobody ever waiting for a payload.
TEST(CodecServer, FireAndForgetCompressRetiresBudget) {
  const auto training = quantized_walk(31, 256);
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(2);
  cfg.batch_blocks = 16;
  cfg.max_inflight_blocks = 64;
  CodecServer server(cfg);
  StreamConfig sc = e2mc_stream("forget", training);
  const StreamId s = server.open_stream(sc);

  const auto data = quantized_walk(135, 8);
  for (int i = 0; i < 40; ++i) {
    server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = data});
    EXPECT_LE(server.inflight_blocks(), cfg.max_inflight_blocks);
  }
  server.drain();
  EXPECT_EQ(server.inflight_blocks(), 0u);
  EXPECT_EQ(server.stream_stats(s).commit.blocks, 40u * 8u);
}

// The flush timer sleeps until the earliest armed flush and is woken only
// for an earlier one. Stream A parks a deadline-free request under a 10 s
// linger; C's 2 ms deadline then wakes the timer, which dispatches C and
// goes back to sleep until A's linger — C being ready proves that scan ran
// (only the timer can dispatch C). B's 20 ms deadline must wake it again:
// B's ticket becomes ready long before A's linger ends, with no wait().
TEST(CodecServer, EarlierFlushWakesTimerSleepingOnLaterOne) {
  const auto training = quantized_walk(31, 256);
  CodecServer::Config cfg;
  cfg.batch_blocks = 1024;
  cfg.max_coalesce_delay = std::chrono::seconds(10);
  CodecServer server(cfg);
  const StreamId a = server.open_stream(e2mc_stream("a", training));
  const StreamId b = server.open_stream(e2mc_stream("b", training));
  const auto data = quantized_walk(136, 2);

  auto poll_ready = [](const ServerTicket& t, std::chrono::seconds bound) {
    const auto start = std::chrono::steady_clock::now();
    while (!t.ready() && std::chrono::steady_clock::now() - start < bound)
      std::this_thread::yield();
    return t.ready();
  };
  auto ta = server.submit(a, Request{.bytes = data});
  auto tc = server.submit(b, Request{.bytes = data, .deadline = std::chrono::milliseconds(2)});
  ASSERT_TRUE(poll_ready(tc, std::chrono::seconds(5))) << "the timer never flushed C";
  const auto start = std::chrono::steady_clock::now();
  auto tb = server.submit(b, Request{.bytes = data, .deadline = std::chrono::milliseconds(20)});
  ASSERT_TRUE(poll_ready(tb, std::chrono::seconds(5)))
      << "B waited for the timer's wake at A's 10 s linger";
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_FALSE(ta.ready()) << "A is still lingering";
  EXPECT_TRUE(ta.wait().ok());  // wait() flushes A
  EXPECT_TRUE(tc.wait().ok());
  EXPECT_TRUE(tb.wait().ok());
}

// --- recycled batches --------------------------------------------------------
//
// A stream reuses a retired batch, buffers cleared but their capacity kept,
// so each of these runs many batches through one stream and checks that
// none of them sees what an earlier one left behind.

/// `n` bytes no block of quantized_walk resembles: incompressible noise.
std::vector<uint8_t> noise_bytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.next());
  return out;
}

void expect_payloads_match(const Response& res, const Compressor& direct,
                           std::span<const uint8_t> bytes, const std::string& what) {
  ASSERT_TRUE(res.ok()) << what;
  const std::vector<CompressedBlock> want = direct.compress_batch(to_blocks(bytes));
  ASSERT_EQ(res.payloads.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(res.payloads[i].payload, want[i].payload) << what << " block " << i;
    EXPECT_EQ(res.payloads[i].bit_size, want[i].bit_size) << what << " block " << i;
    EXPECT_EQ(res.payloads[i].is_compressed, want[i].is_compressed) << what << " block " << i;
  }
}

void expect_decision_matches(const Response& res, const Compressor& direct,
                             std::span<const uint8_t> bytes, const std::string& what) {
  ASSERT_TRUE(res.ok()) << what;
  const std::vector<Block> blocks = to_blocks(bytes);
  std::vector<BlockView> views;
  for (const Block& b : blocks) views.push_back(b.view());
  std::vector<BlockAnalysis> want(views.size());
  direct.analyze_batch(views, want.data());
  RatioAccumulator ratios(kDefaultMagBytes);
  uint64_t lossy = 0;
  uint64_t truncated = 0;
  for (const BlockAnalysis& a : want) {
    ratios.add(kBlockBytes * 8, a.bit_size);
    lossy += a.lossy ? 1 : 0;
    truncated += a.truncated_symbols;
  }
  EXPECT_TRUE(res.analysis.blocks.empty()) << what;
  EXPECT_EQ(res.analysis.ratios.blocks(), ratios.blocks()) << what;
  EXPECT_EQ(res.analysis.ratios.raw_ratio(), ratios.raw_ratio()) << what;
  EXPECT_EQ(res.analysis.ratios.effective_ratio(), ratios.effective_ratio()) << what;
  EXPECT_EQ(res.analysis.lossy_blocks, lossy) << what;
  EXPECT_EQ(res.analysis.truncated_symbols, truncated) << what;
}

// A full batch of noise, then a ragged request: whichever recycled buffer
// the ragged request lands in, its tail block is zero-padded, never padded
// with the noise an earlier batch left in that memory.
TEST(CodecServer, RecycledBatchZeroPadsARaggedRequest) {
  const auto training = quantized_walk(31, 256);
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(1);
  cfg.batch_blocks = 4;
  cfg.max_coalesce_delay = std::chrono::microseconds(0);
  CodecServer server(cfg);
  const StreamId s = server.open_stream(e2mc_stream("ragged", training));
  const auto direct = CodecRegistry::instance().create("E2MC", test_options(training));

  for (uint64_t round = 0; round < 6; ++round) {
    const auto full = noise_bytes(700 + round, 4 * kBlockBytes);
    expect_payloads_match(
        server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = full}).wait(), *direct,
        full, "full batch " + std::to_string(round));
    std::vector<uint8_t> ragged = quantized_walk(710 + round, 2);
    ragged.resize(kBlockBytes + kBlockBytes / 2);
    const Response res =
        server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = ragged}).wait();
    expect_payloads_match(res, *direct, ragged, "ragged request " + std::to_string(round));
  }
  server.drain();
  EXPECT_EQ(server.stream_stats(s).batches, 12u);
}

// One stream alternates kDecide, kCompress and kDecide, with and without
// waiting in between, so a batch that carried payloads is reused for
// decisions and the other way round. Every response matches the direct
// codec.
TEST(CodecServer, RecycledBatchesSwitchKindsCleanly) {
  const auto training = quantized_walk(31, 256);
  for (const unsigned threads : {1u, 3u}) {
    CodecServer::Config cfg;
    cfg.engine = std::make_shared<CodecEngine>(threads);
    cfg.batch_blocks = 8;
    CodecServer server(cfg);
    StreamConfig sc;
    sc.name = "kinds";
    sc.codec = "TSLC-OPT";
    sc.options = test_options(training);
    const StreamId s = server.open_stream(sc);
    const auto direct = CodecRegistry::instance().create("TSLC-OPT", test_options(training));

    const RequestKind kinds[] = {RequestKind::kDecide, RequestKind::kCompress,
                                 RequestKind::kDecide};
    std::vector<std::vector<uint8_t>> inputs;
    std::vector<ServerTicket> tickets;
    auto check = [&](size_t i) {
      const std::string what = "request " + std::to_string(i) + " threads " +
                               std::to_string(threads);
      if (kinds[i % 3] == RequestKind::kCompress) {
        expect_payloads_match(tickets[i].wait(), *direct, inputs[i], what);
      } else {
        expect_decision_matches(tickets[i].wait(), *direct, inputs[i], what);
      }
    };
    for (uint64_t round = 0; round < 8; ++round) {
      // Even rounds wait each request; odd rounds leave all three in flight.
      for (size_t k = 0; k < 3; ++k) {
        inputs.push_back(quantized_walk(720 + 3 * round + k, 3 + (round + k) % 9));
        tickets.push_back(server.submit(s, Request{.kind = kinds[k], .bytes = inputs.back()}));
        if (round % 2 == 0) check(tickets.size() - 1);
      }
      if (round % 2 == 1)
        for (size_t i = tickets.size() - 3; i < tickets.size(); ++i) check(i);
    }
  }
}

// A failed batch is recycled like a served one: the good batches after it
// on the same stream carry no error and the right results.
TEST(CodecServer, RecycledBatchAfterAFailedOneServesCleanly) {
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(2);
  cfg.batch_blocks = 16;
  CodecServer server(cfg);
  StreamConfig sc;
  sc.name = "long";
  sc.codec = "TEST-LONG";
  const StreamId s = server.open_stream(sc);

  for (uint64_t round = 0; round < 4; ++round) {
    const auto data = quantized_walk(740 + round, 5 + round);
    const Response failed =
        server.submit(s, Request{.kind = RequestKind::kCompress, .bytes = data}).wait();
    EXPECT_EQ(failed.status, ResponseStatus::kError);
    EXPECT_TRUE(failed.payloads.empty());

    const Response good = server.submit(s, Request{.bytes = data}).wait();
    ASSERT_TRUE(good.ok()) << "round " << round;
    EXPECT_EQ(good.error, nullptr);
    EXPECT_TRUE(good.payloads.empty());
    ASSERT_EQ(good.analysis.blocks.size(), 5 + round);
    for (const BlockAnalysis& a : good.analysis.blocks) EXPECT_EQ(a.bit_size, kBlockBytes * 8);
  }
  server.drain();
  const StreamStats st = server.stream_stats(s);
  EXPECT_EQ(st.requests, 8u);
  EXPECT_EQ(st.commit.blocks, 5u + 6u + 7u + 8u) << "failed batches commit nothing";
  EXPECT_EQ(server.inflight_blocks(), 0u);
}

// The engine shuts down while a stream has batches queued, in flight and
// still coalescing. Every ticket resolves — served before the stop, or
// kError — the budget returns to zero, and (under the ASan job's leak
// checker) the recycled batches and their requests are all freed with the
// server.
TEST(CodecServer, EngineShutdownMidLoadResolvesEveryTicket) {
  auto engine = std::make_shared<CodecEngine>(2);
  CodecServer::Config cfg;
  cfg.engine = engine;
  cfg.batch_blocks = 8;
  CodecServer server(cfg);
  StreamConfig sc;
  sc.name = "slow";
  sc.codec = "TEST-SLOW";
  const StreamId s = server.open_stream(sc);

  const auto data = quantized_walk(750, 4);
  std::vector<ServerTicket> tickets;
  for (int i = 0; i < 40; ++i) {
    const RequestKind kind = i % 3 == 0 ? RequestKind::kCompress : RequestKind::kAnalyze;
    tickets.push_back(server.submit(s, Request{.kind = kind, .bytes = data}));
    if (i == 24) engine->shutdown();
  }
  size_t served = 0;
  size_t failed = 0;
  for (ServerTicket& t : tickets) {
    const Response res = t.wait();
    ASSERT_TRUE(res.status == ResponseStatus::kOk || res.status == ResponseStatus::kError);
    (res.ok() ? served : failed) += 1;
  }
  EXPECT_GT(failed, 0u) << "requests submitted after the stop fail";
  server.drain();
  EXPECT_EQ(server.inflight_blocks(), 0u);
  EXPECT_EQ(server.stream_stats(s).requests, served + failed);
}

}  // namespace
}  // namespace slc
