// Heap traffic of the serving path. A counting global operator new/delete
// counts every allocation, on every thread (client, flush timer, engine
// workers), while a CodecServer serves a saturated closed loop: one TSLC-OPT
// stream on a CodecEngine(2), 16 requests of 512 blocks outstanding. Per
// served block, after warm-up:
//
//   * kDecide stays below 1/8 allocation: nothing is allocated per block;
//   * kCompress stays at or below 1 + 1/8: the one payload vector each
//     Response must own, plus what is not per block.
//
// What is not per block: each request's state and Response::payloads
// vector, a kCompress batch's payload arena, and each compress kernel
// call's own scratch — TSLC-OPT's compress_batch allocates 5 times per
// 64-block chunk (0.08 per block); its analyze_batch allocates nothing. A
// batch, its buffers, its engine callbacks and its engine job are recycled.
// Requests of 512 blocks keep the first two small next to that fixed kernel
// share. The serve benchmark's shape — 64 outstanding requests of 32 blocks
// — is pinned per request for kDecide (about 1.004: the request itself,
// plus the engine queue's deque growing a node every 32 jobs); kCompress
// reads about 1.16 per block there.
//
// The replacement operators are process-wide, so this suite is its own
// binary.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/fingerprint_cache.h"
#include "server/codec_server.h"
#include "test_util.h"

namespace {

std::atomic<uint64_t> g_news{0};
std::atomic<uint64_t> g_deletes{0};
std::atomic<int64_t> g_live_bytes{0};  ///< usable bytes of live allocations

void* counted(void* p) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (p != nullptr)
    g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  return p;
}

void* counted_alloc(std::size_t n) { return counted(std::malloc(n != 0 ? n : 1)); }

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) / a * a));
}

void counted_free(void* p) {
  if (p != nullptr) {
    g_deletes.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace slc {
namespace {

/// Request size and outstanding window of a saturated closed loop.
struct Shape {
  size_t blocks_per_request;
  size_t window;
  /// Requests carry 5 ms deadlines under the default linger, so the flush
  /// timer may dispatch a batch early. Without, a batch dispatches only
  /// when full (or when a waiter needs it), whatever the host's load.
  bool timed;
};
/// 8192 blocks in flight, inside the default budget: the per-block costs.
constexpr Shape kLargeRequests{512, 16, true};
/// The serve benchmark's request size and window (bench/e2e/serve.cpp):
/// eight full 256-block batches in flight, so per-request and per-batch
/// costs show. Untimed, so a loaded host cannot cut batches short and add
/// engine jobs per request.
constexpr Shape kServeRequests{32, 64, false};
constexpr size_t kInputs = 64;  ///< distinct request inputs, cycled

/// One TSLC-OPT stream on a fresh CodecServer over a CodecEngine(2), fed by
/// a closed loop that keeps `shape.window` requests outstanding.
class SaturatedServer {
 public:
  SaturatedServer(RequestKind kind, CacheMode cache, Shape shape = kLargeRequests)
      : kind_(kind), shape_(shape) {
    CodecServer::Config cfg;
    cfg.engine = std::make_shared<CodecEngine>(2);
    if (!shape.timed) cfg.max_coalesce_delay = std::chrono::microseconds(0);
    server_ = std::make_unique<CodecServer>(cfg);
    StreamConfig sc;
    sc.name = "alloc";
    sc.codec = "TSLC-OPT";
    sc.options = test::test_options(training_);
    sc.cache_mode = cache;
    stream_ = server_->open_stream(sc);
    for (uint64_t i = 0; i < kInputs; ++i)
      inputs_.push_back(test::quantized_walk(1000 + i, shape.blocks_per_request));
  }

  /// Serves `requests` requests through the window; returns the blocks served.
  uint64_t run(size_t requests) {
    uint64_t blocks = 0;
    size_t submitted = 0;
    while (outstanding_ < shape_.window && submitted < requests) submit(submitted++);
    while (outstanding_ != 0) {
      const Response resp = window_[oldest_].wait();
      oldest_ = (oldest_ + 1) % shape_.window;
      outstanding_ -= 1;
      EXPECT_TRUE(resp.ok());
      blocks += shape_.blocks_per_request;
      if (submitted < requests) submit(submitted++);
    }
    return blocks;
  }

  /// Submits `requests` requests and drops every ticket unwaited.
  void fire_and_forget(size_t requests) {
    for (size_t i = 0; i < requests; ++i)
      server_->submit(stream_, Request{.kind = kind_, .bytes = inputs_[i % kInputs]});
  }

  CodecServer& server() { return *server_; }

 private:
  void submit(size_t i) {
    window_[(oldest_ + outstanding_) % shape_.window] = server_->submit(
        stream_, Request{.kind = kind_,
                         .bytes = inputs_[i % kInputs],
                         .deadline = shape_.timed ? std::chrono::milliseconds(5)
                                                  : std::chrono::milliseconds(0)});
    outstanding_ += 1;
  }

  std::vector<uint8_t> training_ = test::quantized_walk(31, 256);
  RequestKind kind_;
  Shape shape_;
  std::unique_ptr<CodecServer> server_;
  StreamId stream_ = 0;
  std::vector<std::vector<uint8_t>> inputs_;
  /// The outstanding tickets, oldest first, in a ring of shape.window
  /// slots: the loop itself allocates nothing, so every allocation counted
  /// is the server's.
  std::vector<ServerTicket> window_ = std::vector<ServerTicket>(shape_.window);
  size_t oldest_ = 0;
  size_t outstanding_ = 0;
};

/// Allocations per served block over `requests` requests, after a warm-up
/// that fills the worker slots, the memo, the stream's spare batches and
/// the allocator.
double allocations_per_block(RequestKind kind, CacheMode cache, size_t requests,
                             Shape shape = kLargeRequests) {
  SaturatedServer s(kind, cache, shape);
  s.run(200);
  const uint64_t before = g_news.load();
  const uint64_t blocks = s.run(requests);
  const uint64_t news = g_news.load() - before;
  return static_cast<double>(news) / static_cast<double>(blocks);
}

TEST(ServerAllocations, DecideAllocatesNothingPerBlock) {
  const double per_block = allocations_per_block(RequestKind::kDecide, CacheMode::kShared, 600);
  RecordProperty("allocations_per_block", std::to_string(per_block));
  EXPECT_LT(per_block, 1.0 / 8);
}

TEST(ServerAllocations, CompressAllocatesOnlyTheResponsePayloads) {
  const double per_block = allocations_per_block(RequestKind::kCompress, CacheMode::kOff, 600);
  RecordProperty("allocations_per_block", std::to_string(per_block));
  EXPECT_LE(per_block, 1.0 + 1.0 / 8);
}

// At the serve benchmark's shape a request's own state is what is left: 1
// per request. The batch itself, its buffers, its callbacks and its engine
// job are recycled, and neither a waiter nor a queued request allocates.
TEST(ServerAllocations, DecideAllocatesAboutOnePerRequestAtServeShape) {
  const double per_request =
      allocations_per_block(RequestKind::kDecide, CacheMode::kShared, 20000, kServeRequests) *
      static_cast<double>(kServeRequests.blocks_per_request);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, 1.05);
}

// A stream keeps its retired batches' buffers for reuse, but not those of a
// batch that outgrew twice a full one: after one request of 8192 blocks
// (1 MiB of input in one batch) and a few ordinary ones, the server holds
// about what it held before.
TEST(ServerAllocations, OversizedBatchBuffersAreNotKept) {
  const std::vector<uint8_t> training = test::quantized_walk(31, 256);
  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>(2);
  CodecServer server(cfg);
  StreamConfig sc;
  sc.name = "oversized";
  sc.codec = "TSLC-OPT";
  sc.options = test::test_options(training);
  const StreamId s = server.open_stream(sc);
  const std::vector<uint8_t> small = test::quantized_walk(60, 32);
  const std::vector<uint8_t> big = test::quantized_walk(61, 8192);
  auto decide = [&](std::span<const uint8_t> bytes) {
    return server.submit(s, Request{.kind = RequestKind::kDecide, .bytes = bytes}).wait();
  };
  auto serve_small = [&] {
    for (int i = 0; i < 16; ++i) EXPECT_TRUE(decide(small).ok());
  };

  // A response is published before its batch retires, so drain() before
  // each reading: every batch has then released what it does not keep.
  serve_small();
  server.drain();
  const int64_t before = g_live_bytes.load();
  EXPECT_TRUE(decide(big).ok());
  serve_small();
  server.drain();
  const int64_t grown = g_live_bytes.load() - before;
  RecordProperty("live_bytes_grown", std::to_string(grown));
  EXPECT_LT(grown, 256 * 1024) << "the oversized batch's buffers were kept";
}

// The Fig. 4 decision stages everything on the stack: TSLC-OPT's
// analyze_batch over 256 blocks of 128 B allocates nothing, with the memo
// off and with it on, whether the memo misses (first pass) or hits (second).
TEST(ServerAllocations, DecideKernelAllocatesNothing) {
  const std::vector<uint8_t> training = test::quantized_walk(31, 256);
  const std::vector<uint8_t> bytes = test::quantized_walk(77, 256);
  std::vector<BlockView> views;
  for (size_t off = 0; off < bytes.size(); off += kBlockBytes)
    views.emplace_back(std::span<const uint8_t>(bytes).subspan(off, kBlockBytes));
  for (const bool memo : {false, true}) {
    CodecOptions opts = test::test_options(training);
    if (memo) opts.fingerprint_cache = std::make_shared<FingerprintCache>();
    const auto codec = CodecRegistry::instance().create("TSLC-OPT", opts);
    std::vector<BlockAnalysis> out(views.size());
    for (int pass = 0; pass < 2; ++pass) {
      const uint64_t before = g_news.load();
      codec->analyze_batch(views, out.data());
      EXPECT_EQ(g_news.load() - before, 0u) << "memo " << memo << " pass " << pass;
    }
  }
}

// Dropped kCompress tickets free their batches' payload arenas: a request
// holds its batch's arena, never the batch, so there is no cycle to leak.
// Once the server and its engine are gone, every allocation made since
// before they were built is freed again.
TEST(ServerAllocations, DroppedCompressTicketsFreeTheirArenas) {
  const uint64_t live_before = g_news.load() - g_deletes.load();
  {
    SaturatedServer s(RequestKind::kCompress, CacheMode::kOff);
    s.fire_and_forget(200);  // 200 batches of 512 blocks
    s.server().drain();
    EXPECT_EQ(s.server().inflight_blocks(), 0u);
  }  // ~CodecServer, then ~CodecEngine joins the workers
  const uint64_t live_after = g_news.load() - g_deletes.load();
  EXPECT_LE(live_after, live_before + 16)
      << "live allocations grew by " << live_after - live_before;
}

}  // namespace
}  // namespace slc
