// Multi-stream server: the CodecServer front-end end to end.
//
// Three clients share one server (and its engine pool):
//   * "sweep"   — a bulk E2MC stream batching large analyze requests (the
//                 fig-ratio style offline workload), priority kBulk;
//   * "commits" — a latency-sensitive TSLC-OPT stream of small commit-sized
//                 requests, priority kLatency: its batches preempt the bulk
//                 backlog at shard granularity;
//   * "probe"   — a BDI stream showing per-stream codec isolation.
//
// Each stream keeps its own registry-selected codec, error budget
// (threshold_bytes) and stats; requests coalesce into engine-sized batches;
// drain() is the barrier. All three streams opt into the engine's shared
// fingerprint memo (CacheMode::kShared), so the commits client's retry
// resubmission dedups against its first copy. The commits client also shows
// the typed Request surface: a kCompress request returning real payloads
// under a deadline, and a kReject stream shedding at saturation. The final
// table prints per-stream CommitStats, the memo hit and bypass rates,
// latency percentiles, and the rejected/deadline-miss counters.
//
// Build & run:   cmake -B build && cmake --build build
//                ./build/examples/multi_stream_server
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "server/codec_server.h"

using namespace slc;

namespace {

// Value-similar quantized floats — the data shape GPU workloads move.
std::vector<uint8_t> make_stream(uint64_t seed, size_t blocks) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 20.0;
  for (size_t i = 0; i < blocks * kBlockBytes / 4; ++i) {
    walk += rng.uniform(-1.0, 1.0);
    const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
    uint32_t bits;
    __builtin_memcpy(&bits, &v, sizeof bits);
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return data;
}

}  // namespace

int main() {
  // One shared training sample stands in for the per-benchmark E2MC online
  // sampling window; every stream picks its codec by registry name.
  const auto training = make_stream(1, 256);
  CodecOptions opts;
  opts.mag_bytes = 32;
  opts.threshold_bytes = 16;  // the streams' lossy error budget
  opts.training_data = training;
  opts.e2mc.sample_fraction = 1.0;

  CodecServer::Config cfg;
  cfg.engine = std::make_shared<CodecEngine>();
  cfg.batch_blocks = 64;         // coalesce small requests up to this
  cfg.max_inflight_blocks = 512; // backpressure budget
  CodecServer server(cfg);
  std::printf("server: %u engine worker(s), batch %zu blocks, budget %zu blocks\n\n",
              server.engine().num_threads(), cfg.batch_blocks, cfg.max_inflight_blocks);

  StreamConfig sweep{"sweep", "E2MC", opts, StreamPriority::kBulk};
  StreamConfig commits{"commits", "TSLC-OPT", opts, StreamPriority::kLatency};
  StreamConfig probe{"probe", "BDI", CodecOptions{.mag_bytes = 32}, StreamPriority::kNormal};
  // Opt every stream into the engine-wide fingerprint memo: repeated block
  // content skips the Fig. 4 probe and shows up in the hit-rate column.
  sweep.cache_mode = CacheMode::kShared;
  commits.cache_mode = CacheMode::kShared;
  probe.cache_mode = CacheMode::kShared;
  // The probe stream sheds rather than queues when the budget saturates —
  // the policy a best-effort diagnostic client wants.
  probe.admission = AdmissionPolicy::kReject;
  const StreamId s_sweep = server.open_stream(sweep);
  const StreamId s_commits = server.open_stream(commits);
  const StreamId s_probe = server.open_stream(probe);

  // Bulk client: eight large requests, fire-and-forget (tickets dropped —
  // the in-flight budget still retires through batch completion).
  for (uint64_t i = 0; i < 8; ++i) {
    const auto bulk = make_stream(10 + i, 96);
    server.submit(s_sweep, Request{.bytes = bulk});
  }

  // Latency client: small requests, each waited synchronously. With
  // kLatency priority these preempt the sweep backlog instead of queueing
  // behind it. Each payload is committed twice (a retry pattern): the
  // second copy's decisions come straight from the fingerprint memo.
  for (uint64_t i = 0; i < 4; ++i) {
    const auto payload = make_stream(30 + i, 8);
    server.submit(s_commits, Request{.bytes = payload}).wait();
    auto ticket = server.submit(s_commits, Request{.bytes = payload, .tag = i});
    const Response res = ticket.wait();
    std::printf("commit %llu (retry): %zu blocks, %llu lossy, effective ratio %.3f\n",
                static_cast<unsigned long long>(res.tag), res.analysis.blocks.size(),
                static_cast<unsigned long long>(res.analysis.lossy_blocks),
                res.analysis.ratios.effective_ratio());
  }

  // Compress client: the same stream can ask for real payloads. A deadline
  // arms the server's flush timer, so the partial batch dispatches within
  // the budget even if no later submit pushes it out.
  {
    const auto payload = make_stream(40, 8);
    auto ticket = server.submit(
        s_commits, Request{.kind = RequestKind::kCompress,
                           .bytes = payload,
                           .deadline = std::chrono::milliseconds(5)});
    const Response res = ticket.wait();
    size_t payload_bits = 0;
    for (const CompressedBlock& cb : res.payloads) payload_bits += cb.bit_size;
    std::printf("\ncompress under 5 ms deadline: %zu payloads, %zu bits total%s\n",
                res.payloads.size(), payload_bits,
                res.deadline_missed ? " (deadline missed)" : "");
  }

  // Probe client: a ticket can be polled before it is waited, and a shed
  // request reports kRejected instead of blocking the caller.
  auto probe_ticket = server.submit(s_probe, Request{.bytes = make_stream(50, 24)});
  std::printf("probe ready before wait: %s (still coalescing until waited/flushed)\n",
              probe_ticket.ready() ? "yes" : "no");
  const Response probe_res = probe_ticket.wait();
  if (probe_res.status == ResponseStatus::kRejected) {
    std::printf("probe: shed at admission (budget saturated)\n");
  } else {
    std::printf("probe: %zu blocks through BDI, raw ratio %.3f\n",
                probe_res.analysis.blocks.size(), probe_res.analysis.ratios.raw_ratio());
  }

  // Barrier, then per-stream + aggregate accounting.
  server.drain();
  TextTable t({"Stream", "Requests", "Rejected", "Misses", "Batches", "Blocks", "Lossy",
               "Avg bursts", "Memo hits", "Bypassed", "p50 (us)", "p99 (us)"});
  for (const StreamId s : {s_sweep, s_commits, s_probe}) {
    const StreamStats st = server.stream_stats(s);
    t.add_row({server.stream_name(s), std::to_string(st.requests), std::to_string(st.rejected),
               std::to_string(st.deadline_misses), std::to_string(st.batches),
               std::to_string(st.commit.blocks), std::to_string(st.commit.lossy_blocks),
               TextTable::fmt(st.commit.avg_bursts(), 2),
               TextTable::fmt(st.commit.cache.hit_rate() * 100.0, 1) + "%",
               TextTable::fmt(st.commit.cache.bypass_rate() * 100.0, 1) + "%",
               TextTable::fmt(st.latency.percentile(50) * 1e6, 0),
               TextTable::fmt(st.latency.percentile(99) * 1e6, 0)});
  }
  const StreamStats agg = server.aggregate_stats();
  t.add_row({"<all>", std::to_string(agg.requests), std::to_string(agg.rejected),
             std::to_string(agg.deadline_misses), std::to_string(agg.batches),
             std::to_string(agg.commit.blocks), std::to_string(agg.commit.lossy_blocks),
             TextTable::fmt(agg.commit.avg_bursts(), 2),
             TextTable::fmt(agg.commit.cache.hit_rate() * 100.0, 1) + "%",
             TextTable::fmt(agg.commit.cache.bypass_rate() * 100.0, 1) + "%",
             TextTable::fmt(agg.latency.percentile(50) * 1e6, 0),
             TextTable::fmt(agg.latency.percentile(99) * 1e6, 0)});
  std::printf("\n%s", t.to_string().c_str());
  return 0;
}
