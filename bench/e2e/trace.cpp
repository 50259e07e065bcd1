#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common/thread_safety.h"

namespace slc::e2e::trace {

namespace {

std::atomic<bool> g_enabled{false};

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// One thread's spans. Only the owning thread appends; collect() reads under
/// the buffer mutex, so a thread that is still alive may keep recording.
struct ThreadBuffer {
  uint32_t tid = 0;
  Mutex m;
  std::vector<Record> records SLC_GUARDED_BY(m);
  std::vector<size_t> open;  ///< owning thread only: indices of open spans
};

/// Buffers outlive their threads (engine workers come and go per serving
/// point), so the registry owns them.
struct Registry {
  Mutex m;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers SLC_GUARDED_BY(m);
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    Registry& r = registry();
    MutexLock lk(r.m);
    owned->tid = static_cast<uint32_t>(r.buffers.size());
    buf = owned.get();
    r.buffers.push_back(std::move(owned));
  }
  return *buf;
}

uint64_t span_id(uint32_t tid, size_t slot) {
  return (uint64_t{tid} + 1) << 40 | (static_cast<uint64_t>(slot) + 1);
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

int64_t now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              t0)
      .count();
}

Span::Span(const char* name, uint64_t request) {
  if (!enabled()) return;
  ThreadBuffer& b = local_buffer();
  Record r;
  r.name = name;
  r.start_ns = now_ns();
  r.tid = b.tid;
  r.request = request;
  r.parent = b.open.empty() ? 0 : span_id(b.tid, b.open.back());
  MutexLock lk(b.m);
  slot_ = b.records.size();
  r.id = span_id(b.tid, slot_);
  b.records.push_back(r);
  b.open.push_back(slot_);
}

Span::~Span() {
  if (slot_ == SIZE_MAX) return;
  const int64_t end = now_ns();
  ThreadBuffer& b = local_buffer();
  MutexLock lk(b.m);
  b.records[slot_].end_ns = end;
  b.open.pop_back();
}

std::vector<Record> collect() {
  std::vector<Record> out;
  Registry& r = registry();
  MutexLock lk(r.m);
  for (const auto& buf : r.buffers) {
    MutexLock blk(buf->m);
    for (const Record& rec : buf->records)
      if (rec.end_ns != 0) out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.start_ns < b.start_ns; });
  return out;
}

std::map<std::string, double> self_seconds(const std::vector<Record>& spans, int64_t from_ns,
                                           int64_t to_ns) {
  std::unordered_map<uint64_t, size_t> index;
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].start_ns < from_ns || spans[i].start_ns >= to_ns) continue;
    index[spans[i].id] = i;
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].start_ns < from_ns || spans[i].start_ns >= to_ns) continue;
    auto parent = index.find(spans[i].parent);
    if (parent != index.end()) self[parent->second] -= spans[i].end_ns - spans[i].start_ns;
  }
  std::map<std::string, double> out;
  for (const auto& [id, i] : index) out[layer_of(spans[i].name)] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

std::vector<double> durations(const std::vector<Record>& spans, const char* name,
                              int64_t from_ns, int64_t to_ns) {
  const std::string want(name);
  std::vector<double> out;
  for (const Record& r : spans) {
    if (r.start_ns < from_ns || r.start_ns >= to_ns || want != r.name) continue;
    out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
  }
  return out;
}

bool write_chrome_json(const std::string& path, const std::vector<Record>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Record& r = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu}}%s\n",
                 r.name, layer_of(r.name).c_str(), r.tid, static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                 static_cast<unsigned long long>(r.id), static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request), i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

void CallCounter::add(uint64_t blocks, int64_t busy_ns) {
  Slot& s = slots_[local_buffer().tid % slots_.size()];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.blocks.fetch_add(blocks, std::memory_order_relaxed);
  s.busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
}

CallTotals CallCounter::totals() const {
  CallTotals t;
  for (const Slot& s : slots_) {
    t.calls += s.calls.load(std::memory_order_relaxed);
    t.blocks += s.blocks.load(std::memory_order_relaxed);
    t.busy_ns += s.busy_ns.load(std::memory_order_relaxed);
  }
  return t;
}

void CallCounter::reset() {
  for (Slot& s : slots_) {
    s.calls.store(0, std::memory_order_relaxed);
    s.blocks.store(0, std::memory_order_relaxed);
    s.busy_ns.store(0, std::memory_order_relaxed);
  }
}

}  // namespace slc::e2e::trace
