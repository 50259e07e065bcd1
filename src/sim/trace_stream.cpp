#include "sim/trace_stream.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace slc {

bool TraceStream::push(std::shared_ptr<const KernelTrace> chunk) {
  {
    MutexLock lk(m_);
    while (budget_ != 0 && q_.size() >= budget_ && !cancelled_ && !closed_) can_push_.wait(m_);
    if (closed_) throw std::logic_error("TraceStream::push after close");
    if (cancelled_) return false;  // consumer gone; the chunk is dropped
    queued_accesses_ += chunk->accesses.size();
    q_.push_back(std::move(chunk));
    chunk_hwm_ = std::max(chunk_hwm_, q_.size());
    access_hwm_ = std::max(access_hwm_, queued_accesses_);
  }
  can_pop_.notify_one();
  return true;
}

void TraceStream::close() {
  {
    MutexLock lk(m_);
    closed_ = true;
  }
  // Wake consumers (end of stream) and any producer parked on backpressure
  // while another closed — it throws the push-after-close error instead of
  // hanging.
  can_pop_.notify_all();
  can_push_.notify_all();
}

std::shared_ptr<const KernelTrace> TraceStream::pop() {
  std::shared_ptr<const KernelTrace> chunk;
  {
    MutexLock lk(m_);
    while (q_.empty() && !closed_ && !cancelled_) can_pop_.wait(m_);
    if (cancelled_ || q_.empty()) return nullptr;  // cancelled, or closed and drained
    chunk = std::move(q_.front());
    q_.pop_front();
    queued_accesses_ -= chunk->accesses.size();
  }
  can_push_.notify_one();
  return chunk;
}

void TraceStream::cancel() {
  {
    MutexLock lk(m_);
    cancelled_ = true;
    q_.clear();
    queued_accesses_ = 0;
  }
  can_push_.notify_all();
  can_pop_.notify_all();
}

size_t TraceStream::chunk_high_water() const {
  MutexLock lk(m_);
  return chunk_hwm_;
}

uint64_t TraceStream::access_high_water() const {
  MutexLock lk(m_);
  return access_hwm_;
}

}  // namespace slc
