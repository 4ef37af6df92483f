#include "telemetry/trace.h"

#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <pthread.h>
#include <sstream>

#include "util/check.h"

namespace subfed::telemetry {

namespace {

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t to_us(std::chrono::steady_clock::time_point t) noexcept {
  const auto d = std::chrono::duration_cast<std::chrono::microseconds>(t - trace_epoch());
  return d.count() > 0 ? static_cast<std::uint64_t>(d.count()) : 0;
}

/// Per-thread span buffer. The producing thread appends under the buffer's
/// own (uncontended) mutex; drain_spans steals the contents from any thread.
struct SpanBuffer {
  std::mutex mutex;
  std::vector<Span> spans;
};

std::mutex& buffers_mutex() {
  static std::mutex m;
  return m;
}

/// shared_ptr ownership: the registry keeps a buffer alive after its thread
/// exited, so late drains still see every span.
std::vector<std::shared_ptr<SpanBuffer>>& buffers() {
  static std::vector<std::shared_ptr<SpanBuffer>> b;
  return b;
}

std::uint64_t this_thread_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

SpanBuffer& this_thread_buffer() {
  thread_local std::shared_ptr<SpanBuffer> buffer = [] {
    auto b = std::make_shared<SpanBuffer>();
    std::lock_guard<std::mutex> lock(buffers_mutex());
    buffers().push_back(b);
    return b;
  }();
  return *buffer;
}

// A fork() landing while another thread drains spans (or registers its
// buffer) would leave the child blocked in record_span(): hold the buffer list
// and every buffer, in drain_spans' order, across the fork.
void lock_buffers_for_fork() noexcept {
  buffers_mutex().lock();
  for (const std::shared_ptr<SpanBuffer>& buffer : buffers()) buffer->mutex.lock();
}

void unlock_buffers_after_fork() noexcept {
  for (const std::shared_ptr<SpanBuffer>& buffer : buffers()) buffer->mutex.unlock();
  buffers_mutex().unlock();
}

[[maybe_unused]] const bool kBufferForkHandlers =
    ::pthread_atfork(&lock_buffers_for_fork, &unlock_buffers_after_fork,
                     &unlock_buffers_after_fork) == 0;

}  // namespace

std::uint64_t trace_now_us() noexcept { return to_us(std::chrono::steady_clock::now()); }

void record_span(const char* name, std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end) {
  if (!enabled(Level::kTrace)) return;
  Span span;
  span.name = name;
  span.start_us = to_us(start);
  const std::uint64_t end_us = to_us(end);
  span.dur_us = end_us > span.start_us ? end_us - span.start_us : 0;
  span.tid = this_thread_id();
  SpanBuffer& buffer = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(std::move(span));
}

void record_span(const char* name, const StopWatch& watch) {
  if (!watch.armed() || !enabled(Level::kTrace)) return;
  record_span(name, watch.start(), std::chrono::steady_clock::now());
}

ScopedSpan::~ScopedSpan() {
  if (start_ == std::chrono::steady_clock::time_point{}) return;
  const auto end = std::chrono::steady_clock::now();
  if (timer_ != nullptr) {
    timer_->add_seconds(std::chrono::duration<double>(end - start_).count());
  }
  if (enabled(Level::kTrace)) record_span(name_, start_, end);
}

std::vector<Span> drain_spans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(buffers_mutex());
  for (const std::shared_ptr<SpanBuffer>& buffer : buffers()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), std::make_move_iterator(buffer->spans.begin()),
               std::make_move_iterator(buffer->spans.end()));
    buffer->spans.clear();
  }
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const Span& span : spans) {
    os << (first ? "" : ",") << "\n  {\"name\": \"";
    for (const char c : span.name) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
    os << "\", \"ph\": \"X\", \"ts\": " << span.start_us << ", \"dur\": " << span.dur_us
       << ", \"pid\": 1, \"tid\": " << span.tid << "}";
    first = false;
  }
  os << (spans.empty() ? "]" : "\n]") << "}\n";
  return os.str();
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  SUBFEDAVG_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << chrome_trace_json(spans);
  out.flush();
  SUBFEDAVG_CHECK(out.good(), "failed writing '" << path << "'");
}

}  // namespace subfed::telemetry
