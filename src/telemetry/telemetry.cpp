#include "telemetry/telemetry.h"

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <pthread.h>
#include <sstream>

#include "util/check.h"
#include "util/env.h"

namespace subfed::telemetry {

namespace {

int initial_level() {
  const std::string name = env_string("SUBFEDAVG_TELEMETRY", "off");
  if (name == "counters") return static_cast<int>(Level::kCounters);
  if (name == "trace") return static_cast<int>(Level::kTrace);
  return static_cast<int>(Level::kOff);  // unknown env values stay silent-off
}

std::atomic<int>& level_cell() noexcept {
  static std::atomic<int> cell{initial_level()};
  return cell;
}

/// One registry per instrument kind: name → heap-allocated instrument that is
/// never destroyed while the map lives, so references handed out stay stable.
template <typename T>
class Registry {
 public:
  T& get(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<T>& slot = entries_[name];
    if (!slot) slot = std::make_unique<T>();
    return *slot;
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, instrument] : entries_) fn(name, *instrument);
  }

  /// Held across fork() by the handlers below.
  std::mutex& mutex() noexcept { return mutex_; }

 private:
  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<T>> entries_;
};

Registry<Counter>& counters() {
  static Registry<Counter> r;
  return r;
}
Registry<Gauge>& gauges() {
  static Registry<Gauge> r;
  return r;
}
Registry<Histogram>& histograms() {
  static Registry<Histogram> r;
  return r;
}
Registry<Timer>& timers() {
  static Registry<Timer> r;
  return r;
}

// A fork() landing while another thread registers an instrument would leave
// the single-threaded child blocked in counter()/timer(): hold every registry
// mutex across the fork and release it on both sides.
void lock_registries_for_fork() noexcept {
  counters().mutex().lock();
  gauges().mutex().lock();
  histograms().mutex().lock();
  timers().mutex().lock();
}

void unlock_registries_after_fork() noexcept {
  timers().mutex().unlock();
  histograms().mutex().unlock();
  gauges().mutex().unlock();
  counters().mutex().unlock();
}

[[maybe_unused]] const bool kRegistryForkHandlers =
    ::pthread_atfork(&lock_registries_for_fork, &unlock_registries_after_fork,
                     &unlock_registries_after_fork) == 0;

void append_json_name(std::ostringstream& os, const std::string& name) {
  os << '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

Level level() noexcept {
  return static_cast<Level>(level_cell().load(std::memory_order_relaxed));
}

void set_level(Level level) noexcept {
  level_cell().store(static_cast<int>(level), std::memory_order_relaxed);
}

bool enabled(Level at_least) noexcept {
  return level_cell().load(std::memory_order_relaxed) >= static_cast<int>(at_least);
}

Level parse_level(const std::string& name) {
  if (name == "off") return Level::kOff;
  if (name == "counters") return Level::kCounters;
  if (name == "trace") return Level::kTrace;
  SUBFEDAVG_CHECK(false, "unknown telemetry level '" << name << "' (off | counters | trace)");
  return Level::kOff;
}

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kCounters: return "counters";
    case Level::kTrace: return "trace";
  }
  return "off";
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter& counter(const std::string& name) { return counters().get(name); }
Gauge& gauge(const std::string& name) { return gauges().get(name); }
Histogram& histogram(const std::string& name) { return histograms().get(name); }
Timer& timer(const std::string& name) { return timers().get(name); }

std::string metrics_json() {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"telemetry_level\": \"" << level_name(level()) << "\"";
  counters().for_each([&](const std::string& name, Counter& c) {
    os << ",\n  ";
    append_json_name(os, name);
    os << ": " << c.value();
  });
  gauges().for_each([&](const std::string& name, Gauge& g) {
    os << ",\n  ";
    append_json_name(os, name);
    os << ": " << g.value();
  });
  timers().for_each([&](const std::string& name, Timer& t) {
    os << ",\n  ";
    append_json_name(os, name);
    os << ": {\"seconds\": " << t.total_seconds() << ", \"count\": " << t.count() << "}";
  });
  histograms().for_each([&](const std::string& name, Histogram& h) {
    os << ",\n  ";
    append_json_name(os, name);
    os << ": {\"count\": " << h.count() << ", \"sum\": " << h.sum() << ", \"buckets\": {";
    bool first = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h.bucket(b);
      if (n == 0) continue;
      os << (first ? "" : ", ") << "\"2^" << b << "\": " << n;
      first = false;
    }
    os << "}}";
  });
  os << "\n}\n";
  return os.str();
}

void reset_all() {
  counters().for_each([](const std::string&, Counter& c) { c.reset(); });
  gauges().for_each([](const std::string&, Gauge& g) { g.reset(); });
  histograms().for_each([](const std::string&, Histogram& h) { h.reset(); });
  timers().for_each([](const std::string&, Timer& t) { t.reset(); });
}

}  // namespace subfed::telemetry
