#include "util/env.h"

#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace subfed {

namespace {

// The single source of truth for every environment knob. tests/test_device.cpp
// asserts the README "Environment knobs" table against this list (documented
// entries only), in both directions.
const std::vector<EnvKnob>& knob_table() {
  static const std::vector<EnvKnob> knobs = {
      {"SUBFEDAVG_LOG", "string", "`info`",
       "process log level: `error` | `warn` | `info` | `debug`"},
      {"SUBFEDAVG_TELEMETRY", "string", "`off`",
       "process telemetry level: `off` | `counters` | `trace` (spec field `telemetry=` "
       "overrides)"},
      {"SUBFEDAVG_BACKEND", "string", "`blocked`",
       "process-default compute device: `naive` | `blocked`"},
      {"SUBFEDAVG_MATH_THREADS", "int", "hardware",
       "row-panel thread cap for the blocked kernels (bit-identical at any value)"},
      {"SUBFEDAVG_THREADS", "int", "hardware", "global thread-pool size"},
      {"SUBFEDAVG_BENCH_CLIENTS", "int", "`20`", "bench population (paper: 100)"},
      {"SUBFEDAVG_BENCH_SHARD", "int", "`50`", "bench shard size (paper: 250/125)"},
      {"SUBFEDAVG_BENCH_ROUNDS", "int", "per-bench",
       "communication rounds (paper: 300\xE2\x80\x93""500)"},
      {"SUBFEDAVG_BENCH_SAMPLE", "double", "`0.3`", "client sampling rate (paper: 0.1)"},
      {"SUBFEDAVG_BENCH_EPOCHS", "int", "`5`", "local epochs"},
      {"SUBFEDAVG_BENCH_TPC", "int", "`16`", "test images per class"},
      {"SUBFEDAVG_BENCH_SEED", "int", "`1`", "master seed"},
      {"SUBFEDAVG_BENCH_SEEDS", "int", "`1`",
       "seeds per configuration (>1 reports mean\xC2\xB1std)"},
      {"SUBFEDAVG_BENCH_JOBS", "int", "hardware", "sweep worker threads inside benches"},
      {"SUBFEDAVG_BENCH_OUT", "string", "none", "per-run JSON directory"},
      {"SUBFEDAVG_BENCH_PRUNE_STEP", "double", "`0` (= spec default)",
       "pruning step override for the benches"},
      {"SUBFEDAVG_BENCH_LINK_SPREADS", "string", "`1,4,8`",
       "straggler-severity grid for `bench_async`"},
      {"SUBFEDAVG_BENCH_BUFFER_K", "int", "3/5 of sampled",
       "buffered close count for `bench_async`"},
      {"SUBFEDAVG_BENCH_COMM_JSON", "string", "none",
       "write `bench_comm_time`'s grid as `BENCH_comm.json`"},
      {"SUBFEDAVG_BENCH_ASYNC_JSON", "string", "none",
       "write `bench_async`'s grid as `BENCH_async.json`"},
      {"SUBFEDAVG_BENCH_SCALE_JSON", "string", "none",
       "write `bench_scale`'s cells as `BENCH_scale.json`"},
      {"SUBFEDAVG_BENCH_TELEMETRY_JSON", "string", "none",
       "write `bench_telemetry`'s result as `BENCH_telemetry.json`"},
      {"SUBFEDAVG_BENCH_TELEMETRY_REPS", "int", "`3`",
       "repetitions per mode in `bench_telemetry` (min is reported)"},
      {"SUBFEDAVG_SCALE_CLIENTS", "int", "`100000`", "`bench_scale`'s largest population"},
      {"SUBFEDAVG_SCALE_ROUNDS", "int", "`3`", "timed rounds per `bench_scale` cell"},
      {"SUBFEDAVG_SCALE_CACHE", "int", "`64`",
       "`client_cache` for `bench_scale`'s lazy cells"},
      {"SUBFEDAVG_SCALE_COHORT", "int", "`8`",
       "sampled clients per round in `bench_scale`"},
      // Test-only scratch name exercised by tests/test_util.cpp; never read by
      // library code and deliberately absent from the README.
      {"SUBFEDAVG_TEST_ENV", "string", "none", "test-only scratch knob",
       /*documented=*/false},
  };
  return knobs;
}

/// A raw getenv gated on registration: new knobs must be added to the table
/// above (and, unless test-only, to the README) before they can be read.
const char* knob_value(const char* name) {
  bool registered = false;
  for (const EnvKnob& knob : knob_table()) {
    if (std::strcmp(knob.name, name) == 0) {
      registered = true;
      break;
    }
  }
  SUBFEDAVG_CHECK(registered, "env var '" << name
                                          << "' is not in util/env.cpp's knob table");
  return std::getenv(name);
}

}  // namespace

const std::vector<EnvKnob>& list_env_knobs() { return knob_table(); }

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* value = knob_value(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<std::int64_t>(parsed);
}

double env_double(const char* name, double fallback) {
  const char* value = knob_value(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value) return fallback;
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = knob_value(name);
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

}  // namespace subfed
