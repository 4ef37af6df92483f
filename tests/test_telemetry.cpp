// Telemetry subsystem: level-gated instruments, the metrics JSON snapshot,
// trace spans + the Chrome exporter, the append-only rotating event log with
// durable cursors, arrival-trace replay determinism, the new spec validation
// rules, and the BENCH_*.json baseline manifests round-tripping through the
// util/json parser.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/subfedavg_client.h"
#include "data/client_data.h"
#include "fl/experiment.h"
#include "serve/session.h"
#include "telemetry/event_log.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"

namespace subfed {
namespace {

/// Every test pins the process-wide level on entry and restores kOff on exit,
/// so test order never leaks a level into the bit-identity expectations.
struct LevelGuard {
  explicit LevelGuard(telemetry::Level level) { telemetry::set_level(level); }
  ~LevelGuard() { telemetry::set_level(telemetry::Level::kOff); }
};

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/subfed_telemetry_" + name;
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  SUBFEDAVG_CHECK(in.good(), "cannot read " << path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return text;
}

// ---------------------------------------------------------------------------
// Instruments and the level gate

TEST(Telemetry, OffLevelRecordsNothing) {
  LevelGuard guard(telemetry::Level::kOff);
  telemetry::reset_all();
  telemetry::Counter& c = telemetry::counter("test.off_counter");
  telemetry::Gauge& g = telemetry::gauge("test.off_gauge");
  telemetry::Histogram& h = telemetry::histogram("test.off_hist");
  telemetry::Timer& t = telemetry::timer("test.off_timer");
  c.add(5);
  g.set(42);
  h.record(1024);
  t.add_seconds(1.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(t.count(), 0u);

  const telemetry::StopWatch watch;
  EXPECT_FALSE(watch.armed());
  EXPECT_EQ(watch.seconds(), 0.0);
}

TEST(Telemetry, CountersLevelRecords) {
  LevelGuard guard(telemetry::Level::kCounters);
  telemetry::reset_all();
  telemetry::Counter& c = telemetry::counter("test.on_counter");
  telemetry::Gauge& g = telemetry::gauge("test.on_gauge");
  telemetry::Histogram& h = telemetry::histogram("test.on_hist");
  telemetry::Timer& t = telemetry::timer("test.on_timer");
  c.add();
  c.add(4);
  g.set(10);
  g.add(-3);
  h.record(0);
  h.record(1);
  h.record(1024);
  h.record(1500);
  t.add_seconds(0.25);
  t.add_seconds(0.5);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 0u + 1u + 1024u + 1500u);
  EXPECT_EQ(h.bucket(0), 2u);   // 0 and 1 both land in bucket 0
  EXPECT_EQ(h.bucket(10), 2u);  // 1024 and 1500: floor(log2) == 10
  EXPECT_EQ(t.count(), 2u);
  EXPECT_NEAR(t.total_seconds(), 0.75, 1e-6);

  const telemetry::StopWatch watch;
  EXPECT_TRUE(watch.armed());
  EXPECT_GE(watch.seconds(), 0.0);

  // The registry returns the same instrument for the same name.
  EXPECT_EQ(&telemetry::counter("test.on_counter"), &c);
}

TEST(Telemetry, ParseLevelNamesAndErrors) {
  EXPECT_EQ(telemetry::parse_level("off"), telemetry::Level::kOff);
  EXPECT_EQ(telemetry::parse_level("counters"), telemetry::Level::kCounters);
  EXPECT_EQ(telemetry::parse_level("trace"), telemetry::Level::kTrace);
  EXPECT_THROW(telemetry::parse_level("verbose"), CheckError);
  EXPECT_STREQ(telemetry::level_name(telemetry::Level::kCounters), "counters");
}

TEST(Telemetry, MetricsJsonParsesAndCarriesEveryInstrumentShape) {
  LevelGuard guard(telemetry::Level::kCounters);
  telemetry::reset_all();
  telemetry::counter("test.json_counter").add(3);
  telemetry::gauge("test.json_gauge").set(-2);
  telemetry::histogram("test.json_hist").record(300);
  telemetry::timer("test.json_timer").add_seconds(0.1);

  const JsonValue snapshot = parse_json(telemetry::metrics_json());
  ASSERT_TRUE(snapshot.is_object());
  EXPECT_EQ(snapshot.string_or("telemetry_level", ""), "counters");
  EXPECT_EQ(snapshot.number_or("test.json_counter", -1.0), 3.0);
  EXPECT_EQ(snapshot.number_or("test.json_gauge", 0.0), -2.0);

  const JsonValue* timer = snapshot.find("test.json_timer");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->number_or("count", 0.0), 1.0);
  EXPECT_GT(timer->number_or("seconds", 0.0), 0.0);

  const JsonValue* hist = snapshot.find("test.json_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->number_or("count", 0.0), 1.0);
  EXPECT_EQ(hist->number_or("sum", 0.0), 300.0);
  const JsonValue* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(buckets->number_or("2^8", 0.0), 1.0);  // floor(log2(300)) == 8

  telemetry::reset_all();
  const JsonValue cleared = parse_json(telemetry::metrics_json());
  EXPECT_EQ(cleared.number_or("test.json_counter", -1.0), 0.0);
}

// ---------------------------------------------------------------------------
// Trace spans + Chrome exporter

TEST(Telemetry, SpansRecordOnlyAtTraceLevel) {
  {
    LevelGuard guard(telemetry::Level::kCounters);
    telemetry::drain_spans();  // clear anything earlier tests buffered
    { telemetry::ScopedSpan span("below_trace"); }
    EXPECT_TRUE(telemetry::drain_spans().empty());
  }
  {
    LevelGuard guard(telemetry::Level::kTrace);
    { telemetry::ScopedSpan span("at_trace"); }
    const std::vector<telemetry::Span> spans = telemetry::drain_spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "at_trace");
    EXPECT_GT(spans[0].tid, 0u);
    // Draining stole the buffer: a second drain is empty.
    EXPECT_TRUE(telemetry::drain_spans().empty());
  }
}

TEST(Telemetry, ChromeTraceJsonEscapesAndParses) {
  std::vector<telemetry::Span> spans;
  spans.push_back({"quote\"back\\slash", 10, 5, 1});
  spans.push_back({"plain", 20, 0, 2});
  const JsonValue doc = parse_json(telemetry::chrome_trace_json(spans));
  ASSERT_TRUE(doc.is_object());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].string_or("name", ""), "quote\"back\\slash");
  EXPECT_EQ(events->array[0].string_or("ph", ""), "X");
  EXPECT_EQ(events->array[1].number_or("ts", -1.0), 20.0);

  EXPECT_TRUE(parse_json(telemetry::chrome_trace_json({})).is_object());
}

// ---------------------------------------------------------------------------
// EventLog: rotation, cursor paging, durable reopen

TEST(EventLog, AppendsAndPagesWholeLines) {
  const std::string path = fresh_path("basic.jsonl");
  telemetry::EventLog log(path, 1 << 20);
  const std::uint64_t header_end = log.end_cursor();
  EXPECT_GT(header_end, 0u);  // the log_open header is already in

  for (int i = 0; i < 10; ++i) {
    log.append("{\"event\": \"round\", \"round\": " + std::to_string(i) + "}");
  }

  // Page from 0 with a max_bytes that forces several pages; every chunk must
  // be whole lines and every line valid JSON.
  std::uint64_t cursor = 0;
  std::vector<std::string> lines;
  while (cursor < log.end_cursor()) {
    std::uint64_t next = cursor;
    const std::string chunk = log.tail(cursor, 96, &next);
    ASSERT_GT(next, cursor) << "tail must make progress";
    ASSERT_FALSE(chunk.empty());
    EXPECT_EQ(chunk.back(), '\n');
    std::size_t start = 0;
    while (start < chunk.size()) {
      const std::size_t end = chunk.find('\n', start);
      ASSERT_NE(end, std::string::npos);
      lines.push_back(chunk.substr(start, end - start));
      EXPECT_NO_THROW(parse_json(lines.back()));
      start = end + 1;
    }
    cursor = next;
  }
  ASSERT_EQ(lines.size(), 11u);  // header + 10 records
  EXPECT_EQ(parse_json(lines[0]).string_or("event", ""), "log_open");
  EXPECT_EQ(parse_json(lines[10]).number_or("round", -1.0), 9.0);

  // Caught up: empty chunk, cursor unchanged.
  std::uint64_t next = 0;
  EXPECT_TRUE(log.tail(cursor, 4096, &next).empty());
  EXPECT_EQ(next, cursor);

  std::filesystem::remove(path);
}

TEST(EventLog, RotationKeepsTwoGenerationsAndClampsStaleCursors) {
  const std::string path = fresh_path("rotate.jsonl");
  telemetry::EventLog log(path, 512);  // the minimum: rotates every few records
  const std::string filler(80, 'x');
  for (int i = 0; i < 40; ++i) {
    log.append("{\"round\": " + std::to_string(i) + ", \"pad\": \"" + filler + "\"}");
  }
  ASSERT_TRUE(std::filesystem::exists(log.rotated_path()));

  // A cursor pointing at rotated-away bytes clamps forward to the oldest
  // retained byte — the start of path.1, whose first line is its header.
  std::uint64_t next = 0;
  const std::string chunk = log.tail(0, 1 << 20, &next);
  ASSERT_FALSE(chunk.empty());
  EXPECT_GT(next, 0u);
  const std::string first_line = chunk.substr(0, chunk.find('\n'));
  const JsonValue header = parse_json(first_line);
  EXPECT_EQ(header.string_or("event", ""), "log_open");
  EXPECT_GT(header.number_or("base", -1.0), 0.0);

  // Paging from the clamped position reaches the live end and includes the
  // most recent record.
  std::uint64_t cursor = next - chunk.size();  // = clamped start
  std::string all;
  while (cursor < log.end_cursor()) {
    std::uint64_t n = cursor;
    const std::string c = log.tail(cursor, 4096, &n);
    ASSERT_GT(n, cursor);
    all += c;
    cursor = n;
  }
  EXPECT_NE(all.find("\"round\": 39"), std::string::npos);

  // A cursor past the end is clamped back: empty chunk, next == end.
  std::uint64_t clamped = 0;
  EXPECT_TRUE(log.tail(log.end_cursor() + 1000, 4096, &clamped).empty());
  EXPECT_EQ(clamped, log.end_cursor());

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
}

TEST(EventLog, ReopenRecoversLogicalPositionAcrossKill) {
  const std::string path = fresh_path("reopen.jsonl");
  std::uint64_t saved_cursor = 0;
  {
    telemetry::EventLog log(path, 1 << 20);
    log.append("{\"life\": 1, \"round\": 1}");
    log.append("{\"life\": 1, \"round\": 2}");
    saved_cursor = log.end_cursor();
  }  // destructor — but a kill -9 leaves the same bytes, since appends flush
  {
    telemetry::EventLog log(path, 1 << 20);
    EXPECT_EQ(log.end_cursor(), saved_cursor) << "reopen must recover the logical offset";
    log.append("{\"life\": 2, \"round\": 3}");

    // A reader holding the pre-restart cursor sees exactly the new records.
    std::uint64_t next = 0;
    const std::string chunk = log.tail(saved_cursor, 4096, &next);
    EXPECT_EQ(chunk, "{\"life\": 2, \"round\": 3}\n");
    EXPECT_EQ(next, log.end_cursor());

    // And a reader from 0 replays both lives (nothing rotated away here).
    std::uint64_t n2 = 0;
    const std::string all = log.tail(0, 1 << 20, &n2);
    EXPECT_NE(all.find("\"life\": 1, \"round\": 1"), std::string::npos);
    EXPECT_NE(all.find("\"life\": 2, \"round\": 3"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(EventLog, RejectsBadConstructionAndMultilineRecords) {
  EXPECT_THROW(telemetry::EventLog("", 1024), CheckError);
  EXPECT_THROW(telemetry::EventLog(fresh_path("tiny.jsonl"), 100), CheckError);
  const std::string path = fresh_path("oneline.jsonl");
  telemetry::EventLog log(path, 1024);
  EXPECT_THROW(log.append("{\"a\": 1}\n{\"b\": 2}"), CheckError);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Round-phase trace through a real (loopback) federation

TEST(TelemetryIntegration, LoopbackSessionEmitsAllSixRoundPhases) {
  set_log_level(LogLevel::kWarn);
  LevelGuard guard(telemetry::Level::kTrace);
  telemetry::drain_spans();

  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 25;
  spec.test_per_class = 8;
  spec.rounds = 2;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.seed = 17;
  spec.algo = "fedavg";
  spec.transport = "loopback";  // materialized path: encode/exchange/collect
  spec.telemetry = "trace";

  std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
  while (session->round() < spec.rounds) session->advance_round();
  session->evaluate();

  const FederationSession::RoundPhases& last = session->last_phases();
  EXPECT_GT(last.transport_exchange, 0.0);
  EXPECT_GT(last.eval, 0.0);
  const FederationSession::RoundPhases& totals = session->total_phases();
  EXPECT_GE(totals.sample, 0.0);
  EXPECT_GT(totals.broadcast_encode, 0.0);
  EXPECT_GT(totals.transport_exchange, 0.0);
  EXPECT_GT(totals.collect, 0.0);

  const std::vector<telemetry::Span> spans = telemetry::drain_spans();
  const std::string trace = telemetry::chrome_trace_json(spans);
  for (const char* phase : {"sample", "broadcast_encode", "transport_exchange", "collect",
                            "aggregate", "eval"}) {
    EXPECT_NE(trace.find("\"name\": \"" + std::string(phase) + "\""), std::string::npos)
        << "missing phase span: " << phase;
  }

  // The exporter's file form loads as JSON with a traceEvents array.
  const std::string path = fresh_path("trace.json");
  telemetry::write_chrome_trace(path, spans);
  const JsonValue doc = parse_json(read_file(path));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(events->array.size(), 6u);
  std::filesystem::remove(path);
}

TEST(TelemetryIntegration, CompactedForwardCountsHybridRoundsOnly) {
  set_log_level(LogLevel::kWarn);
  LevelGuard guard(telemetry::Level::kCounters);
  telemetry::Counter& compacted = telemetry::counter("nn.compacted_forward");

  // One Sub-FedAvg (Hy) client round with channels pruned: every conv
  // forward of its training and validation passes runs compacted.
  FederatedDataConfig config;
  config.partition = {2, 2, 20};
  config.test_per_class = 4;
  config.seed = 5;
  const FederatedData data(DatasetSpec::mnist(), config);
  const ModelSpec model_spec = ModelSpec::cnn5(10);
  SubFedAvgConfig hybrid;
  hybrid.hybrid = true;
  hybrid.train = {/*epochs=*/1, /*batch=*/10};
  SubFedAvgClient client(0, model_spec, hybrid, &data.client(0), Rng(6));
  Rng init(7);
  const StateDict global = model_spec.build_init(init).state();
  ChannelMask channels = client.channel_mask();
  channels.block(0)[3] = 0;
  channels.block(1)[0] = 0;
  client.restore(global, client.weight_mask(), channels);
  compacted.reset();
  client.run_round(global, 0);
  EXPECT_GT(compacted.value(), 0u);

  // One FedAvg round never sets a channel mask: nothing compacts.
  compacted.reset();
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 4;
  spec.shard = 20;
  spec.test_per_class = 4;
  spec.rounds = 1;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.seed = 8;
  spec.algo = "fedavg";
  spec.telemetry = "counters";
  std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
  session->advance_round();
  session->evaluate();
  EXPECT_EQ(compacted.value(), 0u);
}

// ---------------------------------------------------------------------------
// Arrival-trace replay

class CohortRecorder final : public RoundObserver {
 public:
  void on_round_begin(std::size_t round, std::span<const std::size_t> sampled) override {
    cohorts_.emplace_back(round, std::vector<std::size_t>(sampled.begin(), sampled.end()));
  }
  const std::vector<std::pair<std::size_t, std::vector<std::size_t>>>& cohorts() const {
    return cohorts_;
  }

 private:
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> cohorts_;
};

ExperimentSpec arrival_trace_spec(const std::string& trace_path) {
  set_log_level(LogLevel::kWarn);
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 25;
  spec.test_per_class = 8;
  spec.rounds = 4;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.seed = 17;
  spec.algo = "fedavg";
  spec.arrival_trace = trace_path;
  return spec;
}

TEST(ArrivalTrace, ReplaysDeterministicallyAndCapsPopulationAtLineCount) {
  const std::string trace_path = fresh_path("arrivals.txt");
  {
    std::ofstream out(trace_path);
    out << "# three arrivals over two simulated seconds\n"
        << "0.0\n"
        << "0.5\n"
        << "\n"
        << "2.0\n";
  }
  const ExperimentSpec spec = arrival_trace_spec(trace_path);

  CohortRecorder a_rec;
  CohortRecorder b_rec;
  std::unique_ptr<FederationSession> a = FederationSession::from_spec(spec);
  std::unique_ptr<FederationSession> b = FederationSession::from_spec(spec);
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    a->advance_round(&a_rec);
    b->advance_round(&b_rec);
  }

  // Two identical sessions replay the identical cohort sequence.
  ASSERT_EQ(a_rec.cohorts().size(), b_rec.cohorts().size());
  ASSERT_FALSE(a_rec.cohorts().empty());
  for (std::size_t i = 0; i < a_rec.cohorts().size(); ++i) {
    EXPECT_EQ(a_rec.cohorts()[i].first, b_rec.cohorts()[i].first);
    EXPECT_EQ(a_rec.cohorts()[i].second, b_rec.cohorts()[i].second);
  }

  // The population is capped at the trace's 3 timestamps — of 6 spec clients
  // only 3 ever arrive, so no cohort exceeds 3 and at most 3 are present.
  EXPECT_TRUE(a->event_driven());
  EXPECT_LE(a->arrived_clients(), 3u);
  for (const auto& [round, cohort] : a_rec.cohorts()) {
    EXPECT_LE(cohort.size(), 3u) << "round " << round;
  }

  std::filesystem::remove(trace_path);
}

TEST(ArrivalTrace, RejectsMalformedTraceFiles) {
  const std::string decreasing = fresh_path("decreasing.txt");
  {
    std::ofstream out(decreasing);
    out << "1.0\n0.5\n";
  }
  EXPECT_THROW(FederationSession::from_spec(arrival_trace_spec(decreasing)), CheckError);
  std::filesystem::remove(decreasing);

  const std::string empty = fresh_path("empty.txt");
  {
    std::ofstream out(empty);
    out << "# only a comment\n";
  }
  EXPECT_THROW(FederationSession::from_spec(arrival_trace_spec(empty)), CheckError);
  std::filesystem::remove(empty);

  EXPECT_THROW(FederationSession::from_spec(arrival_trace_spec(fresh_path("missing.txt"))),
               CheckError);
}

TEST(ArrivalTrace, ValidatesCrossRulesWithActionableMessages) {
  ExperimentSpec spec;
  spec.arrival_trace = "arrivals.txt";
  spec.arrivals = 2.0;
  try {
    spec.validate();
    FAIL() << "arrival_trace + arrivals must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("mutually exclusive"), std::string::npos)
        << e.what();
  }
  spec.arrivals = 0.0;
  EXPECT_NO_THROW(spec.validate());

  spec.checkpoint_every = 1;
  try {
    spec.validate();
    FAIL() << "arrival_trace + checkpointing must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("arrival_trace"), std::string::npos) << e.what();
  }
  spec.checkpoint_every = 0;

  // dwell needs SOME arrival process — a trace counts.
  ExperimentSpec dwell_only;
  dwell_only.dwell = 1.0;
  EXPECT_THROW(dwell_only.validate(), CheckError);
  dwell_only.arrival_trace = "arrivals.txt";
  EXPECT_NO_THROW(dwell_only.validate());

  // The telemetry field validates its level name at spec-parse time.
  ExperimentSpec telem;
  telem.telemetry = "bogus";
  EXPECT_THROW(telem.validate(), CheckError);
  telem.telemetry = "counters";
  EXPECT_NO_THROW(telem.validate());
}

// ---------------------------------------------------------------------------
// BENCH_*.json baselines round-trip through the util/json parser

TEST(BenchBaselines, EveryManifestParsesWithTheExpectedShape) {
  const char* repo = std::getenv("SUBFED_REPO_DIR");
  if (repo == nullptr || *repo == '\0') {
    GTEST_SKIP() << "SUBFED_REPO_DIR not set (ctest sets it; set it manually otherwise)";
  }
  const std::filesystem::path dir = std::filesystem::path(repo) / "bench" / "baselines";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t manifests = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++manifests;
    const JsonValue doc = parse_json(read_file(entry.path().string()));
    ASSERT_TRUE(doc.is_object()) << entry.path();
    EXPECT_FALSE(doc.string_or("file", "").empty()) << entry.path();
    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr) << entry.path();
    ASSERT_TRUE(metrics->is_array()) << entry.path();
    EXPECT_FALSE(metrics->array.empty()) << entry.path();
    for (const JsonValue& metric : metrics->array) {
      EXPECT_FALSE(metric.string_or("name", "").empty()) << entry.path();
      const std::string direction = metric.string_or("direction", "");
      EXPECT_TRUE(direction == "lower" || direction == "higher")
          << entry.path() << ": " << metric.string_or("name", "");
      const JsonValue* value = metric.find("value");
      ASSERT_NE(value, nullptr) << entry.path();
      EXPECT_TRUE(value->is_number()) << entry.path();
      const JsonValue* ratio = metric.find("ratio");
      if (ratio != nullptr) {
        EXPECT_FALSE(ratio->string_or("numerator", "").empty()) << entry.path();
        EXPECT_FALSE(ratio->string_or("denominator", "").empty()) << entry.path();
      } else {
        EXPECT_FALSE(metric.string_or("path", "").empty()) << entry.path();
      }
    }
  }
  EXPECT_GE(manifests, 5u) << "expected the BENCH baselines (incl. BENCH_telemetry.json)";
}

TEST(BenchBaselines, TelemetryBenchEmitterFormatRoundTrips) {
  // The exact shape bench_telemetry emits; the BENCH_telemetry.json ratio
  // selectors ([mode=...].seconds) address records by this key.
  const std::string emitted =
      "[\n  {\"mode\": \"off\", \"seconds\": 1.25, \"reps\": 3, \"rounds\": 3, "
      "\"clients\": 20},\n  {\"mode\": \"counters\", \"seconds\": 1.26, \"reps\": 3, "
      "\"rounds\": 3, \"clients\": 20}\n]\n";
  const JsonValue doc = parse_json(emitted);
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 2u);
  EXPECT_EQ(doc.array[0].string_or("mode", ""), "off");
  EXPECT_EQ(doc.array[1].string_or("mode", ""), "counters");
  EXPECT_GT(doc.array[0].number_or("seconds", 0.0), 0.0);
  EXPECT_GT(doc.array[1].number_or("seconds", 0.0), 0.0);
}

}  // namespace
}  // namespace subfed
