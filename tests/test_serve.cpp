// Resident federation server: session stepping ≡ batch, checkpoint/restore
// resumes bit-identically mid-federation, the ServerLoop serves
// kStatus/kGetModel during live rounds, a restarted server continues the
// round counter, and the new spec fields validate with actionable messages.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/serialize.h"
#include "fl/checkpoint.h"
#include "fl/experiment.h"
#include "fl/worker.h"
#include "net/socket.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/byte_reader.h"
#include "util/check.h"
#include "util/json.h"
#include "util/logging.h"

namespace subfed {
namespace {

ExperimentSpec small_spec(const std::string& algo) {
  set_log_level(LogLevel::kWarn);
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 25;
  spec.test_per_class = 8;
  spec.rounds = 3;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.eval_every = 1;
  spec.seed = 17;
  spec.algo = algo;
  spec.transport = "loopback";
  return spec;
}

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/subfed_serve_" + name;
  std::filesystem::remove(path);
  return path;
}

// ---------------------------------------------------------------------------
// FederationSession: stepping ≡ batch

TEST(FederationSession, SteppingRoundByRoundMatchesBatchBitIdentically) {
  for (const std::string& algo : {std::string("fedavg"), std::string("subfedavg_un")}) {
    ExperimentSpec spec = small_spec(algo);
    spec.dropout = 0.3;  // exercise the dropout stream too
    const ExecutedRun batch = execute_experiment(spec);

    std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
    while (session->round() < spec.rounds) {
      if (!session->advance_round()) continue;
      const bool last = session->round() == spec.rounds;
      if (last || session->round() % spec.eval_every == 0) session->evaluate();
    }
    const RunResult stepped = session->finish();

    EXPECT_EQ(stepped.final_avg_accuracy, batch.result.final_avg_accuracy) << algo;
    ASSERT_EQ(stepped.curve.size(), batch.result.curve.size()) << algo;
    for (std::size_t i = 0; i < stepped.curve.size(); ++i) {
      EXPECT_EQ(stepped.curve[i].round, batch.result.curve[i].round) << algo;
      EXPECT_EQ(stepped.curve[i].avg_accuracy, batch.result.curve[i].avg_accuracy) << algo;
    }
    ASSERT_EQ(stepped.final_per_client.size(), batch.result.final_per_client.size()) << algo;
    for (std::size_t i = 0; i < stepped.final_per_client.size(); ++i) {
      EXPECT_EQ(stepped.final_per_client[i], batch.result.final_per_client[i]) << algo;
    }
    EXPECT_EQ(stepped.up_bytes, batch.result.up_bytes) << algo;
    EXPECT_EQ(stepped.down_bytes, batch.result.down_bytes) << algo;
    EXPECT_EQ(stepped.simulated_seconds, batch.result.simulated_seconds) << algo;
    EXPECT_EQ(stepped.dropped_clients, batch.result.dropped_clients) << algo;
    EXPECT_EQ(stepped.skipped_rounds, batch.result.skipped_rounds) << algo;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore equivalence mid-federation

TEST(FederationSession, RestoredSessionProducesBitIdenticalNextRound) {
  for (const std::string& algo : {std::string("fedavg"), std::string("subfedavg_un")}) {
    ExperimentSpec spec = small_spec(algo);
    spec.rounds = 4;
    spec.dropout = 0.25;  // the restore must replay BOTH rng streams

    // Uninterrupted reference: run to round 2, snapshot, keep going.
    std::unique_ptr<FederationSession> a = FederationSession::from_spec(spec);
    while (a->round() < 2) a->advance_round();
    const std::string path = fresh_path(algo + ".session");
    a->save(path);

    const std::uint64_t a_up_before = a->total_up_bytes();
    const std::uint64_t a_down_before = a->total_down_bytes();
    a->advance_round();  // round 3 of the uninterrupted run

    // Crash-restart: a FRESH session built from the same spec, restored.
    std::unique_ptr<FederationSession> b = FederationSession::from_spec(spec);
    b->restore(path);
    EXPECT_EQ(b->round(), 2u) << algo;
    EXPECT_EQ(b->total_up_bytes(), a_up_before) << algo;
    EXPECT_EQ(b->total_down_bytes(), a_down_before) << algo;

    const std::uint64_t b_up_before = b->total_up_bytes();
    const std::uint64_t b_down_before = b->total_down_bytes();
    b->advance_round();  // round 3 of the restored run

    // Round 3 must be bit-identical: same full algorithm state afterwards,
    // same envelope traffic, same simulated duration, same casualties.
    EXPECT_EQ(checkpoint_bytes(a->algorithm()), checkpoint_bytes(b->algorithm())) << algo;
    EXPECT_EQ(a->total_up_bytes() - a_up_before, b->total_up_bytes() - b_up_before) << algo;
    EXPECT_EQ(a->total_down_bytes() - a_down_before, b->total_down_bytes() - b_down_before)
        << algo;
    EXPECT_EQ(a->algorithm().last_round_seconds(), b->algorithm().last_round_seconds())
        << algo;
    EXPECT_EQ(a->progress().dropped_clients, b->progress().dropped_clients) << algo;

    std::filesystem::remove(path);
  }
}

TEST(FederationSession, RestoreRejectsACheckpointFromADifferentSpec) {
  ExperimentSpec spec = small_spec("fedavg");
  std::unique_ptr<FederationSession> a = FederationSession::from_spec(spec);
  a->advance_round();
  const std::string path = fresh_path("mismatch.session");
  a->save(path);

  ExperimentSpec other = small_spec("fedavg");
  other.seed = 99;  // different federation entirely
  std::unique_ptr<FederationSession> b = FederationSession::from_spec(other);
  try {
    b->restore(path);
    FAIL() << "restoring a different spec's checkpoint must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("different spec"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(FederationSession, RestoreRefusesAHostileCurvePointCount) {
  ExperimentSpec spec = small_spec("fedavg");
  std::unique_ptr<FederationSession> a = FederationSession::from_spec(spec);
  a->advance_round();
  a->evaluate();
  const std::string path = fresh_path("hostile_points.session");
  a->save(path);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // Magic, version, the spec blob and six u64 counters come before the u32
  // curve point count.
  ByteReader header(bytes, "session checkpoint");
  header.u32();
  header.u32();
  header.blob();
  for (int i = 0; i < 6; ++i) header.u64();
  const std::size_t points_at = bytes.size() - header.remaining();
  ASSERT_EQ(header.u32(), 1u);  // one evaluated point
  std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(points_at), 4, 0xFF);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::unique_ptr<FederationSession> b = FederationSession::from_spec(spec);
  try {
    b->restore(path);
    FAIL() << "a curve point count past the file's end must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("curve points"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Spec validation for the resident-mode fields

TEST(ServeSpec, ValidatesResidentFieldsWithActionableMessages) {
  ExperimentSpec spec;
  spec.serve = 1;
  try {
    spec.validate();
    FAIL() << "serve=1 without tcp must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("transport=tcp"), std::string::npos) << e.what();
  }

  spec.transport = "tcp";
  spec.listen = "127.0.0.1:0";
  spec.status_listen = "127.0.0.1:0";
  try {
    spec.validate();  // checkpoint_every still 0
    FAIL() << "serve=1 without checkpointing must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint_every"), std::string::npos) << e.what();
  }

  spec.checkpoint_every = 1;
  EXPECT_NO_THROW(spec.validate());

  spec.status_listen = "not-an-address";
  EXPECT_THROW(spec.validate(), CheckError);
  spec.status_listen.clear();
  try {
    spec.validate();  // serve=1 with no request address
    FAIL() << "serve=1 without status_listen must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("status_listen"), std::string::npos) << e.what();
  }
  spec.status_listen = "127.0.0.1:0";

  spec.serve = 2;
  EXPECT_THROW(spec.validate(), CheckError);

  // The resident-only fields are rejected on batch specs, with pointers.
  ExperimentSpec batch;
  batch.status_listen = "127.0.0.1:9100";
  try {
    batch.validate();
    FAIL() << "status_listen without serve=1 must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("serve=1"), std::string::npos) << e.what();
  }
  batch.status_listen.clear();
  batch.min_participants = 2;
  EXPECT_THROW(batch.validate(), CheckError);
  batch.min_participants = 0;
  EXPECT_NO_THROW(batch.validate());

  // And execute_experiment refuses to run a resident spec as a batch.
  ExperimentSpec resident = small_spec("fedavg");
  resident.serve = 1;
  resident.transport = "tcp";
  resident.listen = "127.0.0.1:0";
  resident.status_listen = "127.0.0.1:0";
  resident.checkpoint_every = 1;
  EXPECT_THROW(execute_experiment(resident), CheckError);
}

// ---------------------------------------------------------------------------
// ServerLoop over real sockets

ExperimentSpec serve_spec(const std::string& checkpoint_path) {
  ExperimentSpec spec = small_spec("fedavg");
  spec.serve = 1;
  spec.transport = "tcp";
  spec.listen = "127.0.0.1:0";
  spec.status_listen = "127.0.0.1:0";
  spec.channel_workers = 2;
  spec.aggregation = "buffered";
  spec.buffer_k = 2;
  spec.eval_every = 0;  // resident mode: no per-round eval in this test
  spec.checkpoint_every = 1;
  spec.checkpoint_path = checkpoint_path;
  spec.rounds = 3;  // ignored by the loop; kept for the spec blob round-trip
  return spec;
}

/// One operator request with an explicit request tag.
net::NetFrame request_tagged(const std::string& endpoint, net::FrameKind kind,
                             std::uint64_t tag,
                             std::span<const std::uint8_t> payload = {}) {
  net::TcpConn conn =
      net::TcpConn::connect(net::parse_host_port(endpoint), net::Deadline::after_ms(5000));
  SUBFEDAVG_CHECK(conn.valid(), "cannot reach " << endpoint);
  SUBFEDAVG_CHECK(net::send_frame(conn, kind, tag, payload, net::Deadline::after_ms(5000)),
                  "request send failed");
  net::NetFrame reply;
  SUBFEDAVG_CHECK(net::recv_frame(conn, &reply, net::Deadline::after_ms(30000)),
                  "no reply from " << endpoint);
  return reply;
}

/// One operator request, fedctl-style: connect, send, await the reply.
net::NetFrame request(const std::string& endpoint, net::FrameKind kind,
                      std::span<const std::uint8_t> payload = {}) {
  return request_tagged(endpoint, kind, 7, payload);
}

std::string text_of(const net::NetFrame& frame) {
  return std::string(frame.payload.begin(), frame.payload.end());
}

std::vector<std::thread> spawn_fleet(const std::string& endpoint, int n) {
  std::vector<std::thread> fleet;
  for (int w = 0; w < n; ++w) {
    fleet.emplace_back([endpoint] {
      WorkerOptions wo;
      wo.connect = endpoint;
      wo.reconnect = 50;
      run_worker(wo);
    });
  }
  return fleet;
}

std::uint32_t read_u32(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  return v;
}

/// Scope-exit teardown in the one order that cannot deadlock: stop the loop,
/// join its thread, DESTROY the loop (transport teardown sends kShutdown to
/// the fleet — that is the workers' stop signal), then join the fleet.
struct Teardown {
  std::unique_ptr<ServerLoop>& loop;
  std::thread& server;
  std::vector<std::thread>& fleet;
  ~Teardown() {
    if (loop) loop->request_stop();
    if (server.joinable()) server.join();
    loop.reset();
    for (std::thread& t : fleet) t.join();
  }
};

/// Records the cumulative ledger the driver hooks report, so the wire
/// kStatus counters can be cross-checked against observer ground truth.
class LedgerRecorder final : public RoundObserver {
 public:
  void on_round_end(const RoundEndInfo& info) override {
    cumulative_up_ += info.round_up_bytes;
    cumulative_down_ += info.round_down_bytes;
    by_round_.push_back({info.round, cumulative_up_, cumulative_down_});
  }

  struct Point {
    std::size_t round;
    std::uint64_t up;
    std::uint64_t down;
  };
  const std::vector<Point>& points() const noexcept { return by_round_; }

 private:
  std::uint64_t cumulative_up_ = 0;
  std::uint64_t cumulative_down_ = 0;
  std::vector<Point> by_round_;
};

TEST(ServerLoop, ServesStatusAndModelDuringLiveRoundsAndResumesAfterRestart) {
  const std::string checkpoint = fresh_path("loop.session");

  std::size_t stopped_at = 0;
  std::size_t status_round = 0;
  std::uint64_t status_up = 0;
  std::uint64_t status_down = 0;
  LedgerRecorder recorder;
  {
    // --- first life: serve until an operator has watched 3 rounds tick ----
    ServeOptions options;
    options.spec = serve_spec(checkpoint);
    auto loop = std::make_unique<ServerLoop>(options);
    std::vector<std::thread> fleet = spawn_fleet(loop->worker_endpoint(), 2);
    std::thread server;
    Teardown teardown{loop, server, fleet};
    const std::string requests_at = loop->request_endpoint();
    server = std::thread([&] { loop->run(&recorder); });

    // Poll kStatus while rounds run; stop once 3 have completed.
    for (;;) {
      const net::NetFrame reply = request(requests_at, net::FrameKind::kStatus);
      ASSERT_EQ(reply.kind, net::FrameKind::kReply);
      const JsonValue status = parse_json(text_of(reply));
      if (status.number_or("round", 0.0) >= 3.0) {
        status_round = static_cast<std::size_t>(status.at("round").number);
        status_up = static_cast<std::uint64_t>(status.at("up_bytes").number);
        status_down = static_cast<std::uint64_t>(status.at("down_bytes").number);
        EXPECT_EQ(status.number_or("resumed_from", -1.0), 0.0);
        EXPECT_GE(status.number_or("workers", 0.0), 2.0);
        EXPECT_GT(status.number_or("rounds_per_sec", 0.0), 0.0);
        EXPECT_EQ(status.string_or("algorithm", ""), "FedAvg");
        EXPECT_EQ(status.string_or("checkpoint_path", ""), checkpoint);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }

    // The model endpoint serves decodable sections mid-federation:
    // u32 section count, then u32-length-prefixed encode_update blobs.
    const net::NetFrame model = request(requests_at, net::FrameKind::kGetModel);
    ASSERT_EQ(model.kind, net::FrameKind::kReply);
    ASSERT_GE(model.payload.size(), 8u);
    ASSERT_EQ(read_u32(model.payload, 0), 1u);
    const std::uint32_t len = read_u32(model.payload, 4);
    ASSERT_EQ(model.payload.size(), 8u + len);
    const StateDict global =
        decode_update(std::span<const std::uint8_t>(model.payload).subspan(8, len));
    EXPECT_GT(global.size(), 0u);

    // Full-model replies are stamped with the serving round (round + 1, so
    // never 0), and the stamp supports an ETag-style conditional fetch:
    // echoing it back with kModelConditionalTag set earns an empty
    // not-modified reply while the round holds, or a re-stamped full payload
    // once it advanced (rounds are ticking live here, so either is legal).
    EXPECT_GE(model.tag, 1u);
    const net::NetFrame cond =
        request_tagged(requests_at, net::FrameKind::kGetModel,
                       ServerLoop::kModelConditionalTag | model.tag);
    ASSERT_EQ(cond.kind, net::FrameKind::kReply);
    if (cond.payload.empty()) {
      EXPECT_EQ(cond.tag, model.tag);  // not modified
    } else {
      EXPECT_GT(cond.tag, model.tag);  // newer round, fresh stamp + payload
      EXPECT_EQ(read_u32(cond.payload, 0), 1u);
    }
    // Hammer the endpoint: replies keep decoding and stamps never regress.
    for (int i = 0; i < 6; ++i) {
      const net::NetFrame again = request(requests_at, net::FrameKind::kGetModel);
      ASSERT_EQ(again.kind, net::FrameKind::kReply);
      EXPECT_GE(again.tag, model.tag);
      EXPECT_EQ(read_u32(again.payload, 0), 1u);
    }

    // A bad client index is an error reply, not a hangup or a crash.
    const std::string bogus = "999";
    const net::NetFrame err = request(
        requests_at, net::FrameKind::kGetModel,
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(bogus.data()),
                                      bogus.size()));
    EXPECT_EQ(err.kind, net::FrameKind::kError);

    const net::NetFrame snap = request(requests_at, net::FrameKind::kCheckpointNow);
    ASSERT_EQ(snap.kind, net::FrameKind::kReply);
    EXPECT_EQ(text_of(snap), checkpoint);
    EXPECT_TRUE(std::filesystem::exists(checkpoint));

    const net::NetFrame bye = request(requests_at, net::FrameKind::kShutdown);
    ASSERT_EQ(bye.kind, net::FrameKind::kReply);
    EXPECT_EQ(text_of(bye), "stopping");
    server.join();
    stopped_at = loop->session().round();
    EXPECT_GE(stopped_at, 3u);
    // The round-stamped cache encodes the model at most once per round, no
    // matter how many kGetModel requests landed.
    EXPECT_GE(loop->model_encodes(), 1u);
    EXPECT_LE(loop->model_encodes(), loop->session().round() + 1);
  }

  // The wire counters must match the observer-reported ledger at the round
  // the status snapshot was taken (checked post-join: the recorder is quiet).
  bool matched = false;
  for (const LedgerRecorder::Point& p : recorder.points()) {
    if (p.round != status_round) continue;
    EXPECT_EQ(status_up, p.up);
    EXPECT_EQ(status_down, p.down);
    matched = true;
  }
  EXPECT_TRUE(matched) << "status round " << status_round << " not in the observer trace";

  {
    // --- second life: same spec, restored, round counter continues --------
    ServeOptions options;
    options.spec = serve_spec(checkpoint);
    options.max_rounds = 2;
    auto loop = std::make_unique<ServerLoop>(options);
    EXPECT_TRUE(loop->resumed());
    EXPECT_EQ(loop->resumed_from(), stopped_at);

    std::vector<std::thread> fleet = spawn_fleet(loop->worker_endpoint(), 2);
    std::thread server;  // unused: this life runs on the main thread
    Teardown teardown{loop, server, fleet};
    loop->run();
    EXPECT_EQ(loop->session().round(), stopped_at + 2);
    EXPECT_EQ(loop->rounds_this_process(), 2u);

    // Monotone served counters survive the restart: the status JSON still
    // parses and reports the continued round, not a reset one.
    const JsonValue status = parse_json(loop->status_json());
    EXPECT_EQ(static_cast<std::size_t>(status.at("round").number), stopped_at + 2);
    EXPECT_EQ(static_cast<std::size_t>(status.at("resumed_from").number), stopped_at);
    EXPECT_GE(static_cast<std::uint64_t>(status.at("up_bytes").number), status_up);
  }

  std::filesystem::remove(checkpoint);
}

// ---------------------------------------------------------------------------
// Telemetry over the request API: kMetrics, kMetricsTail, conditional kStatus

TEST(ServerLoop, ServesMetricsAndEventLogTailAcrossRestart) {
  const std::string checkpoint = fresh_path("telemetry.session");
  const std::string log_path = fresh_path("telemetry.jsonl");
  std::filesystem::remove(log_path + ".1");

  std::uint64_t first_life_cursor = 0;
  std::size_t stopped_at = 0;
  {
    // --- first life: poll the new endpoints while rounds tick -------------
    ServeOptions options;
    options.spec = serve_spec(checkpoint);
    options.telemetry_log = log_path;
    auto loop = std::make_unique<ServerLoop>(options);
    ASSERT_NE(loop->event_log(), nullptr);
    std::vector<std::thread> fleet = spawn_fleet(loop->worker_endpoint(), 2);
    std::thread server;
    Teardown teardown{loop, server, fleet};
    const std::string requests_at = loop->request_endpoint();
    server = std::thread([&] { loop->run(); });

    for (;;) {
      const net::NetFrame reply = request(requests_at, net::FrameKind::kStatus);
      ASSERT_EQ(reply.kind, net::FrameKind::kReply);
      if (parse_json(text_of(reply)).number_or("round", 0.0) >= 2.0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }

    // kMetrics: the registry snapshot parses and reports the raised level
    // (--telemetry-log turned counters on for this process).
    const net::NetFrame metrics = request(requests_at, net::FrameKind::kMetrics);
    ASSERT_EQ(metrics.kind, net::FrameKind::kReply);
    const JsonValue snapshot = parse_json(text_of(metrics));
    ASSERT_TRUE(snapshot.is_object());
    EXPECT_EQ(snapshot.string_or("telemetry_level", ""), "counters");

    // Conditional kStatus: replies are stamped; echoing the stamp back with
    // the conditional bit earns an empty not-modified reply while the round
    // holds, or a newer-stamped payload once it advanced (rounds tick live).
    const net::NetFrame status = request(requests_at, net::FrameKind::kStatus);
    ASSERT_EQ(status.kind, net::FrameKind::kReply);
    EXPECT_GE(status.tag, 1u);
    const net::NetFrame cond =
        request_tagged(requests_at, net::FrameKind::kStatus,
                       ServerLoop::kModelConditionalTag | status.tag);
    ASSERT_EQ(cond.kind, net::FrameKind::kReply);
    if (cond.payload.empty()) {
      EXPECT_EQ(cond.tag, status.tag);
    } else {
      EXPECT_GT(cond.tag, status.tag);
      EXPECT_NO_THROW(parse_json(text_of(cond)));
    }

    // kMetricsTail pages the JSONL stream from 0: every line is valid JSON,
    // the lifecycle start record and at least one round record (with the
    // six-phase breakdown) are present, and the cursor lands at the end.
    std::string tailed;
    std::uint64_t cursor = 0;
    for (;;) {
      const std::string text = std::to_string(cursor);
      const net::NetFrame page = request_tagged(
          requests_at, net::FrameKind::kMetricsTail, 0,
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
      ASSERT_EQ(page.kind, net::FrameKind::kReply);
      if (page.payload.empty()) {
        EXPECT_GE(page.tag, cursor);
        cursor = page.tag;
        break;
      }
      tailed += text_of(page);
      cursor = page.tag;
    }
    first_life_cursor = cursor;
    EXPECT_NE(tailed.find("\"event\": \"start\""), std::string::npos);
    EXPECT_NE(tailed.find("\"event\": \"round\""), std::string::npos);
    EXPECT_NE(tailed.find("\"phases\": {\"sample\": "), std::string::npos);
    std::size_t start = 0;
    while (start < tailed.size()) {
      const std::size_t end = tailed.find('\n', start);
      ASSERT_NE(end, std::string::npos) << "tail chunks must be whole lines";
      EXPECT_NO_THROW(parse_json(tailed.substr(start, end - start)));
      start = end + 1;
    }

    const net::NetFrame bye = request(requests_at, net::FrameKind::kShutdown);
    ASSERT_EQ(bye.kind, net::FrameKind::kReply);
    server.join();
    stopped_at = loop->session().round();
  }

  {
    // --- second life: the log reopens and the full history replays --------
    ServeOptions options;
    options.spec = serve_spec(checkpoint);
    options.max_rounds = 2;
    options.telemetry_log = log_path;
    auto loop = std::make_unique<ServerLoop>(options);
    EXPECT_TRUE(loop->resumed());
    std::vector<std::thread> fleet = spawn_fleet(loop->worker_endpoint(), 2);
    std::thread server;  // unused: this life runs on the main thread
    Teardown teardown{loop, server, fleet};
    loop->run();

    // A reader from cursor 0 replays BOTH lives: the first life's start and
    // rounds survive the restart, the resume marker separates the lives, and
    // the second life's rounds continue the counter.
    telemetry::EventLog* log = loop->event_log();
    ASSERT_NE(log, nullptr);
    std::string all;
    std::uint64_t cursor = 0;
    while (cursor < log->end_cursor()) {
      std::uint64_t next = cursor;
      const std::string chunk = log->tail(cursor, 1 << 20, &next);
      ASSERT_GT(next, cursor);
      all += chunk;
      cursor = next;
    }
    EXPECT_NE(all.find("\"event\": \"start\""), std::string::npos);
    EXPECT_NE(all.find("\"event\": \"resume\""), std::string::npos);
    EXPECT_NE(all.find("\"event\": \"stop\""), std::string::npos);
    EXPECT_NE(all.find("\"event\": \"round\", \"round\": " +
                       std::to_string(stopped_at + 2)),
              std::string::npos)
        << "second-life rounds must continue the counter";

    // And the cursor an operator saved before the restart yields only newer
    // records: the resume marker and the second life, never the old start.
    std::uint64_t next = 0;
    std::string newer;
    cursor = first_life_cursor;
    while (cursor < log->end_cursor()) {
      const std::string chunk = log->tail(cursor, 1 << 20, &next);
      ASSERT_GT(next, cursor);
      newer += chunk;
      cursor = next;
    }
    EXPECT_EQ(newer.find("\"event\": \"start\""), std::string::npos);
    EXPECT_NE(newer.find("\"event\": \"resume\""), std::string::npos);
  }

  std::filesystem::remove(checkpoint);
  std::filesystem::remove(log_path);
  std::filesystem::remove(log_path + ".1");
}

}  // namespace
}  // namespace subfed
