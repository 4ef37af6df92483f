#include "comm/channel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>

#include "comm/serialize.h"
#include "fl/robust.h"
#include "telemetry/trace.h"
#include "util/byte_reader.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace subfed {

namespace {

constexpr std::uint32_t kEnvelopeMagic = 0x53464556;  // "SFEV"
constexpr std::uint32_t kQuantMagic = 0x53465150;     // "SFQP"

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

}  // namespace

QuantCodec parse_quant_codec(const std::string& name) {
  if (name == "none") return QuantCodec::kNone;
  if (name == "fp16") return QuantCodec::kFp16;
  if (name == "int8") return QuantCodec::kInt8;
  SUBFEDAVG_CHECK(false, "unknown quantize codec '" << name << "' (none | fp16 | int8)");
  return QuantCodec::kNone;
}

std::string quant_codec_name(QuantCodec codec) {
  switch (codec) {
    case QuantCodec::kNone: return "none";
    case QuantCodec::kFp16: return "fp16";
    case QuantCodec::kInt8: return "int8";
  }
  return "none";
}

// ---------------------------------------------------------------------------
// Envelopes

std::vector<std::uint8_t> encode_envelope(const Envelope& envelope) {
  std::size_t size = 28;  // fixed header
  for (const std::vector<std::uint8_t>& section : envelope.sections) size += 4 + section.size();
  std::vector<std::uint8_t> out;
  out.reserve(size);
  put_u32(out, kEnvelopeMagic);
  out.push_back(static_cast<std::uint8_t>(envelope.kind));
  out.push_back(static_cast<std::uint8_t>(envelope.quantize));
  out.push_back(envelope.delta ? 1 : 0);
  out.push_back(0);  // reserved
  put_u32(out, envelope.round);
  put_u32(out, envelope.client);
  put_u64(out, envelope.num_examples);
  put_u32(out, static_cast<std::uint32_t>(envelope.sections.size()));
  for (const std::vector<std::uint8_t>& section : envelope.sections) {
    put_u32(out, static_cast<std::uint32_t>(section.size()));
    out.insert(out.end(), section.begin(), section.end());
  }
  return out;
}

Envelope decode_envelope(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "message");
  SUBFEDAVG_CHECK(reader.u32() == kEnvelopeMagic, "bad envelope magic");
  Envelope envelope;
  const std::uint8_t kind = reader.u8();
  SUBFEDAVG_CHECK(kind == static_cast<std::uint8_t>(MessageKind::kBroadcast) ||
                      kind == static_cast<std::uint8_t>(MessageKind::kClientUpdate),
                  "bad envelope kind " << int{kind});
  envelope.kind = static_cast<MessageKind>(kind);
  const std::uint8_t quant = reader.u8();
  SUBFEDAVG_CHECK(quant <= static_cast<std::uint8_t>(QuantCodec::kInt8),
                  "bad envelope quant tag " << int{quant});
  envelope.quantize = static_cast<QuantCodec>(quant);
  envelope.delta = reader.u8() != 0;
  reader.u8();  // reserved
  envelope.round = reader.u32();
  envelope.client = reader.u32();
  envelope.num_examples = reader.u64();
  const std::uint32_t sections = reader.u32();
  // Each section needs at least its 4-byte length: bound the count first.
  SUBFEDAVG_CHECK(sections <= reader.remaining() / 4,
                  "envelope claims " << sections << " sections, more than the remaining "
                                     << reader.remaining() << " bytes hold");
  envelope.sections.reserve(sections);
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t size = reader.u32();
    const std::span<const std::uint8_t> raw = reader.raw(size);
    envelope.sections.emplace_back(raw.begin(), raw.end());
  }
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in envelope");
  return envelope;
}

// ---------------------------------------------------------------------------
// Payload codec

namespace {

std::vector<std::uint8_t> encode_payload_impl(const StateDict& state, const ModelMask* mask,
                                              QuantCodec quantize) {
  if (quantize == QuantCodec::kNone) return encode_update(state, mask);
  std::vector<std::uint8_t> out;
  put_u32(out, kQuantMagic);
  out.push_back(static_cast<std::uint8_t>(quantize));
  encode_entries(out, state, mask, quantize);
  return out;
}

StateDict decode_payload_impl(std::span<const std::uint8_t> bytes, ModelMask* mask_out) {
  ByteReader reader(bytes, "payload");
  if (reader.u32() != kQuantMagic) return decode_update(bytes, mask_out);
  const std::uint8_t quant_tag = reader.u8();
  SUBFEDAVG_CHECK(quant_tag == static_cast<std::uint8_t>(QuantCodec::kFp16) ||
                      quant_tag == static_cast<std::uint8_t>(QuantCodec::kInt8),
                  "bad payload quant tag " << int{quant_tag});
  StateDict state = decode_entries(reader, static_cast<QuantCodec>(quant_tag), mask_out);
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in payload");
  return state;
}

}  // namespace

std::vector<std::uint8_t> encode_payload(const StateDict& state, const ModelMask* mask,
                                         QuantCodec quantize) {
  const telemetry::StopWatch watch;
  std::vector<std::uint8_t> out = encode_payload_impl(state, mask, quantize);
  if (watch.armed()) {
    static telemetry::Counter& encodes = telemetry::counter("codec.encodes");
    static telemetry::Counter& bytes = telemetry::counter("codec.encoded_bytes");
    static telemetry::Timer& time = telemetry::timer("codec.encode_seconds");
    encodes.add();
    bytes.add(out.size());
    time.add_seconds(watch.seconds());
  }
  return out;
}

StateDict decode_payload(std::span<const std::uint8_t> bytes, ModelMask* mask_out) {
  const telemetry::StopWatch watch;
  StateDict state = decode_payload_impl(bytes, mask_out);
  if (watch.armed()) {
    static telemetry::Counter& decodes = telemetry::counter("codec.decodes");
    static telemetry::Counter& decoded = telemetry::counter("codec.decoded_bytes");
    static telemetry::Timer& time = telemetry::timer("codec.decode_seconds");
    decodes.add();
    decoded.add(bytes.size());
    time.add_seconds(watch.seconds());
  }
  return state;
}

namespace {

typedef float v4sf __attribute__((vector_size(16)));
typedef std::int32_t v4si __attribute__((vector_size(16)));

/// state += sign · reference on every entry `mask` does not cover, and on the
/// kept positions of those it does. A pruned position keeps its exact bits
/// (−0.0 and NaN included); a kept one gets the bits of t + sign·r.
void combine_reference(StateDict& state, const ModelMask* mask, const StateDict& reference,
                       float sign) {
  for (auto& [name, tensor] : state) {
    const Tensor* ref = reference.find(name);
    if (ref == nullptr) continue;
    const std::size_t n = tensor.numel();
    SUBFEDAVG_CHECK(ref->numel() == n, "delta reference shape for " << name);
    float* t = tensor.data();
    const float* r = ref->data();
    const Tensor* m = mask != nullptr ? mask->find(name) : nullptr;
    if (m == nullptr) {
      for (std::size_t i = 0; i < n; ++i) t[i] += sign * r[i];
      continue;
    }
    SUBFEDAVG_CHECK(m->numel() == n, "delta mask shape for " << name);
    const float* k = m->data();
    // A 4-wide bitwise select: compilers keep the masked add as a branch,
    // which mispredicts on a random mask.
    const v4sf s = {sign, sign, sign, sign};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      v4sf tv, rv, kv;
      std::memcpy(&tv, t + i, sizeof tv);
      std::memcpy(&rv, r + i, sizeof rv);
      std::memcpy(&kv, k + i, sizeof kv);
      const v4si keep = kv != v4sf{};
      const v4sf sum = tv + s * rv;
      const v4si bits =
          (std::bit_cast<v4si>(sum) & keep) | (std::bit_cast<v4si>(tv) & ~keep);
      std::memcpy(t + i, &bits, sizeof bits);
    }
    for (; i < n; ++i) {
      if (k[i] != 0.0f) t[i] += sign * r[i];
    }
  }
}

}  // namespace

void subtract_reference(StateDict& state, const ModelMask* mask, const StateDict& reference) {
  combine_reference(state, mask, reference, -1.0f);
}

void apply_reference(StateDict& state, const ModelMask* mask, const StateDict& reference) {
  combine_reference(state, mask, reference, 1.0f);
}

namespace {

/// Encodes one client's reply envelope through the codec stack. Both the
/// coordinator's in-process handler and a remote worker's serve_remote_exchange
/// go through here, so a tcp reply is byte-identical to the loopback reply the
/// same computation would have produced. `charged_bytes`, when non-null,
/// receives the charged (section-0) size.
std::vector<std::uint8_t> encode_client_reply(const ChannelConfig& config, std::uint32_t round,
                                              std::uint32_t client, const StateDict& received,
                                              ClientResult result,
                                              std::size_t* charged_bytes) {
  Envelope reply;
  reply.kind = MessageKind::kClientUpdate;
  reply.round = round;
  reply.client = client;
  reply.num_examples = result.update.num_examples;
  reply.quantize = config.quantize;
  reply.delta = config.delta;
  const ModelMask* mask = result.update.mask.empty() ? nullptr : &result.update.mask;
  StateDict upload = std::move(result.update.state);
  if (config.delta) subtract_reference(upload, mask, received);
  reply.sections.push_back(encode_payload(upload, mask, config.quantize));
  if (charged_bytes != nullptr) *charged_bytes = reply.sections[0].size();
  for (const StateDict& section : result.state) {
    reply.sections.push_back(encode_update(section, nullptr));
  }
  return encode_envelope(reply);
}

}  // namespace

// ---------------------------------------------------------------------------
// Channel

bool has_channel_transport(const std::string& name) {
  return name == "memory" || has_transport(name);
}

Channel::Channel(ChannelConfig config, CommLedger* ledger)
    : config_(std::move(config)), ledger_(ledger) {
  SUBFEDAVG_CHECK(ledger_ != nullptr, "channel needs a ledger");
  SUBFEDAVG_CHECK(has_channel_transport(config_.transport),
                  "unknown transport '" << config_.transport
                                        << "' (memory | loopback | subprocess | tcp)");
  if (config_.transport == "memory") {
    // The fast path never materializes payloads, so codecs that change the
    // bytes (or the values) cannot be honored there.
    SUBFEDAVG_CHECK(config_.quantize == QuantCodec::kNone && !config_.delta,
                    "codec=" << (config_.delta ? "delta" : "sparse") << " quantize="
                             << quant_codec_name(config_.quantize)
                             << " require transport=loopback or subprocess");
  } else {
    TransportOptions options;
    options.workers = config_.workers;
    options.listen = config_.listen;
    options.rpc_timeout_ms = config_.rpc_timeout_ms;
    options.setup = config_.remote_setup;
    // Buffered aggregation can absorb a dead worker as an evicted straggler;
    // a synchronous round cannot, so there a death must fail the round.
    options.tolerate_failures = config_.buffered;
    transport_ = make_transport(config_.transport, options);
  }
  SUBFEDAVG_CHECK(config_.staleness_decay >= 0.0,
                  "staleness decay " << config_.staleness_decay << " must be >= 0");
}

Channel::~Channel() = default;

double Channel::compression_ratio() const noexcept {
  if (charged_bytes_ == 0) return 0.0;
  return static_cast<double>(dense_reference_bytes_) / static_cast<double>(charged_bytes_);
}

double Channel::arrival_seconds(const ClientRoundCost& cost) const {
  if (fleet_ != nullptr) return client_seconds(*fleet_, cost);
  const LinkModel nominal;
  return nominal.transfer_seconds(cost.up_bytes, cost.down_bytes) + cost.compute_seconds;
}

std::vector<std::uint8_t> Channel::serve_remote_exchange(
    std::span<const std::uint8_t> request_bytes, const RemoteClientFn& fn) const {
  const Envelope request = decode_envelope(request_bytes);
  SUBFEDAVG_CHECK(request.kind == MessageKind::kBroadcast && !request.sections.empty(),
                  "worker expected a broadcast envelope");
  const StateDict received = decode_payload(request.sections[0]);
  ClientJob job;
  job.client = request.client;
  job.broadcast = &received;  // post-codec view; remote jobs have no pre-codec state
  for (std::size_t s = 1; s < request.sections.size(); ++s) {
    job.state.push_back(decode_update(request.sections[s]));
  }
  ClientResult result = fn(request.round, job, received);
  return encode_client_reply(config_, request.round, request.client, received,
                             std::move(result), nullptr);
}

std::vector<Exchange> Channel::run_round(std::size_t round, std::span<const ClientJob> jobs,
                                         const ClientFn& client_fn) {
  for (const ClientJob& job : jobs) {
    SUBFEDAVG_CHECK(job.broadcast != nullptr, "client job needs a broadcast state");
  }
  std::vector<Exchange> fresh = transport_ == nullptr
                                    ? run_in_memory(round, jobs, client_fn)
                                    : run_materialized(round, jobs, client_fn);
  if (!config_.buffered) return fresh;
  return close_buffered_round(round, std::move(fresh), last_fresh_arrival_order_);
}

std::vector<Exchange> Channel::close_buffered_round(
    std::size_t round, std::vector<Exchange> fresh,
    std::span<const std::size_t> arrival_order) {
  // Fresh replies in arrival order: as reported by the transport, or — on the
  // memory fast path, which materializes nothing — by each client's simulated
  // link+compute completion time (ties broken by sampled position).
  // A genuine transport order may legitimately be SHORTER than `fresh` — tcp
  // reports a dead worker's exchange by omission and those entries are
  // evicted below, never re-sorted back in.
  std::vector<std::size_t> order(arrival_order.begin(), arrival_order.end());
  if (last_order_simulated_) {
    order.resize(fresh.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return last_arrival_seconds_[a] < last_arrival_seconds_[b];
    });
  }

  // The buffer fills with parked updates first — they arrived while earlier
  // rounds were already closed, so they sit at the head of the queue — oldest
  // origin round (highest staleness) first. Updates parked past max_staleness
  // are evicted instead of delivered.
  std::stable_sort(parked_.begin(), parked_.end(),
                   [](const ParkedUpdate& a, const ParkedUpdate& b) {
                     return a.origin_round != b.origin_round
                                ? a.origin_round < b.origin_round
                                : a.arrival_rank < b.arrival_rank;
                   });
  // Note a delivery-order invariant the algorithms rely on for their
  // side-band client mirrors: deliverable stale updates are consumed before
  // ANY fresh reply (a filled buffer leaves fresh_slots == 0), within the
  // stale queue oldest origin goes first, and same-round stale precede fresh
  // in the output — so a client's mirror sections always install oldest to
  // newest and a parked mirror can never roll back a newer one.
  const std::size_t k = config_.buffer_k == 0 ? fresh.size() : config_.buffer_k;
  std::vector<Exchange> out;
  std::vector<ParkedUpdate> still_parked;
  double close_seconds = 0.0;  // delivered stragglers still in flight floor it
  for (ParkedUpdate& parked : parked_) {
    const std::size_t staleness =
        round > parked.origin_round ? round - parked.origin_round : 1;
    if (staleness > config_.max_staleness) {
      ++evicted_updates_;
      continue;
    }
    if (out.size() >= k) {
      still_parked.push_back(std::move(parked));  // stays parked, ages on
      continue;
    }
    parked.exchange.staleness = staleness;
    parked.exchange.update.weight =
        std::pow(1.0 + static_cast<double>(staleness), -config_.staleness_decay);
    ++stale_updates_;
    close_seconds = std::max(close_seconds, parked.remaining_seconds);
    out.push_back(std::move(parked.exchange));
  }

  // Remaining buffer slots go to this round's replies in arrival order; the
  // round closes at the last counted arrival (the K-th — sync's max when the
  // buffer is big enough for everyone) and the overflow parks for the next
  // round, carrying its still-in-flight overhang. In-round exchanges return
  // in sampled order, so a full buffer with nothing parked is bit-identical
  // to sync mode.
  const std::size_t fresh_slots = out.size() < k ? k - out.size() : 0;
  const std::size_t take = std::min(fresh_slots, fresh.size());
  std::vector<bool> in_round(fresh.size(), false);
  for (std::size_t r = 0; r < take; ++r) {
    in_round[order[r]] = true;
    close_seconds = std::max(close_seconds, last_arrival_seconds_[order[r]]);
  }
  for (ParkedUpdate& parked : still_parked) {
    parked.remaining_seconds = std::max(0.0, parked.remaining_seconds - close_seconds);
  }
  parked_ = std::move(still_parked);
  for (std::size_t r = take; r < order.size(); ++r) {
    const double overhang =
        std::max(0.0, last_arrival_seconds_[order[r]] - close_seconds);
    parked_.push_back({std::move(fresh[order[r]]), round, r, overhang});
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (in_round[i]) out.push_back(std::move(fresh[i]));
  }
  last_round_seconds_ = close_seconds;
  return out;
}

std::vector<Exchange> Channel::run_in_memory(std::size_t round,
                                             std::span<const ClientJob> jobs,
                                             const ClientFn& client_fn) {
  std::vector<Exchange> exchanges(jobs.size());
  std::vector<std::size_t> up_bytes(jobs.size(), 0), down_bytes(jobs.size(), 0);
  std::vector<std::size_t> dense_scalars(jobs.size(), 0);

  // The fast path fuses broadcast, compute, and collect into one pass, so the
  // whole thing reports as the exchange phase (encode/collect stay zero).
  const telemetry::StopWatch exchange_watch;
  ThreadPool::global().parallel_for(jobs.size(), [&](std::size_t i) {
    const ClientJob& job = jobs[i];
    down_bytes[i] = job.payload_copies * payload_bytes(*job.broadcast, job.mask);
    ClientResult result = client_fn(job, *job.broadcast, /*detached=*/false);
    const ModelMask* mask = result.update.mask.empty() ? nullptr : &result.update.mask;
    up_bytes[i] = result.payload_copies * payload_bytes(result.update.state, mask);
    dense_scalars[i] = job.payload_copies * job.broadcast->numel() +
                       result.payload_copies * result.update.state.numel();
    exchanges[i].client = job.client;
    exchanges[i].update = std::move(result.update);
    exchanges[i].state = std::move(result.state);
  });
  last_phase_seconds_ = {};
  last_phase_seconds_.exchange = exchange_watch.seconds();
  telemetry::record_span("transport_exchange", exchange_watch);

  last_fresh_arrival_order_.clear();  // no transport: simulated arrival order
  last_order_simulated_ = true;
  last_failed_.clear();
  finish_round(round, jobs, exchanges, up_bytes, down_bytes, dense_scalars);
  return exchanges;
}

std::vector<Exchange> Channel::run_materialized(std::size_t round,
                                                std::span<const ClientJob> jobs,
                                                const ClientFn& client_fn) {
  // Server side, downlink: one Broadcast envelope per sampled client. With
  // the delta codec the server also keeps its own decode of each payload —
  // the broadcast AS RECEIVED — so the uplink pass can add the reference back
  // without re-decoding the request envelope.
  std::vector<std::vector<std::uint8_t>> requests(jobs.size());
  std::vector<std::size_t> down_bytes(jobs.size(), 0);
  std::vector<StateDict> as_received(config_.delta ? jobs.size() : 0);
  const telemetry::StopWatch encode_watch;
  ThreadPool::global().parallel_for(jobs.size(), [&](std::size_t i) {
    Envelope broadcast;
    broadcast.kind = MessageKind::kBroadcast;
    broadcast.round = static_cast<std::uint32_t>(round);
    broadcast.client = static_cast<std::uint32_t>(jobs[i].client);
    broadcast.quantize = config_.quantize;
    broadcast.delta = config_.delta;
    broadcast.sections.push_back(
        encode_payload(*jobs[i].broadcast, jobs[i].mask, config_.quantize));
    down_bytes[i] = broadcast.sections[0].size();
    if (config_.delta) as_received[i] = decode_payload(broadcast.sections[0]);
    // Side-band client state DOWN (remote workers only; local transports get
    // empty job.state, so their request bytes are unchanged). Never charged.
    for (const StateDict& section : jobs[i].state) {
      broadcast.sections.push_back(encode_update(section, nullptr));
    }
    requests[i] = encode_envelope(broadcast);
  });
  last_phase_seconds_ = {};
  last_phase_seconds_.encode = encode_watch.seconds();
  telemetry::record_span("broadcast_encode", encode_watch);

  // Client side (possibly in a forked worker): decode the broadcast, compute,
  // encode the update through the same codec stack. `up_payload` records each
  // reply's charged (section-0) size for the arrival model — written by the
  // in-process loopback handler only; subprocess children write their copy,
  // which is fine because that transport ignores the model anyway.
  const bool detached = transport_->detached();
  std::vector<std::size_t> up_payload(jobs.size(), 0);
  const TransportHandler handler = [&](std::span<const std::uint8_t> request_bytes,
                                       std::size_t i) {
    const Envelope request = decode_envelope(request_bytes);
    SUBFEDAVG_CHECK(request.kind == MessageKind::kBroadcast && !request.sections.empty(),
                    "client expected a broadcast envelope");
    const StateDict received = decode_payload(request.sections[0]);
    ClientResult result = client_fn(jobs[i], received, detached);
    return encode_client_reply(config_, request.round, request.client, received,
                               std::move(result), &up_payload[i]);
  };

  // Replies come back in arrival order: genuine pipe order from subprocess
  // workers, the LinkFleet's simulated delivery order from loopback — the
  // order a buffered round closes on. The model deliberately uses the same
  // charged bytes as finish_round's per-exchange times (not the framed
  // envelope sizes), so buffer membership and round duration always agree.
  const ArrivalModel arrival = [&](std::size_t i, std::size_t /*request_bytes*/,
                                   std::size_t /*response_bytes*/) {
    return arrival_seconds({jobs[i].client, up_payload[i], down_bytes[i], 0.0});
  };
  const telemetry::StopWatch exchange_watch;
  std::vector<TransportArrival> landed = transport_->collect(requests, handler, arrival);
  last_phase_seconds_.exchange = exchange_watch.seconds();
  telemetry::record_span("transport_exchange", exchange_watch);

  const telemetry::StopWatch collect_watch;
  std::vector<std::vector<std::uint8_t>> responses(jobs.size());
  last_fresh_arrival_order_.clear();
  last_fresh_arrival_order_.reserve(landed.size());
  last_order_simulated_ = false;
  last_failed_.assign(jobs.size(), 0);
  std::size_t delivered = 0;
  std::string first_error;
  for (TransportArrival& reply : landed) {
    if (!reply.ok) {
      // A tolerant (tcp, buffered) transport reports a dead or timed-out
      // worker as a failed arrival: its update is evicted like any straggler
      // — the round still closes at buffer_k genuine arrivals.
      SUBFEDAVG_CHECK(config_.buffered, reply.error);  // sync transports throw instead
      last_failed_[reply.index] = 1;
      ++evicted_updates_;
      if (first_error.empty()) first_error = reply.error;
      continue;
    }
    ++delivered;
    last_fresh_arrival_order_.push_back(reply.index);
    responses[reply.index] = std::move(reply.response);
  }
  SUBFEDAVG_CHECK(delivered > 0 || jobs.empty(),
                  "every exchange in the round failed: " << first_error);

  // Server side, uplink: decode every reply; the delta codec adds back the
  // broadcast as the client received it (both ends derived that view from the
  // identical request bytes).
  std::vector<Exchange> exchanges(jobs.size());
  std::vector<std::size_t> up_bytes(jobs.size(), 0);
  std::vector<std::size_t> dense_scalars(jobs.size(), 0);
  ThreadPool::global().parallel_for(jobs.size(), [&](std::size_t i) {
    if (last_failed_[i] != 0) {
      // Evicted straggler: nothing arrived. The placeholder keeps indices
      // aligned; close_buffered_round never delivers it (it is absent from
      // the arrival order).
      exchanges[i].client = jobs[i].client;
      return;
    }
    const Envelope reply = decode_envelope(responses[i]);
    SUBFEDAVG_CHECK(reply.kind == MessageKind::kClientUpdate && !reply.sections.empty(),
                    "server expected a client-update envelope");
    SUBFEDAVG_CHECK(reply.client == jobs[i].client,
                    "update for client " << reply.client << " on client " << jobs[i].client
                                         << "'s exchange");
    Exchange& exchange = exchanges[i];
    exchange.client = jobs[i].client;
    up_bytes[i] = reply.sections[0].size();
    exchange.update.num_examples = static_cast<std::size_t>(reply.num_examples);
    exchange.update.state = decode_payload(reply.sections[0], &exchange.update.mask);
    if (config_.delta) {
      const ModelMask* mask = exchange.update.mask.empty() ? nullptr : &exchange.update.mask;
      apply_reference(exchange.update.state, mask, as_received[i]);
    }
    for (std::size_t s = 1; s < reply.sections.size(); ++s) {
      exchange.state.push_back(decode_update(reply.sections[s]));
    }
    dense_scalars[i] = jobs[i].broadcast->numel() + exchange.update.state.numel();
  });

  finish_round(round, jobs, exchanges, up_bytes, down_bytes, dense_scalars);
  last_phase_seconds_.collect = collect_watch.seconds();
  telemetry::record_span("collect", collect_watch);
  return exchanges;
}

void Channel::finish_round(std::size_t round, std::span<const ClientJob> jobs,
                           std::vector<Exchange>& exchanges,
                           std::span<const std::size_t> up_bytes,
                           std::span<const std::size_t> down_bytes,
                           std::span<const std::size_t> dense_scalars) {
  last_round_costs_.clear();
  last_round_costs_.reserve(jobs.size());
  last_arrival_seconds_.assign(jobs.size(), 0.0);
  last_round_seconds_ = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ledger_->record(round, up_bytes[i], down_bytes[i]);
    charged_bytes_ += up_bytes[i] + down_bytes[i];
    dense_reference_bytes_ += 4 * dense_scalars[i];
    last_round_costs_.push_back({jobs[i].client, up_bytes[i], down_bytes[i], 0.0});
    // Simulated completion time from the bytes the ledger charges: the
    // synchronous round lasts as long as the slowest; a buffered close
    // overwrites this with the K-th arrival.
    last_arrival_seconds_[i] = arrival_seconds(last_round_costs_.back());
    last_round_seconds_ = std::max(last_round_seconds_, last_arrival_seconds_[i]);
  }

  // Corruption is injected here — after the server decoded the upload, in
  // sampled order, from a per-round stream — so every transport and codec
  // yields the same corrupted cohort as the legacy in-memory path.
  if (config_.corrupt_fraction > 0.0) {
    Rng corrupt_rng = Rng(config_.seed).split("corrupt-updates", round);
    const CorruptionConfig corruption{1.0, static_cast<float>(config_.corrupt_noise)};
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
      // Draw for every exchange — failed ones included — so the corrupted
      // cohort stays aligned across transports; an evicted exchange is never
      // actually corrupted (nothing arrived to corrupt).
      if (!corrupt_rng.bernoulli(config_.corrupt_fraction)) continue;
      if (!last_failed_.empty() && last_failed_[i] != 0) continue;
      corrupt_update(exchanges[i].update, corruption, corrupt_rng);
      exchanges[i].corrupted = true;
      ++corrupted_updates_;
    }
  }
}

}  // namespace subfed
