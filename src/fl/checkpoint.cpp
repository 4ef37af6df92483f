#include "fl/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "comm/serialize.h"
#include "util/byte_reader.h"
#include "util/check.h"

namespace subfed {

namespace {

constexpr std::uint32_t kMagic = 0x53464350;         // "SFCP" (legacy Sub-FedAvg)
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kGenericMagic = 0x53464347;  // "SFCG" (generic sections)
constexpr std::uint32_t kGenericVersion = 1;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_blob(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& blob) {
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

/// ModelMask ↔ StateDict bridging so masks reuse the tensor wire format.
StateDict mask_to_state(const ModelMask& mask) {
  StateDict state;
  for (const auto& [name, tensor] : mask) state.add(name, tensor);
  return state;
}

std::vector<std::uint8_t> channel_mask_bytes(const ChannelMask& mask) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(mask.num_blocks()));
  for (std::size_t b = 0; b < mask.num_blocks(); ++b) {
    put_u32(out, static_cast<std::uint32_t>(mask.block(b).size()));
    out.insert(out.end(), mask.block(b).begin(), mask.block(b).end());
  }
  return out;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& out) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  SUBFEDAVG_CHECK(f != nullptr, "cannot open checkpoint for writing: " << path);
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  SUBFEDAVG_CHECK(written == out.size(), "short checkpoint write: " << path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  // fopen happily opens directories on Linux and ftell then reports LONG_MAX;
  // reject non-files up front so bad paths throw instead of allocating wild.
  SUBFEDAVG_CHECK(std::filesystem::is_regular_file(path),
                  "checkpoint is not a regular file: " << path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SUBFEDAVG_CHECK(f != nullptr, "cannot open checkpoint: " << path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    SUBFEDAVG_CHECK(false, "cannot size checkpoint: " << path);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  SUBFEDAVG_CHECK(read == bytes.size(), "short checkpoint read: " << path);
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> encode_state_sections(std::string_view name,
                                                const std::vector<StateDict>& sections) {
  std::vector<std::uint8_t> out;
  put_u32(out, kGenericMagic);
  put_u32(out, kGenericVersion);
  put_blob(out, std::vector<std::uint8_t>(name.begin(), name.end()));
  put_u32(out, static_cast<std::uint32_t>(sections.size()));
  for (const StateDict& section : sections) {
    put_blob(out, encode_update(section, nullptr));
  }
  return out;
}

std::vector<StateDict> decode_state_sections(std::span<const std::uint8_t> bytes,
                                             std::string_view expect_name) {
  ByteReader reader(bytes, "checkpoint");
  SUBFEDAVG_CHECK(reader.u32() == kGenericMagic, "bad checkpoint magic");
  SUBFEDAVG_CHECK(reader.u32() == kGenericVersion, "unsupported checkpoint version");
  const std::span<const std::uint8_t> name_bytes = reader.blob();
  const std::string name(name_bytes.begin(), name_bytes.end());
  SUBFEDAVG_CHECK(name == expect_name, "checkpoint was written by '"
                                           << name << "', loading into '" << expect_name
                                           << "'");
  // Each section costs at least its 4-byte blob length.
  const std::uint32_t count = reader.u32();
  SUBFEDAVG_CHECK(count <= reader.remaining() / 4,
                  "checkpoint claims " << count << " sections in " << reader.remaining()
                                       << " bytes");
  std::vector<StateDict> sections;
  sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    sections.push_back(decode_update(reader.blob()));
  }
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in checkpoint");
  return sections;
}

std::vector<std::uint8_t> checkpoint_bytes(FederatedAlgorithm& algorithm) {
  return encode_state_sections(algorithm.name(), algorithm.checkpoint_state());
}

void restore_checkpoint_bytes(FederatedAlgorithm& algorithm,
                              std::span<const std::uint8_t> bytes) {
  algorithm.restore_checkpoint_state(decode_state_sections(bytes, algorithm.name()));
}

void save_checkpoint(FederatedAlgorithm& algorithm, const std::string& path) {
  write_file(path, checkpoint_bytes(algorithm));
}

void load_checkpoint(FederatedAlgorithm& algorithm, const std::string& path) {
  restore_checkpoint_bytes(algorithm, read_file(path));
}

CheckpointObserver::CheckpointObserver(FederatedAlgorithm& algorithm, std::string path,
                                       std::size_t every)
    : algorithm_(algorithm), path_(std::move(path)), every_(every) {
  SUBFEDAVG_CHECK(!path_.empty(), "checkpoint path is empty");
}

void CheckpointObserver::on_round_end(const RoundEndInfo& info) {
  last_round_ = info.round;
  if (every_ == 0 || info.round % every_ != 0) return;
  save_checkpoint(algorithm_, path_);
  last_saved_round_ = info.round;
  ++snapshots_;
}

void CheckpointObserver::on_run_end(const RunResult& /*result*/) {
  // Skip the final save when the last executed round already snapshotted —
  // at paper scale rewriting an identical multi-hundred-MB state is pure I/O.
  if (snapshots_ > 0 && last_saved_round_ == last_round_) return;
  save_checkpoint(algorithm_, path_);
  ++snapshots_;
}

void save_subfedavg_checkpoint(SubFedAvg& algorithm, const std::string& path) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_blob(out, encode_update(algorithm.global_state(), nullptr));
  put_u32(out, static_cast<std::uint32_t>(algorithm.num_clients()));
  for (std::size_t k = 0; k < algorithm.num_clients(); ++k) {
    SubFedAvgClient& client = algorithm.client(k);
    put_blob(out, encode_update(client.personal_state(), nullptr));
    put_blob(out, encode_update(mask_to_state(client.weight_mask()), nullptr));
    put_blob(out, channel_mask_bytes(client.channel_mask()));
  }

  write_file(path, out);
}

void load_subfedavg_checkpoint(SubFedAvg& algorithm, const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  ByteReader reader(bytes, "checkpoint");
  SUBFEDAVG_CHECK(reader.u32() == kMagic, "bad checkpoint magic");
  SUBFEDAVG_CHECK(reader.u32() == kVersion, "unsupported checkpoint version");

  // Re-expressed as the generic sections, so the SFCG restore path decodes
  // and checks every client's masks before installing anything.
  std::vector<StateDict> sections;
  sections.push_back(decode_update(reader.blob()));
  const std::uint32_t clients = reader.u32();
  SUBFEDAVG_CHECK(clients == algorithm.num_clients(),
                  "checkpoint has " << clients << " clients, federation has "
                                    << algorithm.num_clients());
  for (std::uint32_t k = 0; k < clients; ++k) {
    sections.push_back(decode_update(reader.blob()));  // personal state
    sections.push_back(decode_update(reader.blob()));  // weight mask
    // Channel mask: block count, then per block a size and one keep byte per
    // channel, as "block<b>" flag tensors.
    ByteReader cm(reader.blob(), "checkpoint channel mask");
    StateDict channels;
    const std::uint32_t blocks = cm.u32();
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const std::span<const std::uint8_t> flags = cm.blob();
      std::vector<float> keep(flags.begin(), flags.end());
      const Shape shape{keep.size()};
      channels.add("block" + std::to_string(b), Tensor(shape, std::move(keep)));
    }
    SUBFEDAVG_CHECK(cm.done(), "trailing channel-mask bytes");
    sections.push_back(std::move(channels));
  }
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in checkpoint");
  algorithm.restore_checkpoint_state(std::move(sections));
}

}  // namespace subfed
