#include "nn/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "robust/fault_injector.h"
#include "util/crc32.h"
#include "util/csv.h"

namespace kglink::nn {

namespace {

constexpr uint32_t kMagic = 0x4b474c4bu;  // "KGLK"
// v2: CRC32 footer over the whole payload; torn or bit-flipped files load
// as kCorruption instead of a silently wrong model.
constexpr uint32_t kVersion = 2;
constexpr size_t kCrcBytes = sizeof(uint32_t);

template <typename T>
void AppendPod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Bounds-checked sequential reader over the in-memory payload.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool ReadPod(T* v) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(void* dst, size_t n) {
    if (data_.size() - pos_ < n) return false;
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

Status SaveTensors(const std::string& path,
                   const std::vector<NamedParam>& params) {
  std::string payload;
  AppendPod(payload, kMagic);
  AppendPod(payload, kVersion);
  AppendPod(payload, static_cast<uint32_t>(params.size()));
  for (const auto& p : params) {
    AppendPod(payload, static_cast<uint32_t>(p.name.size()));
    payload.append(p.name);
    const auto& shape = p.tensor.shape();
    AppendPod(payload, static_cast<uint32_t>(shape.size()));
    for (int d : shape) AppendPod(payload, static_cast<int32_t>(d));
    const auto& data = p.tensor.data();
    payload.append(reinterpret_cast<const char*>(data.data()),
                   data.size() * sizeof(float));
  }
  AppendPod(payload, Crc32(payload));

  // "io.write" fault: simulate a torn write — a truncated temp file is
  // left behind and the previous checkpoint at `path` stays untouched.
  if (robust::MaybeInject(robust::FaultSite::kIoWrite)) {
    std::ofstream torn(path + ".tmp", std::ios::binary | std::ios::trunc);
    torn.write(payload.data(),
               static_cast<std::streamsize>(payload.size() / 2));
    return Status::IoError("injected torn write: " + path);
  }
  // Durable atomic publish (temp + fsync + rename): a crash mid-save
  // never replaces a good checkpoint with a partial one, even across
  // power loss.
  return WriteFileDurable(path, payload);
}

Status LoadTensors(const std::string& path, std::vector<NamedParam>* params) {
  if (robust::MaybeInject(robust::FaultSite::kIoRead)) {
    return Status::IoError("injected fault at io.read: " + path);
  }
  KGLINK_ASSIGN_OR_RETURN(std::string blob, ReadFile(path));
  if (blob.size() < 3 * sizeof(uint32_t) + kCrcBytes) {
    return Status::Corruption("checkpoint too small: " + path);
  }
  std::string_view payload(blob.data(), blob.size() - kCrcBytes);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, blob.data() + payload.size(), kCrcBytes);
  if (Crc32(payload) != stored_crc) {
    return Status::Corruption("checkpoint CRC mismatch: " + path);
  }

  ByteReader in(payload);
  uint32_t magic = 0, version = 0, count = 0;
  if (!in.ReadPod(&magic) || magic != kMagic) {
    return Status::Corruption("bad checkpoint magic: " + path);
  }
  if (!in.ReadPod(&version)) {
    return Status::Corruption("truncated checkpoint version");
  }
  if (version > kVersion) {
    // A newer writer produced this file; the file itself is fine. Keep the
    // error distinct from corruption so callers don't quarantine it.
    return Status::VersionSkew("checkpoint format v" + std::to_string(version) +
                               " is newer than this binary's v" +
                               std::to_string(kVersion) + ": " + path);
  }
  if (version != kVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  if (!in.ReadPod(&count)) return Status::Corruption("truncated checkpoint");

  std::unordered_map<std::string, NamedParam*> by_name;
  for (auto& p : *params) by_name[p.name] = &p;
  size_t loaded = 0;

  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!in.ReadPod(&name_len) || name_len > 4096) {
      return Status::Corruption("bad tensor name length");
    }
    std::string name(name_len, '\0');
    if (!in.ReadBytes(name.data(), name_len)) {
      return Status::Corruption("truncated tensor name");
    }
    uint32_t ndims = 0;
    if (!in.ReadPod(&ndims) || ndims > 8) {
      return Status::Corruption("bad tensor rank");
    }
    std::vector<int> shape(ndims);
    uint64_t numel = 1;
    for (auto& d : shape) {
      int32_t v = 0;
      if (!in.ReadPod(&v) || v <= 0) {
        return Status::Corruption("bad tensor dim");
      }
      d = v;
      numel *= static_cast<uint64_t>(v);
    }
    // An impossible element count means a corrupt header; check against
    // the remaining bytes before allocating.
    if (numel * sizeof(float) > in.remaining()) {
      return Status::Corruption("tensor data exceeds file size");
    }
    std::vector<float> data(static_cast<size_t>(numel));
    if (!in.ReadBytes(data.data(), data.size() * sizeof(float))) {
      return Status::Corruption("truncated tensor data");
    }

    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::Corruption("checkpoint has unknown tensor: " + name);
    }
    NamedParam* target = it->second;
    if (target->tensor.shape() != shape) {
      return Status::Corruption("shape mismatch for tensor: " + name);
    }
    target->tensor.data() = std::move(data);
    ++loaded;
  }
  if (loaded != params->size()) {
    return Status::Corruption("checkpoint missing tensors");
  }
  return Status::Ok();
}

}  // namespace kglink::nn
