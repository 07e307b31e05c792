#include "nn/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/fault.h"
#include "common/log.h"
#include "nn/snapshot.h"

namespace mfa::nn {
namespace {

constexpr char kMagic[8] = {'M', 'F', 'A', 'C', 'K', 'P', 'T', '2'};

// ---- serialisation into a memory image ----

template <typename T>
void append_pod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

std::string serialize(const Module& module, const CheckpointMeta* meta) {
  std::string image;
  image.append(kMagic, sizeof(kMagic));
  append_pod<std::uint32_t>(image, meta ? 1u : 0u);
  if (meta) {
    append_pod<std::int64_t>(image, meta->epoch);
    append_pod<float>(image, meta->learning_rate);
  }
  const auto state = module.state();
  append_pod<std::uint64_t>(image, state.size());
  for (const auto& [name, t] : state) {
    append_pod<std::uint32_t>(image, static_cast<std::uint32_t>(name.size()));
    image.append(name.data(), name.size());
    const auto& shape = t.shape();
    append_pod<std::uint32_t>(image, static_cast<std::uint32_t>(shape.size()));
    for (const auto d : shape) append_pod<std::int64_t>(image, d);
    image.append(reinterpret_cast<const char*>(t.data()),
                 static_cast<size_t>(t.numel()) * sizeof(float));
  }
  append_pod<std::uint32_t>(image, crc32(image.data(), image.size()));
  return image;
}

/// Writes `image` to `path` via temp file + fsync + rename, so the
/// destination is either the old file or the complete new one at every
/// instant. The fault point simulates a crash in the vulnerable window.
void write_atomic(const std::string& image, const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw std::runtime_error("checkpoint: cannot open '" + tmp +
                             "' for writing");
  size_t off = 0;
  while (off < image.size()) {
    const ssize_t n = ::write(fd, image.data() + off, image.size() - off);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      throw std::runtime_error("checkpoint: write failed for " + tmp);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("checkpoint: fsync failed for " + tmp);
  }
  ::close(fd);
  if (MFA_FAULT_POINT("checkpoint.crash_before_rename"))
    throw std::runtime_error(
        "checkpoint: fault-injected crash before rename (temp file left at " +
        tmp + ")");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("checkpoint: rename to '" + path + "' failed");
  }
}

void save_impl(const Module& module, const std::string& path,
               const CheckpointMeta* meta) {
  std::string image = serialize(module, meta);
  // Torn-write simulation: one flipped byte in the middle of the image must
  // be caught by the CRC footer at load time.
  if (MFA_FAULT_POINT("checkpoint.torn_write"))
    image[image.size() / 2] = static_cast<char>(image[image.size() / 2] ^ 0x40);
  write_atomic(image, path);
}

// ---- parsing from a memory image ----

/// Bounds-checked cursor over the loaded image; any read past the end means
/// the file was truncated. load_snapshot is its only user.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  T pod() {
    T value{};
    std::memcpy(&value, bytes(sizeof(T), "field"), sizeof(T));
    return value;
  }

  const char* bytes(size_t n, const char* what) {
    if (n > size_ - pos_)
      throw std::runtime_error(std::string("checkpoint: truncated ") + what);
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Reads `path` fully and verifies magic + CRC footer before any field is
/// trusted: a corrupt length or dim would otherwise drive allocation /
/// parsing off garbage.
std::string read_verified_image(const std::string& path) {
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in)
      throw std::runtime_error("checkpoint: cannot open '" + path +
                               "' for reading");
    std::ostringstream oss;
    oss << in.rdbuf();
    image = std::move(oss).str();
  }
  // Smallest valid image: magic + has_meta + count + footer.
  if (image.size() < sizeof(kMagic) + 4 + 8 + 4)
    throw std::runtime_error("checkpoint: truncated file " + path);
  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("checkpoint: bad magic in " + path);
  std::uint32_t stored = 0;
  std::memcpy(&stored, image.data() + image.size() - 4, 4);
  const std::uint32_t actual = crc32(image.data(), image.size() - 4);
  if (stored != actual)
    throw std::runtime_error(log::format(
        "checkpoint: CRC mismatch in %s (stored %08x, computed %08x)",
        path.c_str(), stored, actual));
  return image;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  // Table-driven reflected CRC32 (polynomial 0xEDB88320), table built once.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void save_checkpoint(const Module& module, const std::string& path) {
  save_impl(module, path, nullptr);
}

void save_checkpoint(const Module& module, const std::string& path,
                     const CheckpointMeta& meta) {
  save_impl(module, path, &meta);
}

void load_checkpoint(Module& module, const std::string& path,
                     CheckpointMeta* meta) {
  const WeightSnapshot snap = load_snapshot(path);
  validate_snapshot(snap, module);
  install_snapshot(snap, module);
  if (meta) *meta = snap.meta;
}

// Declared in nn/snapshot.h, defined here beside the writer so the format
// lives in one file.
WeightSnapshot load_snapshot(const std::string& path) {
  const std::string image = read_verified_image(path);
  Reader r(image.data() + sizeof(kMagic), image.size() - sizeof(kMagic) - 4);
  const auto has_meta = r.pod<std::uint32_t>();
  if (has_meta > 1)
    throw std::runtime_error(
        log::format("checkpoint: bad metadata flag %u", has_meta));
  WeightSnapshot snap;
  if (has_meta == 1) {
    snap.meta.epoch = r.pod<std::int64_t>();
    snap.meta.learning_rate = r.pod<float>();
  }
  const auto count = r.pod<std::uint64_t>();
  constexpr std::uint64_t kMaxEntries = 1u << 20;
  constexpr std::uint32_t kMaxNameLen = 4096;
  constexpr std::uint32_t kMaxRank = 16;
  if (count > kMaxEntries)
    throw std::runtime_error(log::format(
        "checkpoint: implausible entry count %llu",
        static_cast<unsigned long long>(count)));
  std::set<std::string> seen;
  snap.entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SnapshotEntry e;
    const auto name_len = r.pod<std::uint32_t>();
    if (name_len == 0 || name_len > kMaxNameLen)
      throw std::runtime_error(
          log::format("checkpoint: implausible name length %u", name_len));
    e.name.assign(r.bytes(name_len, "entry name"), name_len);
    if (!seen.insert(e.name).second)
      throw SnapshotError(
          SnapshotError::Kind::kDuplicateName,
          "checkpoint: duplicate entry '" + e.name + "' in " + path);
    const auto rank = r.pod<std::uint32_t>();
    if (rank > kMaxRank)
      throw std::runtime_error(log::format(
          "checkpoint: implausible rank %u for '%s'", rank, e.name.c_str()));
    e.shape.resize(rank);
    std::int64_t numel = 1;
    // The CRC-verified image bounds every plausible element count; checking
    // against it per-dim keeps the product from ever overflowing.
    const auto max_numel =
        static_cast<std::int64_t>(r.remaining() / sizeof(float));
    for (auto& d : e.shape) {
      d = r.pod<std::int64_t>();
      if (d < 0 || (d > 0 && numel > max_numel / d))
        throw std::runtime_error(
            log::format("checkpoint: implausible dim %lld for '%s'",
                        static_cast<long long>(d), e.name.c_str()));
      numel *= d;
    }
    // The remaining-byte bound in Reader::bytes caps the allocation: a
    // corrupt dim cannot drive it past the (CRC-verified) image size.
    const auto* raw = reinterpret_cast<const float*>(
        r.bytes(static_cast<size_t>(numel) * sizeof(float), "tensor data"));
    e.data.copy_from(raw, numel);
    snap.entries.push_back(std::move(e));
  }
  if (r.remaining() != 0)
    throw std::runtime_error(
        "checkpoint: trailing garbage after last tensor in " + path);
  return snap;
}

}  // namespace mfa::nn
