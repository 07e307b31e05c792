// Checkpointing: save/load a Module's whole state — its parameters, then
// its buffers such as batch-norm running statistics (Module::state) — to a
// simple self-describing binary file, so a congestion model can be trained
// once and reused across placement runs (or shipped with a release).
//
// Crash safety: every save is atomic — the image is serialised in memory,
// written to `<path>.tmp`, fsynced, and renamed over `path` — so a crash at
// any instant leaves either the previous checkpoint or a complete new one,
// never a torn file. A CRC32 footer over the whole image catches silent
// corruption (bit flips, short writes that somehow pass parsing) at load.
//
// Format (little-endian):
//   magic "MFACKPT2"
//   u32 has_meta; if 1: i64 epoch, f32 learning_rate
//   u64 entry count
//   per entry (parameters first, then buffers, in Module::state order):
//                  u32 name length, name bytes,
//                  u32 rank, i64 dims[rank], f32 data[numel]
//   u32 CRC32 of all preceding bytes
#pragma once

#include <cstdint>
#include <string>

#include "nn/module.h"

namespace mfa::nn {

/// Training-state metadata embedded in a checkpoint, enabling resume: which
/// epoch the snapshot closed and the learning rate in force (divergence
/// rollback halves it, and the halved value must survive a restart).
struct CheckpointMeta {
  std::int64_t epoch = -1;
  float learning_rate = 0.0f;
};

/// Writes the state of `module` to `path` atomically (temp + fsync +
/// rename) with a CRC32 footer. Throws std::runtime_error on I/O failure.
void save_checkpoint(const Module& module, const std::string& path);

/// Same, embedding training metadata for resumable runs.
void save_checkpoint(const Module& module, const std::string& path,
                     const CheckpointMeta& meta);

/// Loads a checkpoint into `module`: load_snapshot parses the whole file,
/// validate_snapshot matches its manifest against the module's state, and
/// only then is the state installed, so a rejected file leaves the module
/// untouched. Fills `meta` when non-null (fields keep their defaults for
/// checkpoints saved without metadata). Throws std::runtime_error on I/O
/// failure or corruption, SnapshotError on a manifest mismatch (including a
/// file written before checkpoints carried buffers: kCountMismatch).
void load_checkpoint(Module& module, const std::string& path,
                     CheckpointMeta* meta = nullptr);

/// CRC32 (IEEE 802.3, reflected) of `data[0..n)`, continuing from `crc`
/// (pass 0 to start). Exposed for tests that hand-corrupt checkpoints.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

}  // namespace mfa::nn
