// Weight snapshots: a module's whole state (parameters, then buffers such
// as batch-norm running statistics; see Module::state) as a named list of
// immutable buffers. The same type carries a checkpoint file into a model
// (load_snapshot, then validate_snapshot, then install_snapshot is what
// load_checkpoint does) and hot-swaps weights into a serving model.
//
// A WeightSnapshot owns one refcounted tensor::Storage handle per entry.
// install_snapshot shares those handles into the module's tensors — a
// refcount bump per entry, no data copy — so every in-flight forward pass
// that started before a swap keeps reading the blocks it captured while new
// passes read the new ones; the old blocks return to the pool when the last
// reader drops. The convention that makes this safe: a snapshot's storages
// are immutable once built, and a module serving from a live snapshot is
// inference-only (optimizers and training-mode batch norm would write
// through the shared blocks). load_checkpoint drops its snapshot on return,
// so the module it loaded owns the blocks outright.
//
// Validation is strict and typed: a manifest that does not match the model
// (wrong architecture, renamed layer, reshaped tensor, duplicate entries,
// missing batch-norm statistics) throws SnapshotError carrying a
// machine-checkable Kind, so a serving loop can distinguish "reject this
// snapshot, keep serving the old one" from an I/O failure worth retrying.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "nn/checkpoint.h"
#include "nn/module.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"

namespace mfa::nn {

/// Typed rejection of a weight snapshot. Derives from CheckError (a rejected
/// snapshot is a broken contract between trainer and server, not an
/// environmental condition), with a Kind for dispatch in recovery code.
class SnapshotError : public check::CheckError {
 public:
  enum class Kind {
    kCountMismatch,    // entry count != size of the module's state
    kDuplicateName,    // the same name appears twice
    kUnknownParameter, // an entry names no parameter or buffer of the module
    kRankMismatch,     // entry and module tensor disagree on rank
    kShapeMismatch,    // same rank, different dims
    kSizeMismatch,     // storage length disagrees with the entry's shape
  };

  SnapshotError(Kind kind, const std::string& what)
      : check::CheckError(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

const char* to_string(SnapshotError::Kind kind);

/// One immutable state buffer plus the manifest entry describing it.
struct SnapshotEntry {
  std::string name;
  Shape shape;
  tensor::Storage data;  // treat as read-only once the snapshot is built
};

struct WeightSnapshot {
  std::vector<SnapshotEntry> entries;
  /// Training metadata carried over when the snapshot came from a
  /// checkpoint (defaults when built directly from a module).
  CheckpointMeta meta;

  std::int64_t total_floats() const;
};

/// Deep-copies the module's state (every parameter and buffer) into fresh
/// pooled storages. O(state bytes) — done once per publication, never per
/// request.
WeightSnapshot snapshot_parameters(const Module& module);

/// The one manifest check: verifies that `snapshot` is exactly publishable
/// into `module` — as many entries as the module has state tensors, every
/// entry naming a distinct parameter or buffer with an identical shape,
/// every storage sized to its shape. Throws SnapshotError on the first
/// violation; returns normally otherwise. Read-only on both sides, so it is
/// safe to run against a model that is concurrently serving.
void validate_snapshot(const WeightSnapshot& snapshot, const Module& module);

/// Shares the snapshot's storages into the module's state tensors (refcount
/// bump per entry, no float copy). Callers must validate_snapshot() first;
/// this function re-checks cheaply via MFA_CHECK and must only be called on
/// a module that no other thread is reading mid-forward.
void install_snapshot(const WeightSnapshot& snapshot, Module& module);

/// The one reader of the "MFACKPT2" format (see nn/checkpoint.h): parses a
/// checkpoint file, magic and CRC32 verified before any field is read, into
/// a standalone snapshot without needing a module of the right architecture
/// up front. Validation against a model is the caller's job
/// (validate_snapshot) — the whole point is to reject a wrong-architecture
/// file *before* anything touches live weights. Throws std::runtime_error on
/// I/O or corruption, SnapshotError (kDuplicateName) on files with duplicate
/// entries.
WeightSnapshot load_snapshot(const std::string& path);

}  // namespace mfa::nn
