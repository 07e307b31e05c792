#include "nn/snapshot.h"

#include <map>
#include <set>

#include "common/log.h"

namespace mfa::nn {

const char* to_string(SnapshotError::Kind kind) {
  switch (kind) {
    case SnapshotError::Kind::kCountMismatch: return "count_mismatch";
    case SnapshotError::Kind::kDuplicateName: return "duplicate_name";
    case SnapshotError::Kind::kUnknownParameter: return "unknown_parameter";
    case SnapshotError::Kind::kRankMismatch: return "rank_mismatch";
    case SnapshotError::Kind::kShapeMismatch: return "shape_mismatch";
    case SnapshotError::Kind::kSizeMismatch: return "size_mismatch";
  }
  return "?";
}

std::int64_t WeightSnapshot::total_floats() const {
  std::int64_t n = 0;
  for (const auto& e : entries) n += static_cast<std::int64_t>(e.data.size());
  return n;
}

WeightSnapshot snapshot_parameters(const Module& module) {
  WeightSnapshot snap;
  for (const auto& [name, t] : module.state()) {
    SnapshotEntry e;
    e.name = name;
    e.shape = t.shape();
    e.data.copy_from(t.data(), t.numel());
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

void validate_snapshot(const WeightSnapshot& snapshot, const Module& module) {
  const auto state = module.state();
  if (snapshot.entries.size() != state.size())
    throw SnapshotError(
        SnapshotError::Kind::kCountMismatch,
        log::format("snapshot: %zu entries vs %zu model state tensors",
                    snapshot.entries.size(), state.size()));
  std::map<std::string, const Tensor*> by_name;
  for (const auto& [name, t] : state) by_name[name] = &t;
  std::set<std::string> seen;
  for (const auto& e : snapshot.entries) {
    if (!seen.insert(e.name).second)
      throw SnapshotError(SnapshotError::Kind::kDuplicateName,
                          "snapshot: duplicate entry '" + e.name + "'");
    const auto it = by_name.find(e.name);
    if (it == by_name.end())
      throw SnapshotError(
          SnapshotError::Kind::kUnknownParameter,
          "snapshot: entry '" + e.name + "' names nothing in the model");
    const Tensor& target = *it->second;
    if (e.shape.size() != target.shape().size())
      throw SnapshotError(
          SnapshotError::Kind::kRankMismatch,
          log::format("snapshot: '%s' rank %zu vs model rank %zu",
                      e.name.c_str(), e.shape.size(), target.shape().size()));
    if (e.shape != target.shape())
      throw SnapshotError(
          SnapshotError::Kind::kShapeMismatch,
          "snapshot: '" + e.name + "' shape " + shape_str(e.shape) +
              " vs model " + shape_str(target.shape()));
    if (static_cast<std::int64_t>(e.data.size()) != shape_numel(e.shape))
      throw SnapshotError(
          SnapshotError::Kind::kSizeMismatch,
          log::format("snapshot: '%s' holds %zu floats for shape %s",
                      e.name.c_str(), e.data.size(),
                      shape_str(e.shape).c_str()));
  }
  // Count equal + every entry distinct and resolved => the mapping is a
  // bijection; no tensor of the model's state can be left unpublished.
}

void install_snapshot(const WeightSnapshot& snapshot, Module& module) {
  const auto state = module.state();
  MFA_CHECK_EQ(static_cast<std::int64_t>(snapshot.entries.size()),
               static_cast<std::int64_t>(state.size()))
      << " install_snapshot: run validate_snapshot first";
  const std::map<std::string, Tensor> by_name(state.begin(), state.end());
  for (const auto& e : snapshot.entries) {
    const auto it = by_name.find(e.name);
    MFA_CHECK(it != by_name.end())
        << " install_snapshot: unknown entry '" << e.name
        << "' (run validate_snapshot first)";
    auto impl = it->second.impl();
    MFA_CHECK_EQ(static_cast<std::int64_t>(e.data.size()),
                 static_cast<std::int64_t>(impl->data.size()))
        << " install_snapshot: size mismatch for '" << e.name << "'";
    // Share the block: the module now reads the snapshot's floats.
    impl->data = e.data;
  }
}

}  // namespace mfa::nn
