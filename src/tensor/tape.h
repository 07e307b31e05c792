// mfa::tensor::Tape — explicit per-thread autograd tape.
//
// Before this layer existed, every op that produced a grad-requiring output
// linked a std::shared_ptr<TensorImpl> web: each node owned its backward
// closure plus shared_ptr edges to its parents, and Tensor::backward()
// walked that web with a fresh unordered_set + frame stack per call. The
// tape makes both costs explicit and fixes them:
//
//  * Representation. make_result records into the calling thread's Tape: a
//    flat std::vector of plain nodes (op name, backward thunk, parent index
//    range into one shared parent array) instead of a pointer web. Every
//    buffer, intermediate or leaf, comes from StoragePool. backward() retires
//    the WHOLE tape when it completes (success or exception): closures are
//    dropped and node slots recycle in one bulk step instead of one refcount
//    chain collapse per node.
//
//  * Execution. backward() plans a reverse-topological order over the
//    recorded graph (one iterative DFS into reused, epoch-stamped scratch, so
//    the steady state allocates nothing) and runs the closures one after
//    another on the calling thread. Each closure parallelises internally via
//    parallel_for, and gradient accumulation into a shared parent follows the
//    fixed execution order, so the result is bit-identical for any
//    MFA_THREADS — pinned by the golden hash. Each node's gradient buffer is
//    released as soon as the walk passes it.
//
// With finite-grad scanning on (check::finite_grad_checks_enabled(), seeded
// from MFA_CHECK_FINITE_GRADS), the walk scans each gradient once, when it
// is final, and names the tape node that last wrote it.
//
// Thread model: Tape::current() is thread_local. A graph must be recorded
// and executed on one thread (true for every current caller: trainer, flow,
// serve workers each build and backprop on their own thread). Closures call
// parallel_for freely.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace mfa::tensor {

/// Shape of the last planned backward, for tests and benchmarks.
struct TapePlanStats {
  std::int64_t nodes = 0;  // reachable nodes executed
  // Always 0: the walk runs every closure on the calling thread. Kept because
  // perfbench's train workload still exports it as
  // tensor.backward_parallel_tasks.
  std::int64_t parallel_tasks = 0;
};

/// The per-thread autograd tape. Ops record through Tensor::make_result;
/// Tensor::backward() delegates to execute_backward().
class Tape {
 public:
  /// The calling thread's tape (constructed on first use).
  static Tape& current();

  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // ---- recording (called by Tensor::make_result) ----

  /// Appends a node; returns its id. `op_name` must have static storage
  /// duration (or be null). Parent refs are resolved against the current
  /// epoch: an input recorded before the last retire is treated as a leaf.
  std::int32_t record(const char* op_name,
                      std::shared_ptr<mfa::detail::TensorImpl> out,
                      const std::vector<Tensor>& inputs,
                      std::function<void(mfa::detail::TensorImpl&)> fn);

  /// Monotonic tape generation; bumped by every retire. A TensorImpl's
  /// (tape_id, tape_epoch) pair is valid only while the epochs match.
  std::uint64_t epoch() const { return epoch_; }

  /// Nodes currently recorded (live, pre-retire). Test/diagnostic hook.
  std::int64_t recorded_nodes() const {
    return static_cast<std::int64_t>(nodes_.size());
  }

  // ---- execution (called by Tensor::backward) ----

  /// Runs reverse-mode AD from `root` (already validated as a scalar), then
  /// retires the whole tape — also on exception, so a later graph starts
  /// clean after a throwing backward.
  void execute_backward(const std::shared_ptr<mfa::detail::TensorImpl>& root);

  /// Multi-root variant: computes the gradient of the SUM of the (scalar)
  /// roots in one reverse pass over the union of their subgraphs — the
  /// two-head training shape (main loss + auxiliary head, or a cGAN's
  /// generator/discriminator pair sharing a trunk). Each root is seeded with
  /// +1 (a root listed twice therefore contributes twice); roots that are
  /// leaves or ancestors of other roots are both fine — an interior root
  /// simply receives its seed on top of the gradient scattered by its
  /// consumers. The execution order is the reverse of the concatenated DFS
  /// post-orders (restarted per root over one shared visited set), a linear
  /// extension of the union DAG, so accumulation into shared parents keeps
  /// one fixed order and the result is bit-identical for any MFA_THREADS.
  void execute_backward(
      const std::vector<std::shared_ptr<mfa::detail::TensorImpl>>& roots);

  // ---- diagnostics ----

  const TapePlanStats& last_plan() const { return last_plan_; }

  /// Cumulative count of plan-buffer capacity growths on this thread's tape.
  /// Zero growth over an iteration proves backward() bookkeeping allocates
  /// nothing in the steady state (test_tape.cpp asserts it after warm-up).
  std::int64_t plan_grow_events() const { return plan_grow_events_; }

 private:
  struct ParentRef {
    std::shared_ptr<mfa::detail::TensorImpl> impl;  // autograd edge
    std::int32_t node;  // producing node id, or -1 for a leaf
  };

  struct Node {
    const char* op_name;
    std::shared_ptr<mfa::detail::TensorImpl> out;
    std::function<void(mfa::detail::TensorImpl&)> fn;
    std::uint32_t parent_begin;
    std::uint32_t parent_end;
  };

  struct DfsFrame {
    std::int32_t node;
    std::uint32_t next;  // next parent slot to visit
  };

  void plan_order(const std::int32_t* roots, std::size_t num_roots);
  void run_planned();  // plan + execute + retire from root_ids_
  void run_seq(bool scan_grads);
  void scan_grad_finite(mfa::detail::TensorImpl* impl) const;
  void retire();

  /// Reserves n slots in a reused plan vector, counting capacity growth.
  template <typename T>
  void plan_grow(std::vector<T>& v, std::size_t n) {
    if (v.capacity() < n) {
      ++plan_grow_events_;
      v.reserve(n);
    }
    v.resize(n);
  }

  // ---- recorded graph ----
  std::vector<Node> nodes_;
  std::vector<ParentRef> parents_;
  std::uint64_t epoch_ = 1;
  bool executing_ = false;

  // ---- plan scratch, reused across backward() calls (epoch-stamped visit
  // marks instead of a per-call unordered_set) ----
  std::vector<std::uint32_t> visit_;  // per node id, stamped with visit token
  std::uint32_t visit_token_ = 0;
  std::uint64_t plan_token_ = 0;  // stamps TensorImpl::plan_stamp
  std::vector<DfsFrame> stack_;
  std::vector<std::int32_t> order_;  // execution order (root first)
  std::vector<std::int32_t> root_ids_;  // taped roots of the current backward
  std::vector<mfa::detail::TensorImpl*> leaves_;  // scan-mode leaf list
  std::int64_t plan_grow_events_ = 0;

  TapePlanStats last_plan_;
};

}  // namespace mfa::tensor
