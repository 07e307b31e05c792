#include "tensor/tape.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/sanitize.h"

namespace mfa::tensor {

namespace {

// Process-wide counters exported to mfa::obs (leaky singleton, same rationale
// as the pool/sanitizer registries: tapes are thread_local and may die on
// worker-thread exit, so the obs source must outlive them all).
struct GlobalStats {
  std::atomic<std::int64_t> nodes_recorded{0};
  std::atomic<std::int64_t> backwards{0};

  GlobalStats() {
    obs::Registry::instance().register_source("tape", [this] {
      return std::vector<std::pair<std::string, double>>{
          {"nodes_recorded", static_cast<double>(nodes_recorded.load())},
          {"backwards", static_cast<double>(backwards.load())},
      };
    });
  }
};

GlobalStats& gstats() {
  static GlobalStats* s = new GlobalStats;
  return *s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tape — recording

Tape& Tape::current() {
  thread_local Tape tape;
  return tape;
}

std::int32_t Tape::record(const char* op_name,
                          std::shared_ptr<mfa::detail::TensorImpl> out,
                          const std::vector<Tensor>& inputs,
                          std::function<void(mfa::detail::TensorImpl&)> fn) {
  MFA_CHECK(!executing_)
      << " make_result while backward() is executing: taped ops inside a "
         "backward closure are not supported";
  const auto id = static_cast<std::int32_t>(nodes_.size());
  const auto parent_begin = static_cast<std::uint32_t>(parents_.size());
  for (const auto& in : inputs) {
    if (!in.defined()) continue;
    auto impl = in.impl();
    // An input recorded before the last retire is a leaf of this graph: its
    // producing closure is gone, so gradient flow stops there (it keeps the
    // gradient scattered into it, like any parameter).
    const std::int32_t parent_node =
        (impl->tape_epoch == epoch_ && impl->tape_id >= 0) ? impl->tape_id
                                                           : -1;
    parents_.push_back({std::move(impl), parent_node});
  }
  nodes_.push_back(Node{op_name, std::move(out), std::move(fn), parent_begin,
                        static_cast<std::uint32_t>(parents_.size())});
  gstats().nodes_recorded.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---------------------------------------------------------------------------
// Tape — planning

void Tape::plan_order(const std::int32_t* roots, std::size_t num_roots) {
  const std::size_t node_count = nodes_.size();
  plan_grow(visit_, node_count);
  if (++visit_token_ == 0) {
    std::fill(visit_.begin(), visit_.end(), 0u);
    visit_token_ = 1;
  }
  plan_grow(order_, node_count);
  plan_grow(stack_, node_count);
  // Iterative post-order DFS over node ids, parents in op-input order — the
  // exact traversal the closure-web walker used, so the reversed result
  // preserves its gradient accumulation order bit for bit. Leaves carry no
  // closure and are skipped; their relative position never influenced the
  // order of real nodes (each was a size-1 subtree).
  //
  // Multi-root backward restarts the DFS per root over the same visited set
  // and reverses the concatenated post-orders. That is a topological order
  // of the union DAG: for any consumer->parent edge the parent finishes
  // first (a parent still on the stack would imply a cycle), so it lands
  // earlier in post-order and later in execution order, exactly as needed.
  std::size_t sp = 0;
  std::size_t produced = 0;
  for (std::size_t r = 0; r < num_roots; ++r) {
    const std::int32_t root_id = roots[r];
    if (visit_[static_cast<std::size_t>(root_id)] == visit_token_) continue;
    visit_[static_cast<std::size_t>(root_id)] = visit_token_;
    stack_[sp++] = DfsFrame{root_id, 0};
    while (sp > 0) {
      DfsFrame& f = stack_[sp - 1];
      const Node& n = nodes_[static_cast<std::size_t>(f.node)];
      const std::uint32_t parent_count = n.parent_end - n.parent_begin;
      bool descended = false;
      while (f.next < parent_count) {
        const ParentRef& pr = parents_[n.parent_begin + f.next];
        ++f.next;
        const std::int32_t pn = pr.node;
        if (pn < 0 || visit_[static_cast<std::size_t>(pn)] == visit_token_)
          continue;
        visit_[static_cast<std::size_t>(pn)] = visit_token_;
        stack_[sp++] = DfsFrame{pn, 0};
        descended = true;
        break;
      }
      if (descended) continue;
      order_[produced++] = f.node;
      --sp;
    }
  }
  // Reverse post-order = execution order (roots first).
  order_.resize(produced);
  std::reverse(order_.begin(), order_.end());
}

// ---------------------------------------------------------------------------
// Tape — execution

void Tape::scan_grad_finite(mfa::detail::TensorImpl* impl) const {
  bool ok = true;
  for (const float v : impl->grad)
    if (!std::isfinite(v)) {
      ok = false;
      break;
    }
  if (ok) return;
  const std::string what = log::format(
      "backward() gradient of tensor shape %s (written by tape node #%lld)",
      shape_str(impl->shape).c_str(),
      static_cast<long long>(impl->last_grad_writer));
  check::check_all_finite(impl->grad.data(),
                          static_cast<std::int64_t>(impl->grad.size()),
                          what.c_str());
}

void Tape::run_seq(bool scan_grads) {
  if (scan_grads) {
    // Reset the writer attribution stamped by a previous walk, and collect
    // the reachable leaves (deduplicated via plan stamps) so their final
    // gradients are scanned after the walk — a leaf keeps its gradient for
    // the optimizer, so a NaN scattered into it must still be caught.
    ++plan_token_;
    leaves_.clear();
    for (const std::int32_t id : order_) {
      const Node& n = nodes_[static_cast<std::size_t>(id)];
      n.out->last_grad_writer = -1;
      for (std::uint32_t p = n.parent_begin; p < n.parent_end; ++p) {
        if (parents_[p].node >= 0) continue;
        mfa::detail::TensorImpl* leaf = parents_[p].impl.get();
        if (leaf->plan_stamp == plan_token_) continue;
        leaf->plan_stamp = plan_token_;
        leaf->last_grad_writer = -1;
        leaves_.push_back(leaf);
      }
    }
  }
  const std::size_t m = order_.size();
  for (std::size_t pos = 0; pos < m; ++pos) {
    Node& n = nodes_[static_cast<std::size_t>(order_[pos])];
    // Dirty-set NaN/Inf guard: a node's gradient is final when the walk
    // reaches it (all consumers already ran), so it is scanned exactly once.
    if (scan_grads && !n.out->grad.empty()) scan_grad_finite(n.out.get());
    {
      // Backtrace-lite for mfa::sanitize: violations raised inside this
      // closure report the op that recorded it plus its position in the
      // execution order.
      const sanitize::OpScope op_scope(n.op_name ? n.op_name : "backward",
                                       static_cast<std::int64_t>(pos));
      n.fn(*n.out);
    }
    if (MFA_FAULT_POINT("tensor.nan_grad") && n.parent_end > n.parent_begin) {
      auto& pg = parents_[n.parent_begin].impl->grad;
      if (!pg.empty()) pg[0] = std::numeric_limits<float>::quiet_NaN();
    }
    if (scan_grads)
      for (std::uint32_t p = n.parent_begin; p < n.parent_end; ++p)
        parents_[p].impl->last_grad_writer = static_cast<std::int32_t>(pos);
    // The node is retired: its gradient was fully scattered into the
    // parents, and no later node reads it (reverse topo order), so the
    // buffer goes back to the pool now instead of when the tape retires.
    // Leaves keep their gradient for the optimizer.
    n.out->grad.reset();
  }
  if (scan_grads)
    for (mfa::detail::TensorImpl* leaf : leaves_)
      if (!leaf->grad.empty()) scan_grad_finite(leaf);
}

void Tape::retire() {
  nodes_.clear();
  parents_.clear();
  ++epoch_;
}

void Tape::execute_backward(
    const std::shared_ptr<mfa::detail::TensorImpl>& root) {
  root->ensure_grad();
  root->grad[0] = 1.0f;
  const bool on_tape =
      root->tape_id >= 0 && root->tape_epoch == epoch_ &&
      static_cast<std::size_t>(root->tape_id) < nodes_.size();
  if (!on_tape) {
    gstats().backwards.fetch_add(1, std::memory_order_relaxed);
    // Leaf root (parameter, detached tensor, or survivor of a retired
    // graph): d(root)/d(root) = 1 and nothing propagates. The recorded
    // graph, if any, stays live for a later backward from a taped root.
    return;
  }
  root_ids_.clear();
  root_ids_.push_back(root->tape_id);
  run_planned();
}

void Tape::execute_backward(
    const std::vector<std::shared_ptr<mfa::detail::TensorImpl>>& roots) {
  root_ids_.clear();
  for (const auto& root : roots) {
    // Seed with += (not =): the pass computes d(sum of roots)/dθ, and a
    // root listed twice contributes twice, matching the sum semantics.
    root->ensure_grad();
    root->grad[0] += 1.0f;
    const bool on_tape =
        root->tape_id >= 0 && root->tape_epoch == epoch_ &&
        static_cast<std::size_t>(root->tape_id) < nodes_.size();
    if (on_tape) root_ids_.push_back(root->tape_id);
  }
  if (root_ids_.empty()) {
    // Every root is a leaf: each got its seed, nothing propagates, and the
    // recorded graph (if any) stays live — same contract as the single-root
    // leaf case.
    gstats().backwards.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  run_planned();
}

void Tape::run_planned() {
  gstats().backwards.fetch_add(1, std::memory_order_relaxed);
  MFA_CHECK(!executing_) << " re-entrant backward()";
  executing_ = true;
  const bool scan_grads = check::finite_grad_checks_enabled();
  try {
    plan_order(root_ids_.data(), root_ids_.size());
    last_plan_.nodes = static_cast<std::int64_t>(order_.size());
    run_seq(scan_grads);
  } catch (...) {
    // Retire even on failure: closures up to the fault already scattered
    // partial gradients, the rest never will — the graph is unusable, and a
    // later forward must start from a clean tape (the FiniteGradGuard
    // recovery path in tests/test_check.cpp depends on this).
    executing_ = false;
    retire();
    throw;
  }
  executing_ = false;
  retire();
}

}  // namespace mfa::tensor
