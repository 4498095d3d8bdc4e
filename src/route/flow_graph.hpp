// Arena-friendly flow network: structure-of-arrays arc storage with a CSR
// adjacency index, built once per solve and reused across δ-probes, plus
// the max-flow solvers that run over it.
//
// Arc 2k and its residual twin 2k+1 are xor-paired; arcs live in flat
// arrays and per-node adjacency is a contiguous CSR slice, so repeated
// solves (δ-searches, replans, campaign sweeps) stop reallocating.  The
// CSR index lists arcs per node in insertion order, which fixes BFS/DFS
// visit order — and therefore the solved flow.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mhp {

/// The paper invokes Ford–Fulkerson for the min-max-load routing problem;
/// Edmonds–Karp is the BFS Ford–Fulkerson (O(VE²)) and Dinic (O(V²E)) is
/// much faster in practice.  Edmonds–Karp stays as the reference the
/// tests cross-check Dinic against.
enum class MaxFlowAlgo { kEdmondsKarp, kDinic };

}  // namespace mhp

namespace mhp::route {

class FlowGraph {
 public:
  using Cap = std::int64_t;
  static constexpr Cap kInfinite = INT64_MAX / 4;

  /// Drop all arcs and size the node set; capacity stays allocated.
  void reset(int num_nodes);

  /// Add a directed arc u→v with capacity `cap`; returns the arc id.
  /// The residual twin is arc id ^ 1.  Only valid before build_csr().
  int add_arc(int u, int v, Cap cap);

  /// Freeze the arc set and build the CSR adjacency index.
  void build_csr();

  int num_nodes() const { return num_nodes_; }
  int num_arcs() const { return static_cast<int>(to_.size()); }

  int arc_from(int e) const { return from_[static_cast<std::size_t>(e)]; }
  int arc_to(int e) const { return to_[static_cast<std::size_t>(e)]; }
  Cap capacity(int e) const { return cap_init_[static_cast<std::size_t>(e)]; }
  Cap residual(int e) const { return cap_[static_cast<std::size_t>(e)]; }
  /// Net flow pushed over arc e (0..capacity for forward arcs).
  Cap flow(int e) const {
    return cap_init_[static_cast<std::size_t>(e)] -
           cap_[static_cast<std::size_t>(e)];
  }

  /// Arc ids (forward and residual) leaving node v, in insertion order.
  std::span<const std::int32_t> arcs_out(int v) const {
    const auto b = static_cast<std::size_t>(csr_begin_[v]);
    const auto e = static_cast<std::size_t>(csr_begin_[v + 1]);
    return {csr_arcs_.data() + b, e - b};
  }

  /// Consume `amount` of residual capacity on arc e, crediting the twin.
  void push(int e, Cap amount);

  /// Change a forward arc's capacity.  Residuals are stale until the next
  /// install_flow()/clear_flow(), so callers must follow with one of them.
  void set_capacity(int e, Cap cap);

  /// Zero all flow, restoring residuals to the current capacities.
  void clear_flow() { cap_ = cap_init_; }

  /// Materialize residuals for the given per-forward-arc flow (fwd[k] is
  /// the flow on arc 2k).  Requires 0 <= fwd[k] <= capacity(2k).
  void install_flow(std::span<const Cap> fwd);

  /// Snapshot the current per-forward-arc flow into `fwd`.
  void save_flow(std::vector<Cap>& fwd) const;

 private:
  int num_nodes_ = 0;
  std::vector<std::int32_t> from_;
  std::vector<std::int32_t> to_;
  std::vector<std::int32_t> csr_arcs_;
  std::vector<std::int32_t> csr_begin_;
  std::vector<std::int32_t> csr_cursor_;  // scratch for build_csr
  bool csr_built_ = false;
  std::vector<Cap> cap_;       // residual capacity
  std::vector<Cap> cap_init_;  // original capacity
};

/// Max-flow scratch + augmentation over a frozen FlowGraph: augments
/// whatever flow is installed on g to a maximum s→t flow and returns the
/// value pushed.  Reusing one MaxFlow across solves keeps its scratch
/// allocated.  Both searches are iterative, so path depth is bounded by
/// memory, not by the call stack.
class MaxFlow {
 public:
  using Cap = FlowGraph::Cap;

  Cap augment(FlowGraph& g, int s, int t, MaxFlowAlgo algo);

 private:
  Cap augment_edmonds_karp(FlowGraph& g, int s, int t);
  Cap augment_dinic(FlowGraph& g, int s, int t);
  bool dinic_bfs(FlowGraph& g, int s, int t);
  Cap dinic_dfs(FlowGraph& g, int s, int t);

  std::vector<std::int32_t> level_;  // Dinic levels / EK pred arcs
  std::vector<std::int32_t> queue_;
  std::vector<std::uint32_t> iter_;  // Dinic per-node arc cursor
  std::vector<std::int32_t> path_;   // Dinic DFS stack: nodes s → …
  std::vector<Cap> limit_;           // bottleneck up to each path_ node
};

}  // namespace mhp::route
