// Arena-friendly flow network: structure-of-arrays arc storage in CSR
// order, built once per solve and reused across δ-probes, plus the
// max-flow solvers that run over it.
//
// An arc has two names.  Its *id* is the stable handle add_arc returns:
// arc 2k and its residual twin 2k+1 are xor-paired, in insertion order.
// Its *position* is where build_csr stores it: node v's arcs occupy the
// contiguous positions [first_pos(v), end_pos(v)), so the solvers read a
// node's heads, residuals and twins from one block instead of chasing
// ids into id-ordered arrays.  Within a node the positions keep ascending
// id order, which fixes BFS/DFS visit order — and therefore the solved
// flow — exactly as an id-ordered adjacency list would.  Before
// build_csr, positions equal ids.
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
  /// `expected_arcs` (ids, twins included) reserves room for add_arc.
  void reset(int num_nodes, int expected_arcs = 0);

  /// Add a directed arc u→v with capacity `cap`; returns the arc id.
  /// The residual twin is arc id ^ 1.  Only valid before build_csr().
  int add_arc(int u, int v, Cap cap);

  /// Freeze the arc set and lay the arcs out in CSR order.  Clears flow:
  /// every residual restarts at its capacity.
  void build_csr();

  int num_nodes() const { return num_nodes_; }
  int num_arcs() const { return static_cast<int>(head_.size()); }

  // ---- by arc id ------------------------------------------------------

  int arc_from(int e) const { return head(pos(e ^ 1)); }
  int arc_to(int e) const { return head(pos(e)); }
  Cap capacity(int e) const {
    return cap_[static_cast<std::size_t>(pos(e))];
  }
  Cap residual(int e) const {
    return res_[static_cast<std::size_t>(pos(e))];
  }
  /// Net flow pushed over arc e (0..capacity for forward arcs).
  Cap flow(int e) const { return flow_at(pos(e)); }

  /// Consume `amount` of residual capacity on arc e, crediting the twin.
  void push(int e, Cap amount);

  /// Change a forward arc's capacity.  Residuals are stale until the next
  /// install_flow()/clear_flow(), so callers must follow with one of them.
  void set_capacity(int e, Cap cap);

  /// Zero all flow, restoring residuals to the current capacities.
  void clear_flow() { res_ = cap_; }

  /// Materialize residuals for the given per-forward-arc flow (fwd[k] is
  /// the flow on arc 2k).  Requires 0 <= fwd[k] <= capacity(2k).
  void install_flow(std::span<const Cap> fwd);

  /// Snapshot the current per-forward-arc flow into `fwd`.
  void save_flow(std::vector<Cap>& fwd) const;

  // ---- by CSR position (the decomposition's walks) ---------------------

  /// Node v's arcs (forward and residual) sit at [first_pos(v),
  /// end_pos(v)), in ascending id order.  Valid after build_csr().
  int first_pos(int v) const {
    return csr_begin_[static_cast<std::size_t>(v)];
  }
  int end_pos(int v) const {
    return csr_begin_[static_cast<std::size_t>(v) + 1];
  }

  int head(int p) const { return head_[static_cast<std::size_t>(p)]; }
  /// Net flow at position p: 0..capacity on a forward arc, -flow of its
  /// forward arc on a residual twin.
  Cap flow_at(int p) const {
    const auto i = static_cast<std::size_t>(p);
    return cap_[i] - res_[i];
  }

 private:
  friend class MaxFlow;  // its loops read the position arrays directly

  /// CSR position of arc e (e itself before build_csr).
  int pos(int e) const {
    return csr_built_ ? pos_[static_cast<std::size_t>(e)] : e;
  }

  // Per arc, 28 B in all: four arrays by position, pos_ by id.  There is
  // no tail array: the tail of arc e is the head of e ^ 1.
  int num_nodes_ = 0;
  std::vector<std::int32_t> head_;   // head node
  std::vector<std::int32_t> twin_;   // position of the residual twin
  std::vector<Cap> cap_;             // capacity
  std::vector<Cap> res_;             // residual capacity
  std::vector<std::int32_t> pos_;    // arc id → position
  std::vector<std::int32_t> csr_begin_;
  std::vector<std::int32_t> csr_cursor_;  // scratch for build_csr
  bool csr_built_ = false;
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
  bool dinic_bfs(const FlowGraph& g, int s, int t);
  Cap dinic_dfs(FlowGraph& g, int t);

  std::vector<std::int32_t> level_;  // Dinic levels / EK pred positions
  std::vector<std::int32_t> queue_;
  std::vector<std::int32_t> iter_;   // Dinic per-node cursor (a position)
  std::vector<std::int32_t> path_;   // Dinic DFS stack: nodes s → …
  std::vector<Cap> limit_;           // bottleneck up to each path_ node
                                     // (limit_[0] is s's, unbounded)
};

}  // namespace mhp::route
