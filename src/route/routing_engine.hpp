// RoutingEngine: single owner of the min-max-load routing stack — flow
// network construction, scratch arenas, δ-search policy and flow
// decomposition (paper §III-A).
//
// The engine produces byte-identical results to the legacy free functions
// (`solve_min_max_load` / `solve_shortest_path_routing`, now thin shims
// over an engine) while adding:
//   * warm-start δ-probes — each feasibility probe augments the best flow
//     found at a smaller δ instead of re-solving from zero.  Probes only
//     answer "is δ feasible?" (the max-flow *value* at a given δ is
//     unique, the assignment is not); the path decomposition always comes
//     from one final from-zero solve at δ*, which is exactly the flow the
//     cold search decomposed.  That is the determinism contract.
//   * warm hints — a surviving RelayPlan can seed the first probe of a
//     post-fault replan with its still-valid unit paths.  Hints only
//     pre-load flow for feasibility probes, so they never change results.
//   * reusable arenas — the CSR graph, BFS/DFS scratch and flow snapshots
//     persist across solves on the same engine.
//
// Engines are cheap to construct and NOT thread-safe; for parallel
// per-cluster routing use solve_clusters(), which gives each job its own
// engine and writes results into per-cluster slots (deterministic for any
// worker count because each solve is a pure function of its job).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "route/flow_graph.hpp"
#include "route/min_max_load.hpp"

namespace mhp::route {

struct SolvePolicy {
  MaxFlowAlgo algo = MaxFlowAlgo::kDinic;
  /// Reuse flow between δ-probes (results are identical either way; cold
  /// mode exists for equivalence tests and perf comparisons).
  bool warm_start = true;
};

enum class SolveKind { kBalancedMaxFlow, kShortestPath };

/// Counters from the most recent solve_balanced (zeroed for trivially
/// feasible/infeasible instances and for solve_shortest).
struct SolveStats {
  int probes = 0;       // δ feasibility probes run
  int cold_solves = 0;  // from-zero max-flow runs (probes + the final one)
  std::int64_t delta_lower_bound = 0;  // δ floor the search began at
  std::int64_t delta_star = 0;  // winning δ (== result.max_load)
  std::int64_t hint_units = 0;  // flow pre-seeded from a warm hint
};

class RoutingEngine {
 public:
  explicit RoutingEngine(SolvePolicy policy = {}) : policy_(policy) {}
  RoutingEngine(RoutingEngine&&) = delete;

  void set_policy(SolvePolicy policy) { policy_ = policy; }
  const SolvePolicy& policy() const { return policy_; }

  /// Min-max-load routing (binary search over δ with max-flow probes).
  /// Same contract as the legacy mhp::solve_min_max_load.
  MinMaxLoadResult solve_balanced(const ClusterTopology& topo,
                                  const std::vector<std::int64_t>& demand,
                                  const std::vector<std::int64_t>& weight = {});

  /// BFS shortest-path baseline; same contract as the legacy
  /// mhp::solve_shortest_path_routing.
  MinMaxLoadResult solve_shortest(const ClusterTopology& topo,
                                  const std::vector<std::int64_t>& demand);

  MinMaxLoadResult solve(SolveKind kind, const ClusterTopology& topo,
                         const std::vector<std::int64_t>& demand,
                         const std::vector<std::int64_t>& weight = {});

  /// Seed the NEXT solve_balanced's first δ-probe with the unit paths of a
  /// previous solution (e.g. the surviving flow after a fault).  Paths
  /// with dead hops/links are skipped; the hint is consumed by that solve.
  /// The pointee must stay alive until then.  Never changes results.
  void set_warm_hint(const std::vector<std::vector<UnitPath>>* hint) {
    hint_ = hint;
  }

  const SolveStats& last_stats() const { return stats_; }

 private:
  using Cap = FlowGraph::Cap;

  void build_network(const ClusterTopology& topo, const std::vector<Cap>& demand,
                     const std::vector<Cap>& weight);
  Cap prime_from_hint(const ClusterTopology& topo,
                      const std::vector<std::vector<UnitPath>>& hint);

  /// Analytic δ floor: per-level cut bounds (all demand from level ≥ L
  /// crosses the level-L sensors; L = 1 is the head cut) and per-sensor
  /// demand bounds.  Never above δ*.
  Cap analytic_floor(const ClusterTopology& topo,
                     const std::vector<Cap>& demand) const;
  /// δ-search: returns δ* and leaves `final_flow_` / `final_delta` set
  /// when some from-zero probe already solved δ*.
  Cap search(std::size_t n, Cap total, Cap lb, Cap& final_delta);

  void decompose(const ClusterTopology& topo, const std::vector<Cap>& demand,
                 MinMaxLoadResult& result);
  bool cancel_one_cycle();
  void cancel_cycles();

  SolvePolicy policy_;
  SolveStats stats_;
  const std::vector<std::vector<UnitPath>>* hint_ = nullptr;

  FlowGraph g_;
  std::vector<std::int32_t> demand_arc_;    // per sensor (-1 if demand 0)
  std::vector<std::int32_t> capacity_arc_;  // per sensor input→output arc
  std::vector<std::int32_t> sink_arc_;      // per sensor (-1 unless 1st level)
  int first_link_arc_ = 0;                  // links are the last arcs added
  std::vector<Cap> weight_;                 // resolved weights for this solve

  // Flow snapshots (per forward arc): the warm-start base (max flow at
  // the largest infeasible δ probed, or the hint-seeded flow before any
  // probe) and the flow of a from-zero feasible probe (reused by the
  // final decomposition when that probe's δ wins the search).
  std::vector<Cap> base_flow_;
  std::vector<Cap> final_flow_;
  bool have_base_ = false;
  Cap base_value_ = 0;

  MaxFlow max_flow_;

  // Decomposition scratch: remaining_ by CSR position, the rest by node
  // or DFS depth.
  struct Frame {
    int v;  // node
    int p;  // cursor: a position in v's slice
  };
  std::vector<Cap> remaining_;
  std::vector<std::int32_t> cursor_;
  std::vector<std::int8_t> color_;
  std::vector<Frame> stack_;
  std::vector<NodeId> hops_;  // the unit path being walked
};

/// One cluster's routing problem for a batch solve.
struct ClusterRouteJob {
  const ClusterTopology* topo = nullptr;
  std::vector<std::int64_t> demand;
  std::vector<std::int64_t> weight;  // empty = all-1
  SolveKind kind = SolveKind::kBalancedMaxFlow;
};

/// Solve every job on `workers` threads (0 = hardware concurrency, 1 =
/// inline) and return results in job order.  Each job runs on its own
/// engine, so results are identical for any worker count.
std::vector<MinMaxLoadResult> solve_clusters(
    std::span<const ClusterRouteJob> jobs, std::size_t workers = 1,
    SolvePolicy policy = {});

}  // namespace mhp::route
