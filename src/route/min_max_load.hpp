// Load-balanced relaying paths via the paper's network-flow formalization
// (§III-A).
//
// Each sensor i becomes an input node iᵢ and output node oᵢ with an arc
// iᵢ→oᵢ of capacity δ·wᵢ (wᵢ = relative node capacity, all 1 unless sensor
// energy levels differ).  Sensor links become uncapacitated oᵢ→iⱼ arcs;
// first-level sensors get oᵢ→t; a super-source feeds each iᵢ with that
// sensor's per-cycle packet demand.  The smallest δ whose max-flow equals
// total demand is the minimized maximum sensor load; decomposing the flow
// yields each sensor's relaying paths with per-path flow units (used by
// multiple-path rotation, §V-D).
#pragma once

#include <cstdint>
#include <vector>

#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "route/flow_graph.hpp"

namespace mhp {

/// One relaying path: hops[0] is the originating sensor, subsequent hops
/// are relays, hops.back() is the cluster head.  `units` is the flow the
/// path carries (packets per cycle routed this way).
struct UnitPath {
  std::vector<NodeId> hops;
  std::int64_t units = 0;

  std::size_t hop_count() const { return hops.size() - 1; }
};

struct MinMaxLoadResult {
  bool feasible = false;
  /// δ*: the minimized maximum sensor load (packets sent per cycle,
  /// own + relayed), scaled by node weight where weights differ.
  std::int64_t max_load = 0;
  /// paths[s]: the relaying paths carrying sensor s's demand (empty for
  /// zero-demand sensors).
  std::vector<std::vector<UnitPath>> paths;
  /// load[s]: packets sensor s transmits per cycle (own + relayed).
  std::vector<std::int64_t> load;
};

/// Solve min-max-load routing.  `demand[s]` >= 0 packets per duty cycle.
/// `weight[s]` (optional, default all-1) scales sensor s's capacity:
/// sensors with more energy may carry proportionally more load.
/// Defined in src/route/shims.cpp as a forwarder onto
/// route::RoutingEngine, which owns the solver implementation.
MinMaxLoadResult solve_min_max_load(
    const ClusterTopology& topo, const std::vector<std::int64_t>& demand,
    const std::vector<std::int64_t>& weight = {},
    MaxFlowAlgo algo = MaxFlowAlgo::kDinic);

/// Baseline for the routing ablation: BFS shortest-path (min hop) routing,
/// parents chosen arbitrarily (lowest id).  Same result shape.
MinMaxLoadResult solve_shortest_path_routing(
    const ClusterTopology& topo, const std::vector<std::int64_t>& demand);

}  // namespace mhp
