// Legacy free-function routing API, now thin forwarding shims over a
// per-thread route::RoutingEngine so existing call sites migrate in place
// and still benefit from the engine's reusable arenas and warm-start
// δ-search.  Results are byte-identical to the pre-engine solver.
#include "route/min_max_load.hpp"
#include "route/routing_engine.hpp"

namespace mhp {

namespace {

route::RoutingEngine& shim_engine() {
  thread_local route::RoutingEngine engine;
  return engine;
}

}  // namespace

MinMaxLoadResult solve_min_max_load(const ClusterTopology& topo,
                                    const std::vector<std::int64_t>& demand,
                                    const std::vector<std::int64_t>& weight,
                                    MaxFlowAlgo algo) {
  route::RoutingEngine& engine = shim_engine();
  engine.set_policy({algo, /*warm_start=*/true});
  return engine.solve_balanced(topo, demand, weight);
}

MinMaxLoadResult solve_shortest_path_routing(
    const ClusterTopology& topo, const std::vector<std::int64_t>& demand) {
  return shim_engine().solve_shortest(topo, demand);
}

}  // namespace mhp
