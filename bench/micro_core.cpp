// Micro-benchmarks (google-benchmark): the algorithmic kernels — greedy
// scheduling (with the offline cycle behind the oracle memo), max-flow
// routing, set cover, sector partitioning.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/ack_collection.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/interference.hpp"
#include "core/routing.hpp"
#include "core/sectors.hpp"
#include "net/deployment.hpp"
#include "route/min_max_load.hpp"
#include "route/routing_engine.hpp"
#include "util/rng.hpp"

using namespace mhp;

namespace {

struct Scenario {
  ClusterTopology topo;
  std::vector<std::vector<NodeId>> paths;
  ExplicitOracle oracle{3};

  explicit Scenario(std::size_t n, std::uint64_t seed) : topo(make(n, seed)) {
    const auto routing =
        solve_min_max_load(topo, std::vector<std::int64_t>(n, 1));
    for (NodeId s = 0; s < n; ++s) paths.push_back(routing.paths[s][0].hops);
    const auto txs = transmissions_of_paths(paths);
    for (std::size_t i = 0; i < txs.size(); ++i)
      for (std::size_t j = i + 1; j < txs.size(); ++j)
        oracle.allow_pair(txs[i], txs[j]);
  }

  static ClusterTopology make(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    return disc_topology(
        deploy_connected_uniform_square(n, 200.0, 60.0, rng), 60.0);
  }
};

void BM_GreedySchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Scenario sc(n, 1);
  for (auto _ : state) {
    const auto result = run_offline(sc.oracle, sc.paths);
    benchmark::DoNotOptimize(result.slots);
  }
  state.counters["slots"] =
      static_cast<double>(run_offline(sc.oracle, sc.paths).slots);
}
BENCHMARK(BM_GreedySchedule)->Arg(10)->Arg(30)->Arg(60)->Arg(100);

// One balanced solve on a fresh engine per iteration, as solve_clusters
// runs each cluster, at route_scale's density (1000 m² per sensor, one
// packet each): n = 40 and 200 show the per-solve fixed cost, 2000 and
// 20000 the max-flow and decomposition loops.
void BM_MinMaxLoadRouting(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto topo = disc_topology(
      deploy_connected_uniform_square(
          n, std::sqrt(1000.0 * static_cast<double>(n)), 60.0, rng),
      60.0);
  const std::vector<std::int64_t> demand(n, 1);
  for (auto _ : state) {
    route::RoutingEngine engine;
    const auto result = engine.solve_balanced(topo, demand);
    benchmark::DoNotOptimize(result.max_load);
  }
}
BENCHMARK(BM_MinMaxLoadRouting)
    ->Arg(40)
    ->Arg(200)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

// One offline greedy cycle (the route_scale benchmark's run phase) at the
// same density: min-max-load paths, disc interference at M = 3 behind a
// fresh pair-screening CachedOracle per iteration, so every iteration
// pays the memo's misses and growth as one cycle does.
void BM_OfflineCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr double kRange = 60.0;
  Rng rng(0x9e1f + n);
  const Deployment dep = deploy_connected_uniform_square(
      n, std::sqrt(1000.0 * static_cast<double>(n)), kRange, rng);
  const ClusterTopology topo = disc_topology(dep, kRange);
  const RelayPlan plan(topo, route::RoutingEngine().solve_balanced(
                                 topo, std::vector<std::int64_t>(n, 1)));
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < n; ++s)
    paths.push_back(plan.path_for_cycle(s, 0).hops);
  const DiscModelOracle truth(dep.positions, kRange, 3);
  std::size_t slots = 0;
  for (auto _ : state) {
    const CachedOracle cached(truth, CachedOracle::PairScreen::kOn);
    slots = run_offline(cached, paths).slots;
    benchmark::DoNotOptimize(slots);
  }
  state.counters["slots"] = static_cast<double>(slots);
}
BENCHMARK(BM_OfflineCycle)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_MaxFlowAlgos(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto topo = Scenario::make(n, 3);
  const std::vector<std::int64_t> demand(n, 2);
  const auto algo = state.range(1) == 0 ? MaxFlowAlgo::kEdmondsKarp
                                        : MaxFlowAlgo::kDinic;
  for (auto _ : state) {
    const auto result = solve_min_max_load(topo, demand, {}, algo);
    benchmark::DoNotOptimize(result.max_load);
  }
}
BENCHMARK(BM_MaxFlowAlgos)
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({100, 0})
    ->Args({100, 1});

void BM_AckCover(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto topo = Scenario::make(n, 4);
  const RelayPlan plan =
      RelayPlan::balanced(topo, std::vector<std::int64_t>(n, 1));
  for (auto _ : state) {
    const auto ack = plan_ack_collection(topo, plan, 0);
    benchmark::DoNotOptimize(ack.total_hops);
  }
}
BENCHMARK(BM_AckCover)->Arg(30)->Arg(100);

void BM_SectorPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto topo = Scenario::make(n, 5);
  const std::vector<std::int64_t> demand(n, 1);
  const RelayPlan plan = RelayPlan::balanced(topo, demand);
  SectorPartitioner sp(topo);
  for (auto _ : state) {
    const auto part = sp.partition(plan, demand);
    benchmark::DoNotOptimize(part.sectors.size());
  }
}
BENCHMARK(BM_SectorPartition)->Arg(30)->Arg(100);

void BM_OracleQuery(benchmark::State& state) {
  Scenario sc(30, 6);
  const auto txs = transmissions_of_paths(sc.paths);
  Rng rng(7);
  for (auto _ : state) {
    const Tx& a = txs[rng.below(txs.size())];
    const Tx& b = txs[rng.below(txs.size())];
    benchmark::DoNotOptimize(sc.oracle.compatible(std::vector<Tx>{a, b}));
  }
}
BENCHMARK(BM_OracleQuery);

}  // namespace

BENCHMARK_MAIN();
