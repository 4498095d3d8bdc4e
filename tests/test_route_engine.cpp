// RoutingEngine determinism contract: warm-start probes, warm hints and
// parallel per-cluster solves must all produce byte-identical results to
// the cold single-threaded solver (and hence to the legacy free
// functions, which are now shims over an engine).  Also pins that the
// max-flow search depth is not bounded by the call stack.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/route_repair.hpp"
#include "core/routing.hpp"
#include "exp/fig_common.hpp"
#include "net/deployment.hpp"
#include "route/min_max_load.hpp"
#include "route/routing_engine.hpp"
#include "scenario/run_scenario.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

using route::ClusterRouteJob;
using route::RoutingEngine;
using route::SolveKind;
using route::SolvePolicy;

// Full-fidelity serialization of a solver result: any divergence in
// paths, per-path units or loads shows up as a string mismatch.
std::string fingerprint(const MinMaxLoadResult& r) {
  std::ostringstream out;
  out << "feasible=" << r.feasible << " max_load=" << r.max_load << "\n";
  for (std::size_t s = 0; s < r.paths.size(); ++s) {
    out << s << " load=" << r.load[s] << ":";
    for (const UnitPath& p : r.paths[s]) {
      out << " [";
      for (NodeId hop : p.hops) out << hop << ",";
      out << "]x" << p.units;
    }
    out << "\n";
  }
  return out.str();
}

std::string fingerprint(const RelayPlan& plan) {
  std::ostringstream out;
  out << "max_load=" << plan.max_load() << "\n";
  for (std::size_t s = 0; s < plan.num_sensors(); ++s) {
    out << s << " load=" << plan.load(s) << ":";
    for (const UnitPath& p : plan.paths(s)) {
      out << " [";
      for (NodeId hop : p.hops) out << hop << ",";
      out << "]x" << p.units;
    }
    out << "\n";
  }
  return out.str();
}

ClusterTopology eval_topology(std::size_t sensors, std::uint64_t seed) {
  return disc_topology(exp::eval_deployment(sensors, seed),
                       exp::kSensorRange);
}

// ---------- warm start vs cold solve ----------

TEST(RouteEngine, WarmMatchesColdAndLegacyOnFixedDeployments) {
  for (std::size_t sensors : {14u, 40u, 120u}) {
    for (std::uint64_t seed : {1u, 2u}) {
      const ClusterTopology topo = eval_topology(sensors, seed);
      const std::vector<std::int64_t> demand(sensors, 1);

      RoutingEngine warm(SolvePolicy{MaxFlowAlgo::kDinic, true});
      RoutingEngine cold(SolvePolicy{MaxFlowAlgo::kDinic, false});
      const std::string warm_fp =
          fingerprint(warm.solve_balanced(topo, demand));
      EXPECT_EQ(warm_fp, fingerprint(cold.solve_balanced(topo, demand)))
          << "sensors=" << sensors << " seed=" << seed;
      EXPECT_EQ(warm_fp, fingerprint(solve_min_max_load(topo, demand)))
          << "sensors=" << sensors << " seed=" << seed;
    }
  }
}

TEST(RouteEngine, WarmMatchesColdWithWeightsAndEdmondsKarp) {
  const ClusterTopology topo = eval_topology(40, 3);
  std::vector<std::int64_t> demand(40, 1);
  std::vector<std::int64_t> weight(40);
  for (std::size_t s = 0; s < weight.size(); ++s) weight[s] = 1 + s % 3;

  for (MaxFlowAlgo algo : {MaxFlowAlgo::kDinic, MaxFlowAlgo::kEdmondsKarp}) {
    RoutingEngine warm(SolvePolicy{algo, true});
    RoutingEngine cold(SolvePolicy{algo, false});
    EXPECT_EQ(fingerprint(warm.solve_balanced(topo, demand, weight)),
              fingerprint(cold.solve_balanced(topo, demand, weight)));
    EXPECT_EQ(fingerprint(warm.solve_balanced(topo, demand, weight)),
              fingerprint(solve_min_max_load(topo, demand, weight, algo)));
  }
}

TEST(RouteEngine, ReusedEngineMatchesFreshEnginePerSolve) {
  RoutingEngine reused;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const ClusterTopology topo = eval_topology(30, seed);
    const std::vector<std::int64_t> demand(30, 1);
    RoutingEngine fresh;
    EXPECT_EQ(fingerprint(reused.solve_balanced(topo, demand)),
              fingerprint(fresh.solve_balanced(topo, demand)))
        << "seed=" << seed;
    EXPECT_EQ(fingerprint(reused.solve_shortest(topo, demand)),
              fingerprint(fresh.solve_shortest(topo, demand)))
        << "seed=" << seed;
  }
}

TEST(RouteEngine, SearchStatsBoundDeltaStar) {
  const ClusterTopology topo = eval_topology(60, 5);
  const std::vector<std::int64_t> demand(60, 1);
  RoutingEngine engine;
  const MinMaxLoadResult result = engine.solve_balanced(topo, demand);
  ASSERT_TRUE(result.feasible);
  const route::SolveStats& stats = engine.last_stats();
  EXPECT_GE(stats.probes, 1);
  EXPECT_GE(stats.cold_solves, 1);
  EXPECT_GE(stats.delta_lower_bound, 1);
  EXPECT_LE(stats.delta_lower_bound, stats.delta_star);
  EXPECT_EQ(stats.delta_star, result.max_load);
}

// A chain sensor s — s+1 where only sensor 0 reaches the head, with one
// packet at the far end: every augmenting path is n+1 arcs deep, so a
// recursive DFS would need one stack frame per hop.
TEST(RouteEngine, DeepChainDoesNotOverflowStack) {
  constexpr std::size_t n = 100'000;
  Graph g(n);
  for (NodeId s = 0; s + 1 < n; ++s) g.add_edge(s, s + 1);
  std::vector<bool> hears(n, false);
  hears[0] = true;
  const ClusterTopology topo(std::move(g), std::move(hears));
  std::vector<std::int64_t> demand(n, 0);
  demand[n - 1] = 1;

  RoutingEngine dinic;
  const MinMaxLoadResult r = dinic.solve_balanced(topo, demand);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.max_load, 1);
  ASSERT_EQ(r.paths[n - 1].size(), 1u);
  // n sensors then the head: n + 1 entries, n hops.
  EXPECT_EQ(r.paths[n - 1][0].hops.size(), n + 1);
  EXPECT_EQ(r.paths[n - 1][0].hops.back(), topo.head());

  RoutingEngine ek(SolvePolicy{MaxFlowAlgo::kEdmondsKarp, true});
  EXPECT_EQ(fingerprint(r), fingerprint(ek.solve_balanced(topo, demand)));
}

// ---------- warm hints across fault → replan ----------

// Pick a victim that actually carries relayed load so the repair is a
// real re-solve, not a no-op.
NodeId loaded_victim(const RelayPlan& plan) {
  for (NodeId s = 0; s < plan.num_sensors(); ++s)
    if (plan.load(s) > 1) return s;
  return 0;
}

TEST(RouteEngine, WarmHintedReplanMatchesColdReplan) {
  const ClusterTopology topo = eval_topology(40, 7);
  const std::vector<std::int64_t> demand(40, 1);
  const RelayPlan plan = RelayPlan::balanced(topo, demand);
  const NodeId victim = loaded_victim(plan);

  // Engine + previous-plan hint (the production path) vs the plain
  // hint-free repair: identical plans, loads and orphan sets.
  RoutingEngine engine;
  engine.set_warm_hint(&plan.all_paths());
  const RouteRepair hinted = repair_routes(
      topo, {victim}, demand, RoutingPolicy::kBalancedMaxFlow, &engine,
      &plan);
  EXPECT_GT(engine.last_stats().hint_units, 0)
      << "hint did not seed any flow; victim=" << victim;
  const RouteRepair cold =
      repair_routes(topo, {victim}, demand, RoutingPolicy::kBalancedMaxFlow);
  EXPECT_EQ(fingerprint(hinted.plan), fingerprint(cold.plan));
  EXPECT_EQ(hinted.orphaned, cold.orphaned);
}

TEST(RouteEngine, ChainedReplansMatchColdAcrossDeathSequence) {
  const ClusterTopology topo = eval_topology(40, 9);
  const std::vector<std::int64_t> demand(40, 1);
  const RelayPlan plan = RelayPlan::balanced(topo, demand);

  // Two successive deaths: the second replan's hint is the first repair's
  // plan, mirroring the cluster pipeline's repair_plan chaining.
  const NodeId first = loaded_victim(plan);
  RoutingEngine engine;
  engine.set_warm_hint(&plan.all_paths());
  RouteRepair step1 = repair_routes(topo, {first}, demand,
                                    RoutingPolicy::kBalancedMaxFlow, &engine,
                                    &plan);
  const NodeId second = loaded_victim(step1.plan) != first
                            ? loaded_victim(step1.plan)
                            : (first + 1) % 40;
  const std::vector<NodeId> dead = {first, second};
  engine.set_warm_hint(&step1.plan.all_paths());
  const RouteRepair hinted = repair_routes(
      topo, dead, demand, RoutingPolicy::kBalancedMaxFlow, &engine,
      &step1.plan);
  const RouteRepair cold =
      repair_routes(topo, dead, demand, RoutingPolicy::kBalancedMaxFlow);
  EXPECT_EQ(fingerprint(hinted.plan), fingerprint(cold.plan));
  EXPECT_EQ(hinted.orphaned, cold.orphaned);
}

// ---------- plan digest golden ----------

// FNV-1a over a fingerprint string: a one-number pin of every path,
// per-path unit count, load and δ* of a solve.
std::uint64_t digest(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// A 2000-sensor disc cluster at route_scale's density (1000 m² per
// sensor).  The pinned digests were taken from the flow network's
// original id-ordered arc storage; any change to max-flow visit order or
// to the path decomposition moves them.
TEST(RouteEngine, PlanDigestGoldenAtTwoThousandSensors) {
  constexpr std::size_t n = 2000;
  Rng rng(20);
  const Deployment dep = deploy_connected_uniform_square(
      n, std::sqrt(1000.0 * static_cast<double>(n)), exp::kSensorRange, rng);
  const ClusterTopology topo = disc_topology(dep, exp::kSensorRange);
  const std::vector<std::int64_t> demand(n, 1);

  RoutingEngine engine;
  const MinMaxLoadResult cold = engine.solve_balanced(topo, demand);
  ASSERT_TRUE(cold.feasible);
  const std::int64_t cold_delta = engine.last_stats().delta_star;
  const std::string cold_fp =
      fingerprint(cold) + "delta*=" + std::to_string(cold_delta);
  EXPECT_EQ(digest(cold_fp), 0x9f2929b9bf23dc0cull) << "delta*=" << cold_delta;

  // The busiest relay (lowest id on ties) dies; the repair is warm-hinted
  // with the surviving plan, as the cluster pipeline does it.
  const RelayPlan plan(topo, cold);
  NodeId victim = 0;
  for (NodeId s = 1; s < n; ++s)
    if (plan.load(s) > plan.load(victim)) victim = s;
  engine.set_warm_hint(&plan.all_paths());
  const RouteRepair repair = repair_routes(
      topo, {victim}, demand, RoutingPolicy::kBalancedMaxFlow, &engine, &plan);
  EXPECT_GT(engine.last_stats().hint_units, 0);
  const std::int64_t repair_delta = engine.last_stats().delta_star;
  const std::string repair_fp =
      fingerprint(repair.plan) + "delta*=" + std::to_string(repair_delta);
  EXPECT_EQ(digest(repair_fp), 0xfc26cf74a9928bf1ull)
      << "victim=" << victim << " delta*=" << repair_delta;
}

// ---------- parallel per-cluster solves ----------

TEST(RouteEngineParallel, SolveClustersDeterministicAcrossWorkers) {
  std::vector<ClusterTopology> topos;
  std::vector<ClusterRouteJob> jobs;
  for (std::uint64_t seed = 0; seed < 6; ++seed)
    topos.push_back(eval_topology(20 + 5 * seed, seed));
  for (std::size_t c = 0; c < topos.size(); ++c) {
    ClusterRouteJob job;
    job.topo = &topos[c];
    job.demand.assign(topos[c].num_sensors(), 1);
    if (c == 4) {  // one weighted job
      job.weight.assign(topos[c].num_sensors(), 1);
      job.weight[0] = 3;
    }
    if (c == 5) job.kind = SolveKind::kShortestPath;  // one baseline job
    jobs.push_back(std::move(job));
  }

  const std::vector<MinMaxLoadResult> serial = route::solve_clusters(jobs, 1);
  ASSERT_EQ(serial.size(), jobs.size());
  for (std::size_t workers : {8u, 0u}) {  // 0 = hardware concurrency
    const std::vector<MinMaxLoadResult> parallel =
        route::solve_clusters(jobs, workers);
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t c = 0; c < jobs.size(); ++c)
      EXPECT_EQ(fingerprint(serial[c]), fingerprint(parallel[c]))
          << "workers=" << workers << " cluster=" << c;
  }

  // And each slot matches an independent single-problem engine solve.
  for (std::size_t c = 0; c < jobs.size(); ++c) {
    RoutingEngine engine;
    EXPECT_EQ(fingerprint(serial[c]),
              fingerprint(engine.solve(jobs[c].kind, *jobs[c].topo,
                                       jobs[c].demand, jobs[c].weight)))
        << "cluster=" << c;
  }
}

TEST(RouteEngineParallel, ScenarioReportByteIdenticalAcrossWorkers) {
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kMultiCluster);
  s.deployment.n_sensors = 12;
  s.run.duration = Time::sec(10);
  s.run.warmup = Time::sec(2);
  s.run.record_perf = false;

  s.route_workers = 1;
  const std::string serial = scenario::run_scenario(s).dump();
  s.route_workers = 8;
  EXPECT_EQ(serial, scenario::run_scenario(s).dump());
  s.route_workers = 0;  // hardware concurrency
  EXPECT_EQ(serial, scenario::run_scenario(s).dump());
}

// ---------- worker count on a single cluster ----------

TEST(RouteParallel, SingleJobSolveClustersHandsWorkersToProbes) {
  const ClusterTopology topo =
      disc_topology(exp::eval_deployment(70, 13), exp::kSensorRange);
  ClusterRouteJob job;
  job.topo = &topo;
  job.demand.assign(70, 1);
  std::vector<ClusterRouteJob> jobs;
  jobs.push_back(std::move(job));

  const auto serial = route::solve_clusters(jobs, 1);
  ASSERT_EQ(serial.size(), 1u);
  for (std::size_t workers : {4u, 8u, 0u}) {
    const auto par = route::solve_clusters(jobs, workers);
    ASSERT_EQ(par.size(), 1u);
    EXPECT_EQ(fingerprint(serial[0]), fingerprint(par[0]))
        << "workers=" << workers;
  }
}

// The polling stack's single cluster must ignore the worker count.
TEST(RouteParallel, PollingScenarioReportByteIdenticalAcrossRouteWorkers) {
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kPolling);
  s.deployment.n_sensors = 16;
  s.run.duration = Time::sec(10);
  s.run.warmup = Time::sec(2);
  s.run.record_perf = false;

  s.route_workers = 1;
  const std::string serial = scenario::run_scenario(s).dump();
  s.route_workers = 8;
  EXPECT_EQ(serial, scenario::run_scenario(s).dump());
  s.route_workers = 0;  // hardware concurrency
  EXPECT_EQ(serial, scenario::run_scenario(s).dump());
}

}  // namespace
}  // namespace mhp
