#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <tuple>

#include "net/deployment.hpp"
#include "route/flow_graph.hpp"
#include "route/min_max_load.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

using route::FlowGraph;
using route::MaxFlow;

// ---------- FlowGraph ----------

TEST(FlowGraph, ArcBookkeeping) {
  FlowGraph g;
  g.reset(3);
  const int e = g.add_arc(0, 1, 5);
  EXPECT_EQ(g.arc_from(e), 0);
  EXPECT_EQ(g.arc_to(e), 1);
  EXPECT_EQ(g.capacity(e), 5);
  EXPECT_EQ(g.flow(e), 0);
  g.push(e, 3);
  EXPECT_EQ(g.flow(e), 3);
  EXPECT_EQ(g.residual(e), 2);
  EXPECT_EQ(g.residual(e ^ 1), 3);  // twin gained
  g.clear_flow();
  EXPECT_EQ(g.flow(e), 0);
}

TEST(FlowGraph, PushBeyondResidualThrows) {
  FlowGraph g;
  g.reset(2);
  const int e = g.add_arc(0, 1, 1);
  EXPECT_THROW(g.push(e, 2), ContractViolation);
}

// ---------- Max flow ----------

/// Freeze `g` and run one from-zero max flow s→t on it.
FlowGraph::Cap max_flow(FlowGraph& g, int s, int t,
                        MaxFlowAlgo algo = MaxFlowAlgo::kDinic) {
  g.build_csr();
  return MaxFlow().augment(g, s, t, algo);
}

/// The classic CLRS example network with max flow 23.
FlowGraph clrs_network() {
  FlowGraph g;
  g.reset(6);  // s=0, v1..v4=1..4, t=5
  g.add_arc(0, 1, 16);
  g.add_arc(0, 2, 13);
  g.add_arc(1, 3, 12);
  g.add_arc(2, 1, 4);
  g.add_arc(2, 4, 14);
  g.add_arc(3, 2, 9);
  g.add_arc(3, 5, 20);
  g.add_arc(4, 3, 7);
  g.add_arc(4, 5, 4);
  return g;
}

TEST(MaxFlow, ClrsExampleBothAlgorithms) {
  auto a = clrs_network();
  EXPECT_EQ(max_flow(a, 0, 5, MaxFlowAlgo::kEdmondsKarp), 23);
  auto b = clrs_network();
  EXPECT_EQ(max_flow(b, 0, 5, MaxFlowAlgo::kDinic), 23);
}

TEST(MaxFlow, DisconnectedIsZero) {
  FlowGraph g;
  g.reset(4);
  g.add_arc(0, 1, 10);
  g.add_arc(2, 3, 10);
  EXPECT_EQ(max_flow(g, 0, 3), 0);
}

TEST(MaxFlow, ParallelArcsAdd) {
  FlowGraph g;
  g.reset(2);
  g.add_arc(0, 1, 3);
  g.add_arc(0, 1, 4);
  EXPECT_EQ(max_flow(g, 0, 1), 7);
}

/// Check capacity limits and conservation of the flow left on the graph.
void expect_valid_flow(const FlowGraph& g, int s, int t, FlowGraph::Cap value) {
  std::vector<FlowGraph::Cap> balance(static_cast<std::size_t>(g.num_nodes()),
                                      0);
  for (int e = 0; e < g.num_arcs(); e += 2) {
    EXPECT_GE(g.flow(e), 0);
    EXPECT_LE(g.flow(e), g.capacity(e));
    balance[static_cast<std::size_t>(g.arc_from(e))] -= g.flow(e);
    balance[static_cast<std::size_t>(g.arc_to(e))] += g.flow(e);
  }
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (v == s)
      EXPECT_EQ(balance[static_cast<std::size_t>(v)], -value);
    else if (v == t)
      EXPECT_EQ(balance[static_cast<std::size_t>(v)], value);
    else
      EXPECT_EQ(balance[static_cast<std::size_t>(v)], 0);
  }
}

class RandomMaxFlow : public ::testing::TestWithParam<int> {};

TEST_P(RandomMaxFlow, AlgorithmsAgreeAndFlowsAreValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 2 + static_cast<int>(rng.below(10));
  FlowGraph a;
  a.reset(n);
  const int arcs = n + static_cast<int>(rng.below(20));
  std::vector<std::tuple<int, int, FlowGraph::Cap>> spec;
  for (int k = 0; k < arcs; ++k) {
    const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    const auto c = static_cast<FlowGraph::Cap>(1 + rng.below(20));
    spec.push_back({u, v, c});
    a.add_arc(u, v, c);
  }
  FlowGraph b;
  b.reset(n);
  for (const auto& [u, v, c] : spec) b.add_arc(u, v, c);

  const auto fa = max_flow(a, 0, n - 1, MaxFlowAlgo::kEdmondsKarp);
  const auto fb = max_flow(b, 0, n - 1, MaxFlowAlgo::kDinic);
  EXPECT_EQ(fa, fb);
  expect_valid_flow(a, 0, n - 1, fa);
  expect_valid_flow(b, 0, n - 1, fb);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMaxFlow, ::testing::Range(0, 25));

// ---------- CSR layout vs the id-ordered reference ----------

/// The flow network as it stood before arcs were stored in CSR order:
/// per-arc arrays indexed by arc id, a CSR index of arc ids per node,
/// and Dinic (restarting every path search from s) and Edmonds–Karp
/// reading heads and residuals through those ids.  The layout must not
/// change a single flow value.
class IdOrderedFlow {
 public:
  using Cap = FlowGraph::Cap;

  explicit IdOrderedFlow(int n) : n_(n) {}

  void add_arc(int u, int v, Cap cap) {
    from_.insert(from_.end(), {u, v});
    to_.insert(to_.end(), {v, u});
    cap_.insert(cap_.end(), {cap, 0});
    cap_init_.insert(cap_init_.end(), {cap, 0});
  }

  void build_csr() {
    begin_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (const int u : from_) ++begin_[static_cast<std::size_t>(u) + 1];
    for (int v = 0; v < n_; ++v) begin_[v + 1] += begin_[v];
    std::vector<int> cursor(begin_.begin(), begin_.end() - 1);
    arcs_.resize(from_.size());
    for (std::size_t e = 0; e < from_.size(); ++e)
      arcs_[static_cast<std::size_t>(cursor[from_[e]]++)] = static_cast<int>(e);
  }

  void set_capacity(int e, Cap cap) { cap_init_[e] = cap; }
  void install_flow(const std::vector<Cap>& fwd) {
    for (std::size_t k = 0; k < fwd.size(); ++k) {
      cap_[2 * k] = cap_init_[2 * k] - fwd[k];
      cap_[2 * k + 1] = fwd[k];
    }
  }
  std::vector<Cap> save_flow() const {
    std::vector<Cap> fwd(cap_.size() / 2);
    for (std::size_t k = 0; k < fwd.size(); ++k)
      fwd[k] = cap_init_[2 * k] - cap_[2 * k];
    return fwd;
  }
  Cap flow(int e) const { return cap_init_[e] - cap_[e]; }
  Cap residual(int e) const { return cap_[e]; }

  Cap augment(int s, int t, MaxFlowAlgo algo) {
    return algo == MaxFlowAlgo::kDinic ? dinic(s, t) : edmonds_karp(s, t);
  }

 private:
  std::span<const int> out(int v) const {
    return {arcs_.data() + begin_[v], arcs_.data() + begin_[v + 1]};
  }
  void push(int e, Cap x) {
    cap_[e] -= x;
    cap_[e ^ 1] += x;
  }

  Cap edmonds_karp(int s, int t) {
    Cap total = 0;
    for (;;) {
      std::vector<int> pred(static_cast<std::size_t>(n_), -1);
      std::vector<int> queue{s};
      pred[s] = -2;
      bool found = false;
      for (std::size_t h = 0; h < queue.size() && !found; ++h)
        for (const int e : out(queue[h]))
          if (pred[to_[e]] == -1 && cap_[e] > 0) {
            pred[to_[e]] = e;
            if (to_[e] == t) {
              found = true;
              break;
            }
            queue.push_back(to_[e]);
          }
      if (!found) return total;
      Cap b = FlowGraph::kInfinite;
      for (int v = t; v != s; v = from_[pred[v]])
        b = std::min(b, cap_[pred[v]]);
      for (int v = t; v != s; v = from_[pred[v]]) push(pred[v], b);
      total += b;
    }
  }

  Cap dinic(int s, int t) {
    Cap total = 0;
    for (;;) {
      level_.assign(static_cast<std::size_t>(n_), -1);
      std::vector<int> queue{s};
      level_[s] = 0;
      for (std::size_t h = 0; h < queue.size(); ++h)
        for (const int e : out(queue[h]))
          if (level_[to_[e]] < 0 && cap_[e] > 0) {
            level_[to_[e]] = level_[queue[h]] + 1;
            queue.push_back(to_[e]);
          }
      if (level_[t] < 0) return total;
      iter_.assign(static_cast<std::size_t>(n_), 0);
      while (const Cap pushed = dfs(s, t, FlowGraph::kInfinite))
        total += pushed;
    }
  }

  /// The textbook recursive blocking-flow DFS (graphs here are small).
  Cap dfs(int v, int t, Cap limit) {
    if (v == t) return limit;
    const auto arcs = out(v);
    for (std::size_t& i = iter_[v]; i < arcs.size(); ++i) {
      const int e = arcs[i];
      if (cap_[e] > 0 && level_[to_[e]] == level_[v] + 1)
        if (const Cap d = dfs(to_[e], t, std::min(limit, cap_[e])); d > 0) {
          push(e, d);
          return d;
        }
    }
    return 0;
  }

  int n_;
  std::vector<int> from_, to_, begin_, arcs_, level_;
  std::vector<Cap> cap_, cap_init_;
  std::vector<std::size_t> iter_;
};

/// Per arc id: flow and residual bit-equal between the two layouts.
void expect_same_arcs(const FlowGraph& g, const IdOrderedFlow& ref,
                      const std::string& what) {
  for (int e = 0; e < g.num_arcs(); ++e) {
    ASSERT_EQ(g.flow(e), ref.flow(e)) << what << " arc " << e;
    ASSERT_EQ(g.residual(e), ref.residual(e)) << what << " arc " << e;
  }
}

TEST(FlowLayout, MatchesIdOrderedReference) {
  int carried = 0;  // solves that moved flow, so the check has teeth
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(500 + seed);
    const int n = 3 + static_cast<int>(rng.below(12));
    std::vector<std::tuple<int, int, FlowGraph::Cap>> spec;
    const int tries = 2 * n + static_cast<int>(rng.below(30));
    for (int k = 0; k < tries; ++k) {
      const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      if (u == v) continue;  // self-loops are skipped
      // Zero-capacity forward arcs, and the odd parallel copy.
      const FlowGraph::Cap cap =
          rng.bernoulli(0.15) ? 0
                              : static_cast<FlowGraph::Cap>(1 + rng.below(9));
      spec.push_back({u, v, cap});
      if (rng.bernoulli(0.2)) spec.push_back({u, v, 1 + cap});
    }
    for (const MaxFlowAlgo algo :
         {MaxFlowAlgo::kDinic, MaxFlowAlgo::kEdmondsKarp}) {
      const std::string what = "seed " + std::to_string(seed) +
                               (algo == MaxFlowAlgo::kDinic ? " dinic" : " ek");
      FlowGraph g;
      g.reset(n);
      IdOrderedFlow ref(n);
      for (const auto& [u, v, c] : spec) {
        g.add_arc(u, v, c);
        ref.add_arc(u, v, c);
      }
      g.build_csr();
      ref.build_csr();
      MaxFlow mf;
      const int s = 0, t = n - 1;
      const FlowGraph::Cap value = mf.augment(g, s, t, algo);
      ASSERT_EQ(value, ref.augment(s, t, algo)) << what;
      if (value > 0) ++carried;
      expect_same_arcs(g, ref, what + " cold");

      // Warm sequence, as a δ-probe runs it: raise some capacities,
      // reinstall the saved flow, augment on top, snapshot.
      std::vector<FlowGraph::Cap> saved;
      g.save_flow(saved);
      ASSERT_EQ(saved, ref.save_flow()) << what;
      for (int e = 0; e < g.num_arcs(); e += 2) {
        if (!rng.bernoulli(0.5)) continue;
        const FlowGraph::Cap cap =
            g.capacity(e) + static_cast<FlowGraph::Cap>(rng.below(5));
        g.set_capacity(e, cap);
        ref.set_capacity(e, cap);
      }
      g.install_flow(saved);
      ref.install_flow(saved);
      ASSERT_EQ(mf.augment(g, s, t, algo), ref.augment(s, t, algo)) << what;
      expect_same_arcs(g, ref, what + " warm");
      g.save_flow(saved);
      EXPECT_EQ(saved, ref.save_flow()) << what;
    }
  }
  EXPECT_GE(carried, 50);
}

// ---------- Min-max load ----------

/// Star: every sensor hears the head directly → max load = own demand.
TEST(MinMaxLoad, SingleHopStar) {
  Graph g(4);
  ClusterTopology topo(std::move(g), {true, true, true, true});
  const auto r = solve_min_max_load(topo, {3, 1, 2, 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.max_load, 3);
  EXPECT_EQ(r.load, (std::vector<std::int64_t>{3, 1, 2, 1}));
  for (NodeId s = 0; s < 4; ++s) {
    ASSERT_EQ(r.paths[s].size(), 1u);
    EXPECT_EQ(r.paths[s][0].hops, (std::vector<NodeId>{s, topo.head()}));
  }
}

/// Chain 2-1-0-head: loads accumulate toward the head.
TEST(MinMaxLoad, ChainAccumulates) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ClusterTopology topo(std::move(g), {true, false, false});
  const auto r = solve_min_max_load(topo, {1, 1, 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.max_load, 3);  // sensor 0 relays everything
  EXPECT_EQ(r.load[0], 3);
  EXPECT_EQ(r.load[2], 1);
}

/// Diamond: 2 can reach the head via 0 or 1; balancing splits the load.
TEST(MinMaxLoad, DiamondBalances) {
  Graph g(3);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  ClusterTopology topo(std::move(g), {true, true, false});
  const auto r = solve_min_max_load(topo, {1, 1, 2});
  ASSERT_TRUE(r.feasible);
  // Sensor 2's two packets split across both gateways: each gateway
  // carries its own packet plus one relayed — max load 2 instead of 3.
  EXPECT_EQ(r.max_load, 2);
  EXPECT_EQ(r.load[2], 2);
  EXPECT_EQ(r.load[0] + r.load[1], 4);
  EXPECT_LE(std::max(r.load[0], r.load[1]), 2);
  // Sensor 2 got two unit paths (or one path of two units through... no:
  // balancing forces a split).
  std::int64_t units = 0;
  for (const auto& p : r.paths[2]) units += p.units;
  EXPECT_EQ(units, 2);
  EXPECT_EQ(r.paths[2].size(), 2u);
}

TEST(MinMaxLoad, InfeasibleWhenDisconnected) {
  Graph g(2);
  ClusterTopology topo(std::move(g), {true, false});
  const auto r = solve_min_max_load(topo, {1, 1});
  EXPECT_FALSE(r.feasible);
}

TEST(MinMaxLoad, ZeroDemandTriviallyFeasible) {
  Graph g(2);
  ClusterTopology topo(std::move(g), {true, false});
  const auto r = solve_min_max_load(topo, {0, 0});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.max_load, 0);
}

TEST(MinMaxLoad, WeightsShiftLoadToStrongSensors) {
  // Diamond again, but gateway 0 has double capacity.
  Graph g(3);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  ClusterTopology topo(std::move(g), {true, true, false});
  const auto r = solve_min_max_load(topo, {1, 1, 4}, {2, 1, 2});
  ASSERT_TRUE(r.feasible);
  // δ* such that 2δ (node 0) + 1δ (node 1) handles its own + 4 relayed.
  EXPECT_GE(r.load[0], r.load[1]);
}

/// Paths must exist in the topology, end at the head and meet demand.
void expect_valid_paths(const ClusterTopology& topo,
                        const std::vector<std::int64_t>& demand,
                        const MinMaxLoadResult& r) {
  for (NodeId s = 0; s < topo.num_sensors(); ++s) {
    std::int64_t units = 0;
    for (const auto& p : r.paths[s]) {
      ASSERT_GE(p.hops.size(), 2u);
      EXPECT_EQ(p.hops.front(), s);
      EXPECT_EQ(p.hops.back(), topo.head());
      for (std::size_t i = 0; i + 1 < p.hops.size(); ++i) {
        if (i + 2 == p.hops.size())
          EXPECT_TRUE(topo.head_hears(p.hops[i]));
        else
          EXPECT_TRUE(topo.sensors_linked(p.hops[i], p.hops[i + 1]));
      }
      units += p.units;
    }
    EXPECT_EQ(units, demand[s]);
  }
  // Reported loads match the paths.
  std::vector<std::int64_t> load(topo.num_sensors(), 0);
  for (const auto& list : r.paths)
    for (const auto& p : list)
      for (std::size_t i = 0; i + 1 < p.hops.size(); ++i)
        load[p.hops[i]] += p.units;
  EXPECT_EQ(load, r.load);
  EXPECT_EQ(*std::max_element(load.begin(), load.end()), r.max_load);
}

class RandomMinMaxLoad : public ::testing::TestWithParam<int> {};

TEST_P(RandomMinMaxLoad, PathsValidAndNeverWorseThanShortestPath) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 5 + rng.below(15);
  const Deployment dep =
      deploy_connected_uniform_square(n, 150.0, 60.0, rng);
  const ClusterTopology topo = disc_topology(dep, 60.0);
  std::vector<std::int64_t> demand(n);
  for (auto& d : demand) d = static_cast<std::int64_t>(rng.below(4));

  const auto balanced = solve_min_max_load(topo, demand);
  ASSERT_TRUE(balanced.feasible);
  expect_valid_paths(topo, demand, balanced);

  const auto shortest = solve_shortest_path_routing(topo, demand);
  ASSERT_TRUE(shortest.feasible);
  expect_valid_paths(topo, demand, shortest);

  EXPECT_LE(balanced.max_load, shortest.max_load);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMinMaxLoad, ::testing::Range(0, 20));

TEST(MinMaxLoad, EdmondsKarpAgreesWithDinic) {
  Rng rng(77);
  const Deployment dep = deploy_connected_uniform_square(12, 150.0, 60.0, rng);
  const ClusterTopology topo = disc_topology(dep, 60.0);
  std::vector<std::int64_t> demand(12, 2);
  const auto a = solve_min_max_load(topo, demand, {},
                                    MaxFlowAlgo::kEdmondsKarp);
  const auto b = solve_min_max_load(topo, demand, {}, MaxFlowAlgo::kDinic);
  EXPECT_EQ(a.max_load, b.max_load);
}

}  // namespace
}  // namespace mhp
