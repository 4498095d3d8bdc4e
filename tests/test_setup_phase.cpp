// Set-up phase procedures (§V-A/B/E): discovery correctness and slot
// accounting.
#include <gtest/gtest.h>

#include "core/setup_phase.hpp"
#include "net/deployment.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

struct ChannelFixture {
  Simulator sim;
  TwoRayGround prop;
  std::unique_ptr<Channel> channel;

  explicit ChannelFixture(const Deployment& dep) {
    std::vector<double> powers(dep.positions.size(),
                               RadioParams::kSensorTxPowerW);
    powers.back() = RadioParams::kHeadTxPowerW;
    channel = std::make_unique<Channel>(sim, prop, RadioParams{},
                                        dep.positions, powers);
  }
};

// One path per sensor along the discovery BFS's temporary tree.
std::vector<std::vector<NodeId>> temp_tree_paths(const SetupResult& disc,
                                                 std::size_t n) {
  const auto head = static_cast<NodeId>(n);
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < head; ++s) {
    std::vector<NodeId> p{s};
    for (NodeId v = s; v != head;) {
      v = disc.temp_parent[v];
      p.push_back(v);
    }
    paths.push_back(std::move(p));
  }
  return paths;
}

TEST(SetupPhase, DiscoversGroundTruthTopology) {
  Rng rng(21);
  const Deployment dep = deploy_connected_uniform_square(25, 200.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto result = run_setup_discovery(*fx.channel, 25);
  const auto truth = topology_from_predicate(25, [&](NodeId a, NodeId b) {
    return fx.channel->link_ok(a, b);
  });
  ASSERT_EQ(result.topology.num_sensors(), truth.num_sensors());
  for (NodeId a = 0; a < 25; ++a) {
    EXPECT_EQ(result.topology.head_hears(a), truth.head_hears(a));
    for (NodeId b = 0; b < 25; ++b) {
      if (a != b) {
        EXPECT_EQ(result.topology.sensors_linked(a, b),
                  truth.sensors_linked(a, b));
      }
    }
  }
}

TEST(SetupPhase, TempParentsFormTreeTowardHead) {
  Rng rng(22);
  const Deployment dep = deploy_connected_uniform_square(20, 200.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto result = run_setup_discovery(*fx.channel, 20);
  const NodeId head = 20;
  for (NodeId s = 0; s < 20; ++s) {
    ASSERT_NE(result.temp_parent[s], kNoNode) << "undiscovered sensor";
    std::size_t steps = 0;
    for (NodeId v = s; v != head; v = result.temp_parent[v])
      ASSERT_LE(++steps, 20u) << "cycle in temp tree";
  }
}

TEST(SetupPhase, CostsScaleWithClusterSize) {
  Rng rng(23);
  const Deployment small =
      deploy_connected_uniform_square(10, 150.0, 60.0, rng);
  const Deployment large =
      deploy_connected_uniform_square(40, 200.0, 60.0, rng);
  ChannelFixture fs(small), fl(large);
  const auto rs = run_setup_discovery(*fs.channel, 10);
  const auto rl = run_setup_discovery(*fl.channel, 40);
  // Lower bound: one broadcast per member in each phase.
  EXPECT_GE(rs.cost.discovery_slots, 1u + 10u);
  EXPECT_GE(rs.cost.connectivity_slots, 10u);
  EXPECT_GT(rl.cost.discovery_slots, rs.cost.discovery_slots);
  EXPECT_GT(rl.cost.connectivity_slots, rs.cost.connectivity_slots);
  EXPECT_GE(rl.cost.discovery_rounds, 1u);
}

TEST(SetupPhase, ProbingCostMatchesOracleProbes) {
  Rng rng(24);
  const Deployment dep = deploy_connected_uniform_square(15, 180.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto disc = run_setup_discovery(*fx.channel, 15);
  const auto paths = temp_tree_paths(disc, 15);
  const auto probe = run_interference_probing(*fx.channel, paths, 2);
  const auto universe = transmissions_of_paths(paths);
  const auto u = universe.size();
  // The airtime charged is the full §V-E probe of the universe, whatever
  // the scheduler later asks about.
  EXPECT_EQ(probe.oracle.universe_size(), u);
  EXPECT_EQ(probe.cost.probe_groups, MeasuredOracle::probe_count(u, 2));
  EXPECT_EQ(probe.cost.probe_slots, 2 * MeasuredOracle::probe_count(u, 2));
  // The oracle itself tests on demand: nothing yet, then one probe per
  // structurally valid pair when the whole universe is queried.
  EXPECT_EQ(probe.oracle.probes(), 0u);
  std::uint64_t valid = 0;
  for (std::size_t i = 0; i < u; ++i)
    for (std::size_t j = i + 1; j < u; ++j) {
      const std::vector<Tx> g{universe[i], universe[j]};
      if (structurally_valid(g)) ++valid;
      probe.oracle.compatible(g);
    }
  EXPECT_GT(valid, 0u);
  EXPECT_EQ(probe.oracle.probes(), valid);
  EXPECT_LE(probe.oracle.probes(), probe.cost.probe_groups);
}

// Overwrites the stack the probing call's frames used, so a reference
// into them reads garbage instead of stale but intact bytes.
[[gnu::noinline]] void clobber_stack() {
  volatile unsigned char junk[16384];
  for (auto& b : junk) b = 0xA5;
}

TEST(SetupPhase, ProbedOracleOutlivesTheProbingCall) {
  // The oracle probes its ground truth on demand, long after
  // run_interference_probing has returned: the result must own that
  // truth, and moving the result must not leave the oracle dangling.
  Rng rng(26);
  // Spread out enough that some pairs of tree hops can run concurrently.
  const Deployment dep = deploy_connected_uniform_square(40, 250.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto disc = run_setup_discovery(*fx.channel, 40);
  const auto paths = temp_tree_paths(disc, 40);
  auto first = std::make_unique<ProbeResult>(
      run_interference_probing(*fx.channel, paths, 3));
  const ProbeResult probe = std::move(*first);
  first.reset();
  clobber_stack();

  const ChannelOracle truth(*fx.channel, 3);
  const auto universe = transmissions_of_paths(paths);
  std::size_t compatible_pairs = 0;
  for (std::size_t i = 0; i < universe.size(); ++i)
    for (std::size_t j = i + 1; j < universe.size(); ++j) {
      const std::vector<Tx> g{universe[i], universe[j]};
      EXPECT_EQ(probe.oracle.compatible(g), truth.compatible(g));
      if (truth.compatible(g)) ++compatible_pairs;
    }
  EXPECT_GT(compatible_pairs, 0u);
  EXPECT_GT(probe.oracle.probes(), 0u);
}

TEST(SetupPhase, SectoredProbingIsFarCheaper) {
  // The §IV argument executed: probing per sector beats probing the
  // whole cluster because C(u, M) is super-linear in u.
  Rng rng(25);
  const Deployment dep = deploy_connected_uniform_square(36, 220.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto disc = run_setup_discovery(*fx.channel, 36);
  const auto paths = temp_tree_paths(disc, 36);
  const auto whole = run_interference_probing(*fx.channel, paths, 3);
  EXPECT_EQ(whole.cost.probe_groups,
            MeasuredOracle::probe_count(transmissions_of_paths(paths).size(),
                                        3));

  // Split the paths into 4 arbitrary quarters ("sectors") and probe each.
  std::uint64_t sectored_groups = 0;
  for (int q = 0; q < 4; ++q) {
    std::vector<std::vector<NodeId>> part;
    for (std::size_t i = static_cast<std::size_t>(q); i < paths.size();
         i += 4)
      part.push_back(paths[i]);
    const auto groups =
        run_interference_probing(*fx.channel, part, 3).cost.probe_groups;
    EXPECT_EQ(groups, MeasuredOracle::probe_count(
                          transmissions_of_paths(part).size(), 3));
    sectored_groups += groups;
  }
  EXPECT_LT(sectored_groups, whole.cost.probe_groups / 3);
}

}  // namespace
}  // namespace mhp
