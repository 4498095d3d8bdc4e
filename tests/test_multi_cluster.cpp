// Inter-cluster coordination (§V-G): shared-channel interference and the
// two remedies, on the event simulator.
#include <gtest/gtest.h>

#include "core/multi_cluster_sim.hpp"
#include "radio/propagation.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

std::vector<ClusterSpec> two_adjacent_clusters(std::uint64_t seed) {
  std::vector<ClusterSpec> specs;
  Rng rng(seed);
  for (int i = 0; i < 2; ++i) {
    ClusterSpec spec;
    spec.deployment = deploy_connected_uniform_square(10, 170.0, 60.0, rng);
    spec.origin = {i * 200.0, 0.0};  // overlapping boundaries
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(MultiCluster, ColoredChannelsIsolateClusters) {
  ProtocolConfig cfg;
  cfg.seed = 3;
  MultiClusterSimulation sim(two_adjacent_clusters(3), cfg,
                             InterClusterMode::kColored, 30.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_EQ(rep.channels_used, 2);
  for (double d : rep.delivery_ratio) EXPECT_GE(d, 0.95);
}

TEST(MultiCluster, TokenRotationSharesOneChannel) {
  ProtocolConfig cfg;
  cfg.seed = 4;
  MultiClusterSimulation sim(two_adjacent_clusters(4), cfg,
                             InterClusterMode::kToken, 30.0);
  EXPECT_EQ(sim.channels_used(), 1);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  for (double d : rep.delivery_ratio) EXPECT_GE(d, 0.95);
}

TEST(MultiCluster, SharedChannelSuffersAtBoundaries) {
  ProtocolConfig cfg;
  cfg.seed = 5;
  MultiClusterSimulation shared(two_adjacent_clusters(5), cfg,
                                InterClusterMode::kShared, 30.0);
  const auto rs = shared.run(Time::sec(40), Time::sec(10));

  MultiClusterSimulation colored(two_adjacent_clusters(5), cfg,
                                 InterClusterMode::kColored, 30.0);
  const auto rc = colored.run(Time::sec(40), Time::sec(10));

  // Simultaneous polls on one channel lose packets the remedies do not.
  EXPECT_LT(rs.aggregate_delivery, rc.aggregate_delivery);
}

TEST(MultiCluster, FarApartClustersShareSafely) {
  // 1 km apart: no mutual interference even on the shared channel.
  std::vector<ClusterSpec> specs;
  Rng rng(6);
  for (int i = 0; i < 2; ++i) {
    ClusterSpec spec;
    spec.deployment = deploy_connected_uniform_square(8, 150.0, 60.0, rng);
    spec.origin = {i * 1000.0, 0.0};
    specs.push_back(std::move(spec));
  }
  ProtocolConfig cfg;
  cfg.seed = 6;
  MultiClusterSimulation sim(specs, cfg, InterClusterMode::kShared, 30.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  for (double d : rep.delivery_ratio) EXPECT_GE(d, 0.95);

  // And the colouring agrees: no adjacency → one channel suffices.
  MultiClusterSimulation colored(specs, cfg, InterClusterMode::kColored,
                                 30.0);
  EXPECT_EQ(colored.channels_used(), 1);
}

TEST(MultiCluster, SingleClusterDegeneratesToPlainProtocol) {
  std::vector<ClusterSpec> specs;
  Rng rng(7);
  ClusterSpec spec;
  spec.deployment = deploy_connected_uniform_square(10, 170.0, 60.0, rng);
  spec.origin = {0.0, 0.0};
  specs.push_back(std::move(spec));
  ProtocolConfig cfg;
  cfg.seed = 7;
  MultiClusterSimulation sim(specs, cfg, InterClusterMode::kShared, 30.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  ASSERT_EQ(rep.delivery_ratio.size(), 1u);
  EXPECT_GE(rep.delivery_ratio[0], 0.95);
}

TEST(MultiCluster, HonoursPropagationModel) {
  ProtocolConfig cfg;
  cfg.seed = 8;
  cfg.propagation = PropagationModel::kFreeSpace;
  MultiClusterSimulation sim(two_adjacent_clusters(8), cfg,
                             InterClusterMode::kColored, 30.0);
  EXPECT_NE(dynamic_cast<const FreeSpace*>(&sim.runtime().propagation()),
            nullptr);
}

}  // namespace
}  // namespace mhp
