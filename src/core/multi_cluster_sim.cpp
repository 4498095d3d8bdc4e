#include "core/multi_cluster_sim.hpp"

#include <algorithm>

#include "core/coloring.hpp"
#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

const char* to_string(InterClusterMode mode) {
  switch (mode) {
    case InterClusterMode::kShared:
      return "shared";
    case InterClusterMode::kColored:
      return "colored";
    case InterClusterMode::kToken:
      return "token";
  }
  return "?";
}

namespace {
constexpr SpanNames kSpans{"mc/warmup", "mc/measured", "mc/replan"};
}  // namespace

MultiClusterSimulation::MultiClusterSimulation(
    std::vector<ClusterSpec> clusters, ProtocolConfig cfg,
    InterClusterMode mode, double rate_bps, double interference_range,
    const RuntimeOptions& rt_opts)
    : mode_(mode), rt_(cfg.seed, rt_opts), field_(rt_, cfg, kSpans) {
  MHP_REQUIRE(!clusters.empty(), "need at least one cluster");
  MHP_REQUIRE(cfg.faults.degradations().empty(),
              "link-degradation windows are single-cluster only");
  build(std::move(clusters), rate_bps, interference_range,
        rt_opts.route_workers);
}

void MultiClusterSimulation::build(std::vector<ClusterSpec> specs,
                                   double rate_bps,
                                   double interference_range,
                                   std::size_t route_workers) {
  MHP_SPAN("mc/setup");
  const ProtocolConfig& cfg = field_.config();
  const std::size_t num_clusters = specs.size();
  adopt_propagation(rt_, cfg);

  // Channel groups.  kColored: colour the cluster adjacency graph; each
  // colour is an isolated channel.  Otherwise everyone shares channel 0.
  std::vector<int> group_of(num_clusters, 0);
  if (mode_ == InterClusterMode::kColored) {
    Graph adjacency(num_clusters);
    for (NodeId a = 0; a < num_clusters; ++a)
      for (NodeId b = a + 1; b < num_clusters; ++b) {
        const Vec2 ha = specs[a].origin + specs[a].deployment.head_pos();
        const Vec2 hb = specs[b].origin + specs[b].deployment.head_pos();
        if (distance(ha, hb) <= interference_range) adjacency.add_edge(a, b);
      }
    const auto colors = six_color_planar(adjacency);
    MHP_ENSURE(proper_coloring(adjacency, colors), "colouring failed");
    group_of = colors;
    channels_used_ = num_colors(colors);
  }
  const int num_groups =
      1 + *std::max_element(group_of.begin(), group_of.end());

  // One Channel per group, nodes concatenated cluster by cluster; each
  // cluster's base is its first id on its channel.
  std::vector<NodeId> base(num_clusters);
  std::vector<std::vector<Vec2>> positions(num_groups);
  std::vector<std::vector<double>> powers(num_groups);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    const auto g = static_cast<std::size_t>(group_of[c]);
    base[c] = static_cast<NodeId>(positions[g].size());
    const auto& dep = specs[c].deployment;
    for (std::size_t i = 0; i < dep.positions.size(); ++i) {
      positions[g].push_back(specs[c].origin + dep.positions[i]);
      powers[g].push_back(i + 1 == dep.positions.size()
                              ? RadioParams::kHeadTxPowerW
                              : RadioParams::kSensorTxPowerW);
    }
  }
  for (int g = 0; g < num_groups; ++g)
    rt_.add_channel(cfg.radio, positions[static_cast<std::size_t>(g)],
                    powers[static_cast<std::size_t>(g)]);
  for (std::size_t c = 0; c < num_clusters; ++c)
    field_.add_cluster(
        rt_.channel(static_cast<std::size_t>(group_of[c])), base[c],
        std::vector<double>(specs[c].deployment.num_sensors(), rate_bps));

  // Token rotation: each head drains in its own window of the cycle.
  const Time window = Time::ns(cfg.cycle_period.nanos() /
                               static_cast<std::int64_t>(num_clusters));
  if (mode_ == InterClusterMode::kToken) field_.set_drain_window(window);

  field_.setup(PlanMode::kFixed, route_workers);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    field_.build_agents(c, 1000 + c);
    // Staggered starts for token rotation; simultaneous otherwise (the
    // worst case for the shared channel).
    Time start = Time::ms(10);
    if (mode_ == InterClusterMode::kToken)
      start += Time::ns(static_cast<std::int64_t>(c) * window.nanos());
    field_.head(c).start(start);
  }
  field_.finish_setup();
}

MultiClusterReport MultiClusterSimulation::run(Time duration, Time warmup) {
  field_.run(duration, warmup);

  MHP_SPAN("mc/collect");
  const std::vector<ClusterTally> tallies = field_.collect();
  const auto ratio = [](std::uint64_t del, std::uint64_t gen) {
    return gen == 0 ? 1.0
                    : static_cast<double>(del) / static_cast<double>(gen);
  };
  MultiClusterReport rep;
  rep.channels_used = channels_used_;
  std::uint64_t generated = 0, delivered = 0, bytes = 0;
  for (std::size_t c = 0; c < tallies.size(); ++c) {
    const ClusterTally& t = tallies[c];
    rep.delivery_ratio.push_back(ratio(t.delivered, t.generated));
    rep.mean_active.push_back(
        t.active_sum / static_cast<double>(field_.cluster(c).num_sensors()));
    generated += t.generated;
    delivered += t.delivered;
    bytes += t.bytes;
  }
  rep.aggregate_delivery = ratio(delivered, generated);
  rep.aggregate_throughput_bps =
      static_cast<double>(bytes) / (duration - warmup).to_seconds();
  rt_.metrics().counter("clusters").add(tallies.size());
  rep.degradation = field_.degradation();
  rep.oracle = field_.oracle_stats();
  rep.totals =
      rt_.collect_run_stats(duration - warmup, field_.config().data_bytes);
  return rep;
}

}  // namespace mhp
