// Acknowledgement collection planning (§V-F).
//
// At the start of a duty cycle the head must hear one ack (with backlog
// count) from every awake sensor.  Acks aggregate along relay paths —
// the outermost sensor of a path is polled, and each relay appends its own
// ack while forwarding — so the head only needs a set of paths *covering*
// all sensors, chosen with minimum total hop count: a weighted set cover,
// solved greedily.  The chosen paths are then scheduled with the same
// multi-hop polling algorithm as data.
#pragma once

#include <cstdint>
#include <vector>

#include "core/head_agent.hpp"
#include "core/routing.hpp"
#include "core/set_cover.hpp"
#include "net/cluster.hpp"
#include "net/ids.hpp"

namespace mhp {

struct AckPlan {
  /// Paths to poll, each origin → … → head; every sensor in the cluster
  /// (or sector) appears on at least one of them.
  std::vector<std::vector<NodeId>> poll_paths;
  double total_hops = 0.0;
  bool covers_all = false;
};

/// Build the candidate paths for `sensors` (default: the whole cluster)
/// from the relay plan's cycle paths, with tree fallbacks for zero-demand
/// sensors, and pick a minimum-hop cover.
AckPlan plan_ack_collection(const ClusterTopology& topo,
                            const RelayPlan& plan, std::uint64_t cycle,
                            const std::vector<NodeId>& sensors = {});

/// Core cover step with explicit candidates: pick a minimum-total-hop
/// subset of `candidates` whose on-path sensors cover every target.
AckPlan plan_ack_cover(const std::vector<NodeId>& targets,
                       const std::vector<std::vector<NodeId>>& candidates);

/// One sector covering `members` (cluster-local ids): each member's data
/// path is its cycle-`cycle` path of `plan`, and the ack paths are a
/// minimum-hop cover of those paths.  Every id in the result is shifted
/// by `base`, the cluster's first id on its channel (0 for a lone
/// cluster).  This is the whole-cluster plan of the unsectored protocol,
/// of path rotation (§V-D) and of a repaired cluster.
SectorPlan covering_sector(const RelayPlan& plan,
                           const std::vector<NodeId>& members,
                           std::uint64_t cycle = 0, NodeId base = 0);

/// The naive baseline (ablation): poll every sensor's own path.
AckPlan ack_poll_everyone(const ClusterTopology& topo, const RelayPlan& plan,
                          std::uint64_t cycle,
                          const std::vector<NodeId>& sensors = {});

}  // namespace mhp
