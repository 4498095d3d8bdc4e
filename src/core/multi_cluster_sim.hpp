// Multiple clusters in one field (§V-G): quantify inter-cluster
// interference and the paper's two remedies.
//
//  * kShared  — every cluster polls on one radio channel; boundary
//    sensors of neighboring clusters collide (the problem).
//  * kColored — clusters get channels from a colouring of the cluster
//    adjacency graph (≤6 needed, planar); same-colour clusters are far
//    apart, different colours are modelled as isolated channels.
//  * kToken   — one shared channel, but heads take turns: head k drains
//    in window k of each cycle (period/K each), so no two clusters are
//    ever on the air together.
//
// Substrate (simulator, per-group channels, trace, metrics, RNG) comes
// from one shared SimRuntime; one channel is added per colour group.
// Every cluster runs the ClusterField pipeline PollingSimulation uses,
// always on fixed cycle-0 paths (no sectors, no path rotation).
#pragma once

#include <vector>

#include "core/cluster_field.hpp"
#include "core/polling_simulation.hpp"
#include "core/protocol_config.hpp"
#include "net/deployment.hpp"
#include "sim/runtime.hpp"

namespace mhp {

enum class InterClusterMode { kShared, kColored, kToken };

const char* to_string(InterClusterMode mode);

struct ClusterSpec {
  Deployment deployment;  // positions relative to the cluster's own frame
  Vec2 origin;            // where this cluster sits in the field
};

struct MultiClusterReport {
  std::vector<double> delivery_ratio;  // per cluster
  std::vector<double> mean_active;     // per cluster
  double aggregate_delivery = 0.0;
  double aggregate_throughput_bps = 0.0;
  int channels_used = 1;
  /// Field-wide totals populated from the runtime's MetricsRegistry.
  RunStats totals;
  /// Present iff the run had fault injection or recovery enabled.
  /// Fault-plan node ids (and dead_nodes here) are *field-wide* sensor
  /// ids: sensors numbered consecutively cluster by cluster, heads
  /// excluded.  Repairs happen per cluster at the owning head.
  std::optional<DegradationReport> degradation;
  /// Field-wide oracle-cache effectiveness, summed over every cluster's
  /// live cache plus wrappers retired by replans.  Present iff
  /// cfg.cache_oracle.
  std::optional<OracleCacheStats> oracle;
};

class MultiClusterSimulation {
 public:
  /// Precondition: cfg.faults has no link-degradation windows.  Every
  /// cluster polls on fixed cycle-0 paths: cfg.use_sectors and
  /// cfg.rotate_paths are not used (the scenario parser rejects
  /// use_sectors for this stack).
  MultiClusterSimulation(std::vector<ClusterSpec> clusters,
                         ProtocolConfig cfg, InterClusterMode mode,
                         double rate_bps,
                         double interference_range = 400.0,
                         const RuntimeOptions& rt_opts = {});

  MultiClusterSimulation(const MultiClusterSimulation&) = delete;
  MultiClusterSimulation& operator=(const MultiClusterSimulation&) = delete;

  MultiClusterReport run(Time duration, Time warmup = Time::sec(10));

  int channels_used() const { return channels_used_; }
  SimRuntime& runtime() { return rt_; }
  MetricsRegistry& metrics() { return rt_.metrics(); }

 private:
  void build(std::vector<ClusterSpec> clusters, double rate_bps,
             double interference_range, std::size_t route_workers);

  InterClusterMode mode_;
  SimRuntime rt_;
  ClusterField field_;
  int channels_used_ = 1;
};

}  // namespace mhp
