// One cluster pipeline for one or many polling clusters (§III–V per
// cluster; §V-G runs a field as several copies of it).
//
// A ClusterField holds the per-cluster state and runs the lifecycle
// every polling stack shares: connectivity discovery over the SINR
// channel (§V-B), load-balanced routing (§III-A), sector / ack-cover
// plans (§IV, §V-F), M-wise interference probing (§V-E), agent
// construction, fault injection with head-driven route repair, the
// warmup / measured windows and the end-of-run accounting.
//
// PollingSimulation is a one-cluster field; MultiClusterSimulation adds
// channel colouring or token windows between clusters.  The facades own
// the SimRuntime substrate and the report shapes; set-up steps that
// schedule events are separate calls so each facade keeps its own event
// and uid order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/head_agent.hpp"
#include "core/interference.hpp"
#include "core/protocol_config.hpp"
#include "core/routing.hpp"
#include "core/sectors.hpp"
#include "core/sensor_agent.hpp"
#include "net/cluster.hpp"
#include "route/routing_engine.hpp"
#include "sim/runtime.hpp"

namespace mhp {

/// Install the propagation model `cfg.propagation` names on `rt` (before
/// its first channel).
void adopt_propagation(SimRuntime& rt, const ProtocolConfig& cfg);

/// How a cluster's head gets its sector plans.
enum class PlanMode {
  kFixed,     // one covering sector on fixed cycle-0 paths
  kRotating,  // one covering sector whose paths rotate per cycle (§V-D)
  kSectors,   // the §IV sector partition, one plan per sector
};

/// Top-level span names of a facade's windows and replans (string
/// literals: the profiler stores them by pointer).
struct SpanNames {
  const char* warmup;
  const char* measured;
  const char* replan;
};

/// Everything one cluster owns.  Sensor ids are cluster-local in the
/// topology, plans, demand and `declared_dead`; agents and sector plans
/// use channel ids, which are the local ids shifted by `base`.
struct Cluster {
  NodeId base = 0;  // first id of this cluster on its channel
  Channel* channel = nullptr;
  std::vector<double> rates;  // bytes/s per sensor
  std::unique_ptr<ClusterTopology> topo;
  /// Routing demand: expected packets per duty cycle (at least 1).
  std::vector<std::int64_t> demand;
  std::unique_ptr<RelayPlan> plan;
  /// Latest repaired plan: the warm hint for the next replan (`plan`
  /// itself stays put because a rotating provider references it).
  std::unique_ptr<RelayPlan> repair_plan;
  std::optional<SectorPartition> partition;  // PlanMode::kSectors only
  std::unique_ptr<ChannelOracle> truth;
  std::unique_ptr<MeasuredOracle> oracle;
  /// The memoizing wrapper the head schedules through; null when
  /// cfg.cache_oracle is off.
  std::unique_ptr<CachedOracle> cached;
  /// Oracles and caches replaced by repairs; kept alive because the
  /// head's current phase may still reference the previous ones.
  std::vector<std::unique_ptr<MeasuredOracle>> retired_oracles;
  std::vector<std::unique_ptr<CachedOracle>> retired_caches;
  std::unique_ptr<CyclePlanProvider> provider;  // PlanMode::kRotating only
  std::vector<SectorPlan> setup_sectors;  // handed to the head at build
  std::unique_ptr<HeadAgent> head;
  std::vector<std::unique_ptr<SensorAgent>> sensors;
  std::vector<NodeId> declared_dead;  // the head's cumulative declarations
  std::uint64_t last_orphaned = 0;

  std::size_t num_sensors() const { return rates.size(); }
  NodeId head_id() const { return base + static_cast<NodeId>(rates.size()); }
};

/// One cluster's measured-window totals (sensors settled).
struct ClusterTally {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::uint64_t overflow = 0;  // sensor queue-overflow drops
  double active_sum = 0.0;     // Σ sensor active fractions
  double power_sum = 0.0;      // Σ sensor average power (W)
  double max_active = 0.0;
  double max_power = 0.0;
};

class ClusterField {
 public:
  /// `rt` must outlive the field.  Heads run on a copy of `cfg`; see
  /// set_drain_window().
  ClusterField(SimRuntime& rt, const ProtocolConfig& cfg, SpanNames spans);

  ClusterField(const ClusterField&) = delete;
  ClusterField& operator=(const ClusterField&) = delete;

  const ProtocolConfig& config() const { return cfg_; }
  /// Cap every head's drain window (token rotation).  Before build_agents.
  void set_drain_window(Time window) { head_cfg_.max_drain_window = window; }

  /// Add a cluster whose head and sensors sit on `channel` at ids
  /// base..base+n (head last), one rate per sensor.  Before setup().
  void add_cluster(Channel& channel, NodeId base, std::vector<double> rates);

  /// Topology, demand and routing for every cluster (routing fans out on
  /// `route_workers` threads), then per cluster its plans under `mode`
  /// and its measured oracle.  Schedules no events.  PlanMode::kSectors
  /// needs every cluster at base 0.
  void setup(PlanMode mode, std::size_t route_workers);

  /// Construct cluster c's head (rng stream `head_stream`) and sensors
  /// (stream c*1000+s+1), and start the sensors sampling.  The caller
  /// starts the head.
  void build_agents(std::size_t c, std::uint64_t head_stream);

  /// Fault injection (deaths keyed by field-wide sensor id: sensors
  /// numbered cluster by cluster), head-driven recovery and the sampler
  /// refresh hook.  Installs nothing when faults and recovery are off.
  void finish_setup();

  /// Warmup, reset every agent's stats, then the measured window.
  void run(Time duration, Time warmup);

  /// Settle every sensor, mirror per-node series (field-wide ids) and the
  /// field totals into the registry; per-cluster tallies in order.
  std::vector<ClusterTally> collect();
  /// Degradation accounting, present iff faults or recovery are on (then
  /// also mirrored into the registry).  After collect().
  std::optional<DegradationReport> degradation();
  /// Cache effectiveness over every live and retired wrapper; present iff
  /// cfg.cache_oracle.
  std::optional<OracleCacheStats> oracle_stats() const;

  std::size_t size() const { return clusters_.size(); }
  const Cluster& cluster(std::size_t c) const { return clusters_.at(c); }
  HeadAgent& head(std::size_t c) { return *clusters_.at(c).head; }

 private:
  /// Cluster k's scheduling oracle: its measured oracle, or a fresh
  /// CachedOracle over it (previous wrapper retired) when caching is on.
  const CompatibilityOracle& scheduling_oracle(Cluster& k);
  void plan_cluster(Cluster& k, PlanMode mode);
  SensorAgent& sensor_by_field_id(NodeId field_id);
  void on_node_death(const NodeDeath& death);
  /// Re-route cluster c around every node its head declared dead and hand
  /// the repaired plan and re-probed oracle back to the head.
  void replan(std::size_t c, NodeId declared);
  std::uint64_t sum_generated() const;
  std::uint64_t sum_delivered() const;

  SimRuntime& rt_;
  const ProtocolConfig cfg_;
  ProtocolConfig head_cfg_;  // agents keep references to both configs
  SpanNames spans_;
  /// Owns the flow arenas every replan reuses; replans warm-start from
  /// the previous plan's surviving flow.
  route::RoutingEngine engine_;
  std::vector<Cluster> clusters_;

  // Field-wide degradation snapshots (untouched when faults are off).
  bool have_first_death_ = false;
  std::uint64_t death_gen_ = 0, death_del_ = 0;    // at first death
  std::uint64_t repair_gen_ = 0, repair_del_ = 0;  // at last repair
};

}  // namespace mhp
