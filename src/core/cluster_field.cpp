#include "core/cluster_field.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/ack_collection.hpp"
#include "core/route_repair.hpp"
#include "net/deployment.hpp"
#include "obs/profiler.hpp"
#include "sim/sampler.hpp"
#include "util/assertx.hpp"

namespace mhp {

namespace {

/// Rebuilds the covering sector each cycle so multi-path sensors rotate
/// per §V-D; caches the most recent cycle.
class RotatingProvider : public CyclePlanProvider {
 public:
  RotatingProvider(const RelayPlan& plan, std::vector<NodeId> members,
                   NodeId base)
      : plan_(plan), members_(std::move(members)), base_(base) {}

  const std::vector<SectorPlan>& plans(std::uint64_t cycle) override {
    if (cycle == cached_cycle_) return cached_;
    cached_.clear();
    cached_.push_back(covering_sector(plan_, members_, cycle, base_));
    cached_cycle_ = cycle;
    return cached_;
  }

 private:
  const RelayPlan& plan_;
  std::vector<NodeId> members_;
  NodeId base_;
  std::uint64_t cached_cycle_ = UINT64_MAX;
  std::vector<SectorPlan> cached_;
};

std::vector<NodeId> local_ids(std::size_t n) {
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  return ids;
}

/// Every path `sectors` polls: each sector's data paths, then its acks.
std::vector<std::vector<NodeId>> polled_paths(
    const std::vector<SectorPlan>& sectors) {
  std::vector<std::vector<NodeId>> paths;
  for (const auto& sp : sectors) {
    for (const auto& [s, path] : sp.data_path) paths.push_back(path);
    for (const auto& path : sp.ack_paths) paths.push_back(path);
  }
  return paths;
}

}  // namespace

void adopt_propagation(SimRuntime& rt, const ProtocolConfig& cfg) {
  switch (cfg.propagation) {
    case PropagationModel::kTwoRayGround:
      rt.adopt_propagation(std::make_unique<TwoRayGround>());
      break;
    case PropagationModel::kFreeSpace:
      rt.adopt_propagation(std::make_unique<FreeSpace>());
      break;
    case PropagationModel::kLogNormalShadowing:
      rt.adopt_propagation(std::make_unique<LogDistanceShadowing>(
          cfg.shadowing_exponent, cfg.shadowing_sigma_db, 1.0, 914e6,
          cfg.environment_seed));
      break;
  }
}

ClusterField::ClusterField(SimRuntime& rt, const ProtocolConfig& cfg,
                           SpanNames spans)
    : rt_(rt), cfg_(cfg), head_cfg_(cfg), spans_(spans) {}

void ClusterField::add_cluster(Channel& channel, NodeId base,
                               std::vector<double> rates) {
  MHP_REQUIRE(!rates.empty(), "need at least one sensor");
  Cluster& k = clusters_.emplace_back();
  k.base = base;
  k.channel = &channel;
  k.rates = std::move(rates);
}

void ClusterField::setup(PlanMode mode, std::size_t route_workers) {
  // §V-B: each head discovers connectivity by probing, which amounts to
  // the channel's interference-free link test over its own nodes.
  {
    MHP_SPAN("topology");
    for (Cluster& k : clusters_) {
      Channel& channel = *k.channel;
      const NodeId base = k.base;
      k.topo = std::make_unique<ClusterTopology>(topology_from_predicate(
          k.num_sensors(), [&channel, base](NodeId a, NodeId b) {
            return channel.link_ok(base + a, base + b);
          }));
      MHP_REQUIRE(k.topo->fully_connected(),
                  "cluster not fully connected; adjust deployment");
    }
  }

  const double cycle_s = cfg_.cycle_period.to_seconds();
  for (Cluster& k : clusters_) {
    k.demand.assign(k.num_sensors(), 0);
    for (std::size_t s = 0; s < k.num_sensors(); ++s) {
      const double per_cycle =
          k.rates[s] * cycle_s / static_cast<double>(cfg_.data_bytes);
      k.demand[s] = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::llround(std::ceil(per_cycle))));
    }
  }

  // Every cluster's plan in one batch: each solve is a pure function of
  // its job, so any worker count yields byte-identical plans in order.
  {
    MHP_SPAN("routing");
    std::vector<route::ClusterRouteJob> jobs(clusters_.size());
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      jobs[c].topo = clusters_[c].topo.get();
      jobs[c].demand = clusters_[c].demand;
      jobs[c].kind = cfg_.routing == RoutingPolicy::kShortestPath
                         ? route::SolveKind::kShortestPath
                         : route::SolveKind::kBalancedMaxFlow;
    }
    std::vector<MinMaxLoadResult> solutions =
        route::solve_clusters(jobs, route_workers);
    for (std::size_t c = 0; c < clusters_.size(); ++c)
      clusters_[c].plan = std::make_unique<RelayPlan>(
          *clusters_[c].topo, std::move(solutions[c]));
  }

  for (Cluster& k : clusters_) plan_cluster(k, mode);
}

void ClusterField::plan_cluster(Cluster& k, PlanMode mode) {
  const std::size_t n = k.num_sensors();
  k.truth = std::make_unique<ChannelOracle>(*k.channel, cfg_.oracle_order);
  {
    MHP_SPAN("sectors");
    switch (mode) {
      case PlanMode::kSectors: {
        // The partitioner asks the channel oracle with topology ids.
        MHP_REQUIRE(k.base == 0, "sector mode needs a cluster at base 0");
        k.partition = SectorPartitioner(*k.topo).partition(
            *k.plan, k.demand, k.truth.get());
        for (const Sector& sector : k.partition->sectors) {
          SectorPlan sp;
          sp.members = sector.sensors;
          std::vector<std::vector<NodeId>> candidates;
          for (NodeId s : sp.members) {
            auto path = k.partition->tree_path(s, k.topo->head());
            sp.data_path[s] = path;
            candidates.push_back(std::move(path));
          }
          const AckPlan ack = plan_ack_cover(sp.members, candidates);
          MHP_ENSURE(ack.covers_all, "ack cover incomplete for sector");
          sp.ack_paths = ack.poll_paths;
          k.setup_sectors.push_back(std::move(sp));
        }
        break;
      }
      case PlanMode::kRotating:
        k.provider =
            std::make_unique<RotatingProvider>(*k.plan, local_ids(n), k.base);
        break;
      case PlanMode::kFixed:
        k.setup_sectors.push_back(
            covering_sector(*k.plan, local_ids(n), 0, k.base));
        break;
    }
  }

  // §V-E: probe the interference pattern over the transmissions the plans
  // actually use.  With rotation every unit path may be used, so the
  // probe universe covers them all.
  std::vector<std::vector<NodeId>> probe_paths =
      polled_paths(k.provider ? k.provider->plans(0) : k.setup_sectors);
  if (mode == PlanMode::kRotating)
    for (NodeId s = 0; s < n; ++s)
      for (const auto& p : k.plan->paths(s)) {
        probe_paths.push_back(p.hops);
        for (NodeId& v : probe_paths.back()) v += k.base;
      }
  {
    MHP_SPAN("oracle_probe");
    k.oracle = std::make_unique<MeasuredOracle>(
        *k.truth, transmissions_of_paths(probe_paths), cfg_.oracle_order);
  }
}

void ClusterField::build_agents(std::size_t c, std::uint64_t head_stream) {
  Cluster& k = clusters_.at(c);
  const std::size_t n = k.num_sensors();
  std::vector<int> sector_of(n, 0);
  for (std::size_t j = 0; j < k.setup_sectors.size(); ++j)
    for (NodeId s : k.setup_sectors[j].members)
      sector_of[s - k.base] = static_cast<int>(j);

  Rng& root = rt_.root_rng();
  const CompatibilityOracle& oracle = scheduling_oracle(k);
  if (k.provider)
    k.head = std::make_unique<HeadAgent>(
        k.head_id(), rt_.sim(), *k.channel, rt_.uids(), head_cfg_, oracle,
        *k.provider, root.split(head_stream), &rt_.trace());
  else
    k.head = std::make_unique<HeadAgent>(
        k.head_id(), rt_.sim(), *k.channel, rt_.uids(), head_cfg_, oracle,
        std::move(k.setup_sectors), root.split(head_stream), &rt_.trace());

  // Distribution instrumentation, field-wide: delivery latency at the
  // heads, queue depth at every sensor.  Registry metrics reset in place
  // on begin_measurement, so these references stay valid for the run.
  MetricsRegistry& m = rt_.metrics();
  k.head->set_latency_histogram(&m.histogram(
      metric::kLatencyHistS, 0.0, 20.0 * cfg_.cycle_period.to_seconds(), 64));
  HistogramMetric& queue_hist = m.histogram(
      metric::kQueueDepth, 0.0,
      static_cast<double>(cfg_.queue_capacity + 1), cfg_.queue_capacity + 1);

  k.sensors.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    auto agent = std::make_unique<SensorAgent>(
        k.base + s, rt_.sim(), *k.channel, rt_.uids(), cfg_,
        root.split(c * 1000 + s + 1));
    agent->set_sector(sector_of[s]);
    agent->set_head(k.head_id());
    agent->set_queue_histogram(&queue_hist);
    agent->start_sampling(k.rates[s]);
    k.sensors.push_back(std::move(agent));
  }
}

void ClusterField::finish_setup() {
  // With an empty plan and recovery off this installs nothing: no
  // injector, no handlers, no extra rng draws, so fault-free runs stay
  // byte-identical.  Each head detects and re-routes only its own members.
  if (!cfg_.faults.empty()) {
    FaultInjector& inj = rt_.install_faults(cfg_.faults);
    inj.set_death_handler(
        [this](const NodeDeath& d) { on_node_death(d); });
    for (const auto& d : cfg_.faults.deaths()) {
      SensorAgent& victim = sensor_by_field_id(d.node);
      if (d.cause == NodeDeath::Cause::kBattery)
        victim.set_battery(d.battery_j, [this, node = d.node] {
          rt_.faults()->battery_exhausted(node);
        });
    }
    if (!cfg_.faults.degradations().empty())
      for (Cluster& k : clusters_) {
        k.head->set_fault_injector(rt_.faults());
        for (auto& s : k.sensors) s->set_fault_injector(rt_.faults());
      }
    inj.arm();
  }
  if (cfg_.recovery.enabled)
    for (std::size_t c = 0; c < clusters_.size(); ++c)
      clusters_[c].head->set_replan_handler(
          [this, c](NodeId declared) { replan(c, declared); });

  // Live trajectory for the sampler, when one was requested: standard
  // counters are only mirrored into the registry at end of run, so push
  // the watched gauges from agent state before each tick.
  if (MetricsSampler* sp = rt_.sampler(); sp != nullptr) {
    sp->add_refresh_hook([this](Time now) {
      MetricsRegistry& reg = rt_.metrics();
      std::uint64_t alive = 0;
      double energy = 0.0;
      for (const Cluster& k : clusters_)
        for (const auto& s : k.sensors) {
          if (!s->dead()) ++alive;
          energy += s->meter().total_energy_j();
        }
      reg.gauge(sample::kAliveNodes).set(now, static_cast<double>(alive));
      reg.gauge(sample::kEnergyJ).set(now, energy);
      reg.gauge(sample::kDelivered)
          .set(now, static_cast<double>(sum_delivered()));
      reg.gauge(sample::kGenerated)
          .set(now, static_cast<double>(sum_generated()));
    });
  }
}

const CompatibilityOracle& ClusterField::scheduling_oracle(Cluster& k) {
  if (!cfg_.cache_oracle) return *k.oracle;
  // A fresh wrapper per oracle generation: the head may still query the
  // previous one until its next phase, so it retires rather than resets.
  if (k.cached) k.retired_caches.push_back(std::move(k.cached));
  // Pair screening is sound here: the measured oracle inherits SINR
  // monotonicity (an interfering pair interferes in every superset).
  k.cached = std::make_unique<CachedOracle>(*k.oracle,
                                            CachedOracle::PairScreen::kOn);
  MetricsRegistry& m = rt_.metrics();
  k.cached->bind_counters(&m.counter(metric::kOracleCacheHit),
                          &m.counter(metric::kOracleCacheMiss));
  return *k.cached;
}

SensorAgent& ClusterField::sensor_by_field_id(NodeId field_id) {
  std::uint64_t first = 0;
  for (Cluster& k : clusters_) {
    if (field_id < first + k.num_sensors())
      return *k.sensors[field_id - first];
    first += k.num_sensors();
  }
  MHP_REQUIRE(false, "fault plan kills a node outside the field");
  return *clusters_.front().sensors.front();  // unreachable
}

std::uint64_t ClusterField::sum_generated() const {
  std::uint64_t total = 0;
  for (const Cluster& k : clusters_)
    for (const auto& s : k.sensors) total += s->packets_generated();
  return total;
}

std::uint64_t ClusterField::sum_delivered() const {
  std::uint64_t total = 0;
  for (const Cluster& k : clusters_) total += k.head->packets_received();
  return total;
}

void ClusterField::on_node_death(const NodeDeath& death) {
  sensor_by_field_id(death.node).fail();
  if (!have_first_death_) {
    have_first_death_ = true;
    death_gen_ = sum_generated();
    death_del_ = sum_delivered();
    // Until a repair happens, "after" also counts from the first death.
    repair_gen_ = death_gen_;
    repair_del_ = death_del_;
  }
}

void ClusterField::replan(std::size_t c, NodeId declared) {
  MHP_SPAN(spans_.replan);
  Cluster& k = clusters_[c];
  MHP_REQUIRE(declared >= k.base && declared < k.head_id(),
              "head declared a node outside its cluster");
  k.declared_dead.push_back(declared - k.base);
  const RelayPlan* hint = k.repair_plan ? k.repair_plan.get() : k.plan.get();
  RouteRepair repair = repair_routes(*k.topo, k.declared_dead, k.demand,
                                     cfg_.routing, &engine_, hint, k.base);

  // Re-probe interference over the transmissions the repaired plan uses.
  // The old oracle is retired, not destroyed: the head still references
  // it until its next phase begins.
  k.retired_oracles.push_back(std::move(k.oracle));
  k.oracle = std::make_unique<MeasuredOracle>(
      *k.truth, transmissions_of_paths(polled_paths(repair.sectors)),
      cfg_.oracle_order);
  k.head->set_oracle(scheduling_oracle(k));

  // The repaired cluster drains as one sector; re-home every surviving
  // member so it follows sector-0 wake/sleep control.
  for (NodeId s : repair.sectors.front().members)
    k.sensors[s - k.base]->set_sector(0);
  k.head->replace_plans(std::move(repair.sectors));
  k.repair_plan = std::make_unique<RelayPlan>(std::move(repair.plan));
  k.last_orphaned = repair.orphaned.size();
  repair_gen_ = sum_generated();
  repair_del_ = sum_delivered();
}

void ClusterField::run(Time duration, Time warmup) {
  MHP_REQUIRE(duration > warmup, "duration must exceed warmup");
  Simulator& sim = rt_.sim();
  {
    MHP_SPAN(spans_.warmup);
    sim.run_until(warmup);
  }
  for (Cluster& k : clusters_) {
    k.head->reset_stats(sim.now());
    for (auto& s : k.sensors) s->reset_stats(sim.now());
  }
  rt_.begin_measurement();

  MHP_SPAN(spans_.measured);
  const std::uint64_t events_before = sim.events_executed();
  sim.run_until(duration);
  MHP_SPAN_COUNTER("events", sim.events_executed() - events_before);
  MHP_SPAN_COUNTER("oracle_hits",
                   rt_.metrics().counter(metric::kOracleCacheHit).value());
  MHP_SPAN_COUNTER("oracle_misses",
                   rt_.metrics().counter(metric::kOracleCacheMiss).value());
}

std::vector<ClusterTally> ClusterField::collect() {
  const Time now = rt_.sim().now();
  MetricsRegistry& m = rt_.metrics();
  std::vector<ClusterTally> tallies;
  tallies.reserve(clusters_.size());
  std::uint64_t generated = 0, delivered = 0, bytes = 0;
  double active = 0.0;
  std::size_t sensors = 0;
  // Channel ids collide across colour groups, so per-node series use
  // field-wide ids: sensors numbered consecutively cluster by cluster.
  std::uint64_t field_id = 0;
  for (Cluster& k : clusters_) {
    ClusterTally t;
    for (auto& s : k.sensors) {
      s->settle(now);
      t.generated += s->packets_generated();
      t.overflow += s->packets_dropped_overflow();
      const double a = s->meter().active_fraction();
      const double p = s->meter().average_power_w();
      t.active_sum += a;
      t.power_sum += p;
      t.max_active = std::max(t.max_active, a);
      t.max_power = std::max(t.max_power, p);
      const std::uint64_t id = field_id++;
      m.counter(node_metric(metric::kNodeRelayed, id))
          .add(s->packets_relayed());
      m.counter(node_metric(metric::kNodeFramesTx, id)).add(s->frames_sent());
      m.gauge(node_metric(metric::kNodeEnergyJ, id))
          .set(now, s->meter().total_energy_j());
      m.gauge(node_metric(metric::kNodeAwakeS, id))
          .set(now, (s->meter().total_time() -
                     s->meter().time_in(RadioState::kSleep))
                        .to_seconds());
    }
    t.delivered = k.head->packets_received();
    t.bytes = k.head->bytes_received();
    generated += t.generated;
    delivered += t.delivered;
    bytes += t.bytes;
    active += t.active_sum;
    sensors += k.sensors.size();
    tallies.push_back(t);
  }
  m.counter(metric::kPacketsGenerated).add(generated);
  m.counter(metric::kPacketsDelivered).add(delivered);
  m.counter(metric::kBytesDelivered).add(bytes);
  m.gauge(metric::kMeanActiveFraction)
      .set(now, active / static_cast<double>(sensors));
  return tallies;
}

std::optional<DegradationReport> ClusterField::degradation() {
  // Only when the run could degrade at all, so fault-free reports (keys
  // and metrics snapshot included) stay byte-identical to pre-fault builds.
  if (cfg_.faults.empty() && !cfg_.recovery.enabled) return std::nullopt;
  const auto sat = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : std::uint64_t{0};
  };
  const auto ratio = [](std::uint64_t del, std::uint64_t gen) {
    return gen == 0 ? 1.0
                    : static_cast<double>(del) / static_cast<double>(gen);
  };
  DegradationReport deg;
  if (const FaultInjector* inj = rt_.faults(); inj != nullptr) {
    deg.dead_nodes = inj->dead_nodes();
    deg.deaths = deg.dead_nodes.size();
  }
  for (const Cluster& k : clusters_) {
    deg.deaths_detected += k.head->deaths_detected();
    deg.replans += k.head->replans();
    deg.orphaned_sensors += k.last_orphaned;
  }
  const std::uint64_t gen_end = sum_generated();
  const std::uint64_t del_end = sum_delivered();
  if (have_first_death_) {
    deg.delivery_before = ratio(death_del_, death_gen_);
    deg.delivery_after =
        ratio(sat(del_end, repair_del_), sat(gen_end, repair_gen_));
  } else {
    deg.delivery_before = ratio(del_end, gen_end);
    deg.delivery_after = deg.delivery_before;
  }
  MetricsRegistry& m = rt_.metrics();
  m.counter("fault.deaths").add(deg.deaths);
  m.counter("fault.deaths_detected").add(deg.deaths_detected);
  m.counter("fault.replans").add(deg.replans);
  m.counter("fault.orphaned_sensors").add(deg.orphaned_sensors);
  return deg;
}

std::optional<OracleCacheStats> ClusterField::oracle_stats() const {
  if (!cfg_.cache_oracle) return std::nullopt;
  OracleCacheStats oracle;
  for (const Cluster& k : clusters_) {
    if (k.cached != nullptr) oracle.add(*k.cached);
    for (const auto& retired : k.retired_caches) oracle.add(*retired);
  }
  return oracle;
}

}  // namespace mhp
