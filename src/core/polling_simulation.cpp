#include "core/polling_simulation.hpp"

#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

namespace {
constexpr SpanNames kSpans{"polling/warmup", "polling/measured",
                           "polling/replan"};
}  // namespace

PollingSimulation::PollingSimulation(const Deployment& deployment,
                                     ProtocolConfig cfg,
                                     std::vector<double> rates_bps,
                                     const RuntimeOptions& rt_opts)
    : rt_(cfg.seed, rt_opts), field_(rt_, cfg, kSpans) {
  MHP_REQUIRE(rates_bps.size() == deployment.num_sensors(),
              "one rate per sensor required");
  setup(deployment, std::move(rates_bps), rt_opts.route_workers);
}

PollingSimulation::PollingSimulation(const Deployment& deployment,
                                     ProtocolConfig cfg, double rate_bps,
                                     const RuntimeOptions& rt_opts)
    : PollingSimulation(deployment, cfg,
                        std::vector<double>(deployment.num_sensors(),
                                            rate_bps),
                        rt_opts) {}

void PollingSimulation::setup(const Deployment& deployment,
                              std::vector<double> rates,
                              std::size_t route_workers) {
  MHP_SPAN("polling/setup");
  const ProtocolConfig& cfg = field_.config();
  const std::size_t n = deployment.num_sensors();
  adopt_propagation(rt_, cfg);
  std::vector<double> powers(n + 1, RadioParams::kSensorTxPowerW);
  powers[n] = RadioParams::kHeadTxPowerW;
  field_.add_cluster(rt_.add_channel(cfg.radio, deployment.positions, powers),
                     0, std::move(rates));
  field_.setup(cfg.use_sectors    ? PlanMode::kSectors
               : cfg.rotate_paths ? PlanMode::kRotating
                                  : PlanMode::kFixed,
               route_workers);
  field_.build_agents(0, 0);
  field_.finish_setup();
  field_.head(0).start(Time::ms(10));
}

SimulationReport PollingSimulation::run(Time duration, Time warmup) {
  field_.run(duration, warmup);

  MHP_SPAN("polling/collect");
  const Time now = rt_.sim().now();
  const ClusterTally t = field_.collect().front();
  const HeadAgent& head = *cluster().head;
  SimulationReport rep;
  rep.sectors = cluster().partition ? cluster().partition->sectors.size() : 1;
  rep.max_active_fraction = t.max_active;
  rep.max_sensor_power_w = t.max_power;
  rep.mean_sensor_power_w =
      t.power_sum / static_cast<double>(cluster().sensors.size());

  // The stack's own totals; the shared report core is then populated
  // from the registry.
  MetricsRegistry& m = rt_.metrics();
  m.counter(metric::kPacketsLost)
      .add(head.packets_lost_abort() + head.packets_lost_retry() +
           t.overflow);
  m.counter("polling.reactivations").add(head.reactivations());
  m.counter("polling.cycles_completed").add(head.cycles_completed());
  m.gauge("sensors.mean_power_w").set(now, rep.mean_sensor_power_w);
  m.gauge(metric::kMeanLatencyS)
      .set(now, head.latency_s().empty() ? 0.0 : head.latency_s().mean());
  rep.degradation = field_.degradation();
  rep.oracle = field_.oracle_stats();

  static_cast<RunStats&>(rep) =
      rt_.collect_run_stats(duration - warmup, field_.config().data_bytes);
  rep.packets_lost = m.counter(metric::kPacketsLost).value();
  rep.mean_duty_seconds =
      head.duty_time_s().empty() ? 0.0 : head.duty_time_s().mean();
  return rep;
}

}  // namespace mhp
