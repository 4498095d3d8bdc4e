// Quickstart: build a 30-sensor cluster, run the multi-hop polling
// protocol for a minute of simulated time, and print the headline
// numbers the paper cares about (throughput, active time, energy).
//
// Pass --json to print the full structured report (obs JSON layer)
// instead of the human-readable summary — pipe it into jq or a plotter.
#include <cstdio>
#include <iostream>

#include "core/polling_simulation.hpp"
#include "net/deployment.hpp"
#include "obs/report_json.hpp"
#include "util/rng.hpp"
#include "exp/flags.hpp"

int main(int argc, char** argv) {
  using namespace mhp;
  mhp::exp::Flags flags("30-sensor polling quickstart");
  flags.flag("--json", "print the full structured report instead");
  flags.parse(argc, argv);
  const bool json = flags.has("--json");

  // 30 sensors uniform in a 200 m square, head at the centre, 60 m radio.
  Rng rng(42);
  const Deployment dep =
      deploy_connected_uniform_square(30, 200.0, 60.0, rng);

  ProtocolConfig cfg;
  cfg.cycle_period = Time::ms(1000);
  cfg.oracle_order = 3;

  // Every sensor samples 20 B/s (a quarter packet per second).
  PollingSimulation sim(dep, cfg, /*rate_bps=*/20.0);

  if (json) {
    const SimulationReport rep = sim.run(Time::sec(70), Time::sec(10));
    obs::to_json(rep).write(std::cout, 2);
    std::cout << "\n";
    return 0;
  }

  std::printf("cluster: %zu sensors, max level %zu, max load %lld\n",
              sim.topology().num_sensors(), sim.topology().max_level(),
              static_cast<long long>(sim.relay_plan().max_load()));
  const MeasuredOracle& oracle = sim.oracle();
  std::printf("interference probe: %zu transmissions, %llu groups to test "
              "(order %d)\n",
              oracle.universe_size(),
              static_cast<unsigned long long>(MeasuredOracle::probe_count(
                  oracle.universe_size(), oracle.order())),
              oracle.order());

  const SimulationReport rep = sim.run(Time::sec(70), Time::sec(10));
  std::printf("groups the scheduler actually probed: %llu\n",
              static_cast<unsigned long long>(oracle.probes()));

  std::printf("\n--- 60 s measured ---\n");
  std::printf("offered:    %8.1f B/s\n", rep.offered_bps);
  std::printf("throughput: %8.1f B/s (delivery %.1f%%)\n", rep.throughput_bps,
              100.0 * rep.delivery_ratio);
  std::printf("packets:    %llu generated, %llu delivered, %llu lost\n",
              static_cast<unsigned long long>(rep.packets_generated),
              static_cast<unsigned long long>(rep.packets_delivered),
              static_cast<unsigned long long>(rep.packets_lost));
  std::printf("active:     mean %.2f%%  max %.2f%% of the time\n",
              100.0 * rep.mean_active_fraction,
              100.0 * rep.max_active_fraction);
  std::printf("power:      mean %.3f mW  max %.3f mW\n",
              1e3 * rep.mean_sensor_power_w, 1e3 * rep.max_sensor_power_w);
  std::printf("latency:    mean %.1f ms\n", 1e3 * rep.mean_latency_s);
  std::printf("duty:       mean %.1f ms per cycle\n",
              1e3 * rep.mean_duty_seconds);

  // Every report embeds the runtime's metrics snapshot: the same named
  // counters/gauges exist across all simulation stacks.
  std::printf("\n--- metrics snapshot ---\n");
  for (const auto& [name, value] : rep.metrics.counters)
    std::printf("%-26s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  return 0;
}
