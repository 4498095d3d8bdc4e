// JSON bench reports: every figure/ablation harness writes a
// BENCH_<name>.json beside its CSV so tooling can diff sweeps without
// scraping ASCII.  Layout:
//   {"schema":1,"bench":<name>,
//    "host":{"cores":..,"compiler":..,"build_type":..,"commit":..},
//    "run":{"wall_seconds":..,"events_processed":..,"events_per_sec":..},
//    "points":[{<header>:<cell>, ...}, ...]}
// Cells keep their Table type: strings stay strings, integers integers.
#pragma once

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <variant>

#include "obs/json.hpp"
#include "obs/report_json.hpp"
#include "obs/run_recorder.hpp"
#include "util/table.hpp"

namespace mhp::exp {

/// HEAD of the checkout this program was built from, with a "-dirty"
/// suffix when its work tree has uncommitted changes, or "unknown" when
/// that directory is not inside a git work tree (or git is missing).
inline std::string build_commit() {
  const std::string repo = MHP_REPO_DIR;
  const std::string parent = repo.substr(0, repo.find_last_of('/'));
  const std::string cmd = "GIT_CEILING_DIRECTORIES='" + parent +
                          "' git -C '" + repo +
                          "' describe --always --dirty --abbrev=40 "
                          "2>/dev/null";
  std::string out;
  if (std::FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    if (::pclose(pipe) != 0) out.clear();
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// The machine and build a bench ran on — what two BENCH files need to
/// be compared: core count, compiler and version, build type, commit.
inline obs::Json host_json() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " + std::to_string(__GNUC__) + "." +
                               std::to_string(__GNUC_MINOR__) + "." +
                               std::to_string(__GNUC_PATCHLEVEL__);
#else
  const std::string compiler = "unknown";
#endif
  return obs::Json::object()
      .set("cores", obs::Json(static_cast<long long>(
                        std::thread::hardware_concurrency())))
      .set("compiler", obs::Json(compiler))
      .set("build_type", obs::Json(std::string(MHP_BUILD_TYPE)))
      .set("commit", obs::Json(build_commit()));
}

inline obs::Json bench_json(const std::string& bench, const Table& table,
                            const obs::RunRecorder& recorder) {
  obs::Json points = obs::Json::array();
  for (std::size_t r = 0; r < table.rows(); ++r) {
    obs::Json row = obs::Json::object();
    for (std::size_t c = 0; c < table.cols(); ++c) {
      const Cell& cell = table.at(r, c);
      obs::Json value;
      if (const auto* s = std::get_if<std::string>(&cell))
        value = obs::Json(*s);
      else if (const auto* i = std::get_if<long long>(&cell))
        value = obs::Json(*i);
      else
        value = obs::Json(std::get<double>(cell));
      row.set(table.headers().at(c), std::move(value));
    }
    points.push_back(std::move(row));
  }
  return obs::Json::object()
      .set("schema", obs::Json(obs::kReportSchemaVersion))
      .set("bench", obs::Json(bench))
      .set("host", host_json())
      .set("run", recorder.to_json())
      .set("points", std::move(points));
}

/// Write BENCH_<bench>.json (or to `path` when given).  Best-effort like
/// save_csv: a one-line note either way, false on failure.
inline bool save_bench_json(const std::string& bench, const Table& table,
                            const obs::RunRecorder& recorder,
                            std::string path = {}) {
  if (path.empty()) path = "BENCH_" + bench + ".json";
  const bool ok = obs::save_json(path, bench_json(bench, table, recorder));
  if (ok) std::printf("(bench report saved to %s)\n", path.c_str());
  return ok;
}

/// perf_scaling's per-point regression gates, as a committed
/// BENCH_perf.json records them.  Absent fields read -1 (their check is
/// skipped), so older baselines still gate.
struct PerfGates {
  double floor_tx_per_sec = -1.0;
  double budget_topo_ms = -1.0;
  double budget_routing_ms = -1.0;
  double budget_polling_ms = -1.0;
  double budget_kernel_ms = -1.0;
};

/// Gates per sensor count from the "points" rows of the bench file at
/// `path`; empty when the file is missing or has no rows.  Rows are read
/// by key, so top-level blocks such as "host" never disturb the reader.
inline std::map<long long, PerfGates> read_perf_gates(
    const std::string& path) {
  std::map<long long, PerfGates> gates;
  std::ifstream in(path);
  if (!in) return gates;
  std::ostringstream buf;
  buf << in.rdbuf();
  const obs::Json doc = obs::parse_json(buf.str());
  const obs::Json* points = doc.find("points");
  if (points == nullptr || !points->is_array()) return gates;
  for (std::size_t i = 0; i < points->size(); ++i) {
    const obs::Json& row = points->at(i);
    const obs::Json* n = row.find("sensors");
    if (n == nullptr) continue;
    PerfGates g;
    const auto read = [&row](const char* key, double& dst) {
      if (const obs::Json* v = row.find(key)) dst = v->as_double();
    };
    read("floor_tx_per_sec", g.floor_tx_per_sec);
    read("budget_topo_ms", g.budget_topo_ms);
    read("budget_routing_ms", g.budget_routing_ms);
    read("budget_polling_ms", g.budget_polling_ms);
    read("budget_kernel_ms", g.budget_kernel_ms);
    gates.emplace(n->as_int(), g);
  }
  return gates;
}

}  // namespace mhp::exp
