// Campaigns: one base scenario × a parameter grid, executed as a batch
// with durable, resumable results.
//
// A campaign document names a base scenario (inline or by file path)
// and a "sweep" object mapping dotted scenario paths to value lists:
//
//   { "name": "order_sweep",
//     "base": "fig7a.json",
//     "sweep": { "protocol.oracle_order": [2, 3],
//                "deployment.n_sensors": [20, 30, 40] } }
//
// Expansion is the cross product in declaration order (last key varies
// fastest).  Every point gets a stable key string; execution appends one
// line per finished point to results.jsonl and manifest.jsonl (flushed
// under a mutex), so a killed campaign re-run skips every point the
// manifest already records.  Per-point failures are isolated: the error
// text lands in the manifest and the remaining points still run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "scenario/scenario.hpp"

namespace mhp::scenario {

struct CampaignPoint {
  /// Stable identity: "path=value,path=value" in sweep declaration
  /// order.  Manifest keys match on this across runs.
  std::string key;
  /// The base scenario document with this point's overrides applied.
  obs::Json doc;
};

struct Campaign {
  std::string name;
  /// The base scenario, canonicalized (parsed and re-dumped in full
  /// form) so every sweep path resolves against the complete schema.
  obs::Json base;
  /// (dotted path, values) in declaration order.
  std::vector<std::pair<std::string, std::vector<obs::Json>>> sweep;
};

/// Parse a campaign document.  `load_file` resolves a "base" given as a
/// file path (relative to the campaign file's directory is the caller's
/// concern); an inline object base needs no loader.
Campaign parse_campaign(
    const obs::Json& doc,
    const std::function<std::string(const std::string&)>& load_file);

/// Set the value at a dotted path ("protocol.oracle_order") inside a
/// scenario document.  The full path must already exist — sweeping an
/// unknown or misspelled path is an error, not a new key.
void set_by_path(obs::Json& doc, const std::string& path, obs::Json value);

/// Cross-product expansion in declaration order (last key fastest).
/// Every point's document has been validated by parse_scenario.
std::vector<CampaignPoint> expand_campaign(const Campaign& campaign);

struct CampaignResult {
  std::size_t total = 0;        // points in the expansion
  std::size_t skipped = 0;      // already completed per the manifest
  std::size_t ok = 0;           // run and succeeded this invocation
  std::size_t failed = 0;       // run and failed this invocation
  std::size_t interrupted = 0;  // not dispatched (stop flag was raised)
};

/// Execute `campaign` into `out_dir` (created if missing) using
/// `workers` threads (0 = hardware concurrency).  Writes:
///   results.jsonl  — one envelope {"key","scenario","point_wall_ms",
///                    "report"} per ok point, appended as points finish
///                    (point_wall_ms is zeroed when run.record_perf is
///                    false, keeping the document deterministic);
///   manifest.jsonl — one {"key","status"[,"error"]} per finished point;
///   summary.json   — aggregate roll-up over every ok point on record,
///                    including a point_wall_ms latency histogram.
/// Points whose key the manifest already records as "ok" are skipped
/// (resume); failed points are retried.  `log` (nullable FILE*) receives
/// one progress line per point.  When `stop` is non-null and becomes
/// true (e.g. from a SIGINT handler), points not yet dispatched are
/// abandoned without manifest lines — in-flight points finish and flush,
/// so a later run resumes having lost nothing that completed.
CampaignResult run_campaign(const Campaign& campaign,
                            const std::string& out_dir, std::size_t workers,
                            std::FILE* log,
                            const std::atomic<bool>* stop = nullptr);

/// Last-wins key→document map from a JSONL file whose lines carry a
/// string "key".  Lines that fail to parse (the torn tail of a killed
/// run) are skipped, not fatal — the affected point simply reruns.
/// Shared by the campaign runner and the campaign service (serve layer).
std::vector<std::pair<std::string, obs::Json>> read_keyed_jsonl(
    const std::string& path);

/// Roll up every ok point recorded in `out_dir`'s results.jsonl /
/// manifest.jsonl into the standard campaign_summary envelope (delivery/
/// throughput/energy aggregates plus the point_wall_ms histogram).
/// `point_keys` lists the expansion's keys in order: the roll-up sums in
/// that order, whatever order the points finished in, so the summary is
/// the same at any worker count.  Its size is the points/total field.
obs::Json build_campaign_summary(const std::string& campaign_name,
                                 const std::string& out_dir,
                                 const std::vector<std::string>& point_keys);

}  // namespace mhp::scenario
