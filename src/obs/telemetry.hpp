#pragma once
/// \file telemetry.hpp
/// Run-scoped telemetry: per-rank/per-step metrics, trace timelines, and
/// the JSON run report.
///
/// Both drivers (core::Hydro and dist::run) collect the same record
/// shapes: one StepRecord per completed step (wall time, dt and the
/// controller constraint that chose it, guard retries, remap flag) and
/// one RankRecord per rank (step records + the rank's per-kernel
/// Profiler breakdown + Hub per-peer send counters + optional trace
/// spans). The dist driver gathers rank records to rank 0 over the
/// in-process wire (tag 501, the same pack/gather pattern as the
/// checkpoint path) and computes the max/mean busy-time imbalance — the
/// signal the ROADMAP load-balancing item needs.
///
/// Contract: telemetry is PASSIVE. Collecting it never changes the
/// trajectory (records are written after the physics of a step commits),
/// and with Options inactive the drivers skip collection entirely, so a
/// telemetry-off run is bitwise identical to one built before this layer
/// existed.
///
/// Sinks (write_outputs): a schema-versioned JSON report
/// ("bookleaf.telemetry/1"), a Chrome trace-event timeline (load in
/// chrome://tracing or https://ui.perfetto.dev; one track per rank), and
/// a human summary in the paper's Table II layout.

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "util/profiler.hpp"
#include "util/types.hpp"

namespace bookleaf::obs {

/// Telemetry configuration (deck `[telemetry]` section and/or CLI flags).
/// Any requested output activates collection; `enabled` forces it on even
/// with no sinks (records are then only available programmatically).
struct Options {
    bool enabled = false;
    std::string report; ///< JSON run-report path ("" = don't write)
    std::string trace;  ///< Chrome trace-event path ("" = don't write)
    bool summary = false; ///< print the Table II style summary to stdout
    std::string label;    ///< run label in the report (default: problem)
    /// Anomaly threshold: a kernel is flagged when its per-item (or
    /// per-call) cost exceeds `anomaly_factor` times the cross-rank
    /// reference, or its distance from the roofline expectation is an
    /// outlier by the same factor (see detect_anomalies).
    double anomaly_factor = 4.0;

    // --- live monitoring (obs/live.hpp) ---------------------------------
    /// Fold a WindowRecord every this many steps and (distributed) stream
    /// it to rank 0 over tag 502. 0 = live monitoring off.
    long window_steps = 0;
    /// NDJSON event-stream path ("bookleaf.live/1"; "" = don't write).
    std::string live;
    /// Arm the hang watchdog: flag a rank silent on the window stream for
    /// longer than watchdog_factor x its EWMA window time. 0 = off.
    double watchdog_factor = 0.0;
    /// Absolute grace floor added to the watchdog threshold (absorbs OS
    /// scheduling jitter on very short windows).
    int watchdog_grace_ms = 250;
    /// Escalate a detected stall into a typhon::RankFailure so the
    /// supervised recovery loop handles it like a dead rank.
    bool watchdog_escalate = false;
    /// Bound RankRecord::steps retention to this many recent records
    /// (evicted records fold into RankRecord::evicted). 0 = unbounded.
    long max_steps = 0;

    [[nodiscard]] bool active() const {
        return enabled || summary || !report.empty() || !trace.empty() ||
               live_active() || !live.empty();
    }
    /// Window folding (and the tag-502 stream) is on.
    [[nodiscard]] bool live_active() const { return window_steps > 0; }
    /// Trace spans are only recorded when somewhere to put them exists.
    [[nodiscard]] bool want_trace() const { return !trace.empty(); }
};

/// Stable codes for the dt controller's constraint names, so step records
/// survive the flat-Real telemetry gather. code 0 is "unknown".
[[nodiscard]] int dt_reason_code(std::string_view reason);
[[nodiscard]] std::string_view dt_reason_name(int code);

/// One completed step, as seen by one rank.
struct StepRecord {
    long step = 0;        ///< step index (0-based)
    double t = 0.0;       ///< time at the END of the step
    double dt = 0.0;      ///< global (post-reduce) dt taken
    double dt_local = 0.0; ///< this rank's pre-reduce candidate dt
    int dt_reason = 0;     ///< dt_reason_code of the local constraint
    double start_us = 0.0; ///< step start, microseconds since run epoch
    double wall_us = 0.0;  ///< step wall time in microseconds
    int retries = 0;       ///< health-guard dt-backoff retries this step
    bool remapped = false; ///< an ALE/Eulerian remap ran this step

    // Task-graph attribution (zero when the step ran no graphs — e.g.
    // fork-join schedule, serial width, or non-remap dist steps).
    double cp_us = 0.0;       ///< Σ critical-path length over graph runs
    double graph_busy_us = 0.0;     ///< Σ task durations over graph runs
    double graph_makespan_us = 0.0; ///< Σ graph makespans
    int graph_workers = 0;    ///< max worker count over the step's graphs
};

/// One monitoring window: `steps` consecutive StepRecords of one rank
/// folded into a fixed-size aggregate (obs/live.hpp builds and streams
/// these; the report retains them per rank, and the max_steps ring folds
/// evicted records into one as its loss-free aggregate). Small enough to
/// stream every few steps yet enough to drive a load balancer: wall
/// time, worst/mean step, blocked-on-peers share, swept throughput.
struct WindowRecord {
    int rank = 0;
    long index = 0;       ///< 0-based window ordinal within the run
    long first_step = 0;  ///< first step folded into this window
    long last_step = -1;  ///< last step folded (inclusive)
    long steps = 0;       ///< step count (== window_steps except tails)
    double t = 0.0;       ///< simulation time at the end of the window
    double wall_us = 0.0; ///< summed step wall time
    double max_step_us = 0.0;    ///< slowest single step
    double halo_wait_us = 0.0;   ///< blocked-on-halo time (profiler delta)
    double reduce_wait_us = 0.0; ///< blocked-on-reduce time
    long retries = 0;     ///< health-guard dt-backoff retries
    long remaps = 0;      ///< steps that ran an ALE/Eulerian remap
    long long items = 0;  ///< swept entities (non-detail kernels delta)

    [[nodiscard]] double mean_step_us() const {
        return steps > 0 ? wall_us / static_cast<double>(steps) : 0.0;
    }
    /// Swept entities per second of window wall time (0 when unmeasured).
    [[nodiscard]] double items_per_s() const {
        return wall_us > 0.0
                   ? static_cast<double>(items) / (wall_us * 1e-6)
                   : 0.0;
    }
    /// Window wall time not spent blocked on peers (halo or reduce).
    [[nodiscard]] double busy_us() const {
        return std::max(0.0, wall_us - halo_wait_us - reduce_wait_us);
    }
};

/// Number of Reals in the flat wire encoding of one WindowRecord.
inline constexpr std::size_t window_reals = 13;

/// Fold one completed step into a window aggregate (the step-derived
/// fields only; profiler-delta fields are obs::WindowFolder's job).
void fold_step(WindowRecord& w, const StepRecord& s);

/// Flat-Real codec for the tag-502 window stream (and the window fields
/// of the tag-501 rank-record gather).
[[nodiscard]] std::vector<Real> pack_window(const WindowRecord& w);
[[nodiscard]] WindowRecord unpack_window(std::span<const Real> buf);

/// JSON object for one window (the "window" NDJSON event body and the
/// per-rank "windows" entries of the run report). Timing keys carry the
/// _us/_s suffixes the report-determinism scrubber strips.
[[nodiscard]] Json window_json(const WindowRecord& w);

/// One task on the critical path, on the rank's trace timeline. `chain`
/// groups the tasks of one graph execution so the trace writer can draw
/// flow arrows between consecutive critical tasks of the same graph.
struct CritSpan {
    double t0_us = 0.0;
    double dur_us = 0.0;
    long chain = 0;
};

/// Whole-run task-graph attribution for one rank: the accumulation of
/// obs::GraphAnalysis over every graph the rank executed.
struct RankAttribution {
    long graphs = 0;          ///< graph executions analyzed
    double cp_us = 0.0;       ///< Σ critical-path length
    double busy_us = 0.0;     ///< Σ task durations
    double makespan_us = 0.0; ///< Σ graph makespans
    /// Critical-path time per kernel label ("which kernel bounds the
    /// step" — the top entries go in the summary table).
    std::array<double, util::kernel_count> cp_kernel_us{};
    /// Per-worker busy time; idle = makespan_us - worker_busy_us[w].
    std::vector<double> worker_busy_us;

    /// busy / (workers x makespan): the fraction of available
    /// worker-seconds the graphs actually used.
    [[nodiscard]] double efficiency() const;
};

/// Messages/reals this rank sent to one peer over the whole run.
struct PeerCount {
    int peer = -1;
    long messages = 0;
    long long reals = 0;
};

/// Everything one rank recorded. In dist runs, gathered to rank 0.
struct RankRecord {
    int rank = 0;
    /// This rank's run epoch, as microseconds after rank 0's epoch.
    /// Rank threads start (and stamp their clocks) at slightly different
    /// times; rank 0 uses this offset to shift gathered timestamps onto
    /// its own timeline so trace tracks align.
    double epoch_us = 0.0;
    std::vector<StepRecord> steps;
    std::array<util::KernelStats, util::kernel_count> kernels{};
    RankAttribution attrib;
    std::vector<PeerCount> sent;
    std::vector<util::TraceEvent> trace;
    /// Critical-path task spans (host-attached like `trace`, not wired).
    std::vector<CritSpan> critical;
    /// Live-monitoring windows the rank folded ([telemetry] window_steps
    /// > 0). These AGGREGATE records already in `steps`/`evicted` — they
    /// are retained for the report, not added to the totals again.
    std::vector<WindowRecord> windows;
    /// Aggregate of StepRecords evicted by the [telemetry] max_steps
    /// ring (steps == 0 when nothing was evicted). Unlike `windows`,
    /// these records are NOT in `steps` anymore: per-rank totals count
    /// this aggregate plus the retained records.
    WindowRecord evicted;

    /// Sum of step wall times, in seconds: the retained records plus the
    /// ring-evicted aggregate (exact however long the run).
    [[nodiscard]] double step_wall_s() const;
    /// step_wall_s minus the profiler's blocked halo and reduce waits:
    /// the rank's own work, which the imbalance signal compares.
    [[nodiscard]] double busy_s() const;
};

/// The load-balance signal: max over ranks of busy time (step wall time
/// minus blocked waits), divided by the mean. Step wall time itself is not
/// used: the per-step collectives make it equal on every rank to within
/// scheduling noise, since a fast rank spends the difference waiting for
/// the slow one. 1.0 = perfectly balanced; the FaultPlan slow_rank test
/// drives it well above 1.
struct Imbalance {
    double max_over_mean = 1.0;
    double mean_rank_s = 0.0;
    double max_rank_s = 0.0;
    int slowest_rank = -1;
};

/// Wire-format self-check: measured Hub messages vs the count predicted
/// by the Subdomain messages_per_step/messages_per_remap metadata (plus
/// the driver's own gathers). Only `checked` when no faults, recoveries,
/// or retries perturbed the schedule; a mismatch is reported (and
/// log_warn'ed), never thrown — observability catches drift, tests fail it.
struct WireCheck {
    bool checked = false;
    long long expected = 0;
    long long measured = 0;
    bool match = false;
};

/// A supervised-run recovery, mirrored from dist::Recovery.
struct RecoveryEvent {
    int failed_rank = -1;
    long failed_step = -1;
    long resumed_step = -1;
    int survivors = 0;
};

/// The full run configuration, recorded so a report is reproducible
/// without the invoking script: which schedule ran, at what width, with
/// which blocking/comm knobs.
struct RunConfig {
    std::string schedule = "forkjoin"; ///< "forkjoin" / "taskgraph"
    long task_block = 0;  ///< resolved task-graph block size (0 = n/a)
    long grain = 0;       ///< fork-join partition grain (0 = default)
    int n_threads = 1;    ///< pool width per rank
    int n_ranks = 1;
    bool overlap = false;
    std::string packing;  ///< "" when serial
};

/// Static work descriptor for one kernel: flops/bytes per swept entity,
/// taken from the perfmodel WorkTable. Combined with the measured
/// KernelStats (wall_s, items) this yields achieved GFLOP/s and GB/s and
/// a roofline time to compare against.
struct KernelWorkInfo {
    double flops_per_item = 0.0;
    double bytes_per_item = 0.0;
};

/// The perfmodel's view of the host, attached to the report when the
/// driver has one: peak per-rank compute and bandwidth plus the static
/// per-kernel work descriptors.
struct WorkModel {
    bool present = false;
    double peak_flops = 0.0; ///< per-rank flop/s
    double peak_bw = 0.0;    ///< per-rank bytes/s
    std::array<KernelWorkInfo, util::kernel_count> kernels{};
};

/// Roofline expectation for `items` entities of kernel `k`:
/// max(flops/peak_flops, bytes/peak_bw). 0 when the model has no
/// descriptor for the kernel.
[[nodiscard]] double roofline_seconds(const WorkModel& work, util::Kernel k,
                                      long long items);

/// A kernel whose measured cost deviates from expectation by more than
/// Options::anomaly_factor. Two detectors (see detect_anomalies):
/// "cross_rank" compares a rank's per-item (or per-call) seconds against
/// the fastest rank (skipping peer-blocking scopes, whose wall time
/// measures the OTHER ranks' pace); "roofline" compares a kernel's
/// distance from its roofline time against the rank's median distance.
struct Anomaly {
    int rank = -1;
    util::Kernel kernel = util::Kernel::other;
    std::string metric;    ///< "cross_rank" / "roofline"
    double value = 0.0;     ///< the offending measurement
    double reference = 0.0; ///< what it was compared against
    double factor = 0.0;    ///< value / reference (> anomaly_factor)
};

/// The full run report (JSON schema "bookleaf.telemetry/1").
struct RunReport {
    std::string schema = "bookleaf.telemetry/1";
    std::string problem;
    std::string label;
    std::string mode;     ///< "serial" or "distributed"
    int n_ranks = 1;
    bool overlap = false;
    std::string packing;  ///< "coalesced" / "per_field" ("" when serial)
    long steps = 0;
    double t_final = 0.0;
    double wall_s = 0.0;  ///< whole-run wall time on rank 0 / the driver
    RunConfig config;
    WorkModel work;
    Imbalance imbalance;
    WireCheck wire;
    std::vector<Anomaly> anomalies;
    std::vector<RecoveryEvent> recoveries;
    std::vector<RankRecord> ranks;
};

/// Compute the max/mean busy-time imbalance over gathered rank records.
[[nodiscard]] Imbalance imbalance_of(const std::vector<RankRecord>& ranks);

/// Scan the gathered rank records for kernels deviating from expectation
/// by more than `factor` (see Anomaly). Kernels below a small wall-time
/// noise floor are never flagged. Deterministic given the records.
[[nodiscard]] std::vector<Anomaly> detect_anomalies(const RunReport& report,
                                                    double factor);

/// Serialize the report (deterministic member order; see json.hpp).
[[nodiscard]] Json to_json(const RunReport& report);

/// Chrome trace-event document: one "X" (complete) event per recorded
/// scope, pid = run, tid = rank, plus thread_name metadata per rank.
[[nodiscard]] Json trace_json(const RunReport& report);

/// Human summary reproducing the paper's Table II layout (per-kernel
/// seconds and share of overall), followed by per-rank step time and the
/// imbalance line for distributed runs.
[[nodiscard]] std::string summary_table(const RunReport& report);

/// Apply the sinks requested in `opts`: write the JSON report and/or the
/// trace file, print the summary. No-op fields are skipped.
void write_outputs(const Options& opts, const RunReport& report);

/// Flat-Real codec for the tag-501 telemetry gather (steps + kernel
/// breakdown; peer counters and traces are attached host-side by rank 0).
[[nodiscard]] std::vector<Real> pack_rank(const RankRecord& rank);
[[nodiscard]] RankRecord unpack_rank(const std::vector<Real>& buf);

} // namespace bookleaf::obs
