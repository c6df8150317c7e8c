#pragma once
/// \file stepper.hpp
/// The step loop of Algorithm 1, shared by both drivers:
///   loop { dt = step 0 ? dt_initial : GETDT(dt); LAGSTEP(dt);
///          if remap due: ALESTEP; }
/// The Stepper owns the step clock and every step-policy decision — the
/// controller candidate, the health-guard re-growth ceiling, the t_end
/// clamp, the guard's dt-backoff retry, the remap cadence and the step's
/// telemetry record. A driver supplies only the mechanics, as hooks:
/// core::Hydro takes the step on the whole mesh, dist::run on a rank's
/// subdomain with the typhon exchanges and the dt min-reduce inserted.
/// Every policy value is computed from collectively agreed quantities, so
/// the Stepper of each rank makes the same decision the serial one does.

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ale/remap.hpp"
#include "ckpt/checkpoint.hpp"
#include "hydro/kernels.hpp"
#include "obs/live.hpp"
#include "obs/telemetry.hpp"
#include "par/task_graph.hpp"

namespace bookleaf::core {

/// Per-step record (what the reference code prints as its step banner).
struct StepInfo {
    int step = 0;
    Real t = 0.0;
    Real dt = 0.0;
    Index dt_cell = no_index;
    std::string_view dt_reason;
    bool remapped = false;
};

/// The step clock: the fields ckpt::Snapshot stores and restores.
struct Clock {
    Real t = 0.0;
    /// Unclamped controller dt — the growth reference for the next getdt.
    /// The t_end clamp applies only to the dt a step advances by, never
    /// here: a follow-on run(t2) after run(t1) must not be growth-limited
    /// by the tiny final clamped step.
    Real dt = 0.0;
    /// Health-guard re-growth ceiling on the controller dt (0 = inactive).
    /// Armed after a dt-backoff retry at `accepted dt * guard.regrow_cap`
    /// and raised by regrow_cap per step while it binds; cleared the first
    /// step the controller's own value ducks under it. Keeps a freshly
    /// stabilised dt from leaping straight back to the value that failed.
    Real regrow = 0.0;
    int steps = 0;

    [[nodiscard]] static Clock of(const ckpt::Snapshot& s) {
        return {s.t, s.dt, s.regrow, static_cast<int>(s.steps)};
    }
};

class Stepper {
public:
    /// Turns the agreed controller dt into the dt the step advances by:
    /// the re-growth ceiling, then the t_end clamp.
    using Settle = std::function<Real(Real dt_agreed)>;

    /// The mechanics of one step, supplied by the driver.
    struct Hooks {
        /// Take the step from this rank's controller candidate. Must call
        /// `settle` exactly once, with the agreed dt, before the predictor
        /// first reads dt. `reduce` is false on step 0, where every rank
        /// holds the same dt_initial and there is nothing to agree, and
        /// on a health-guard retry, which replays the step from the
        /// restored loop-top state with an already agreed dt and an
        /// identity `settle`.
        std::function<void(Real dt_local, bool reduce, const Settle& settle)>
            advance;
        /// Combine the health verdicts of every rank (default: this
        /// rank's verdict alone).
        std::function<bool(bool ok)> agree = [](bool ok) { return ok; };
        /// The ALE/Eulerian remap of a remap-due step.
        std::function<void()> remap;
        /// A monitoring window closed (telemetry with window_steps > 0).
        std::function<void(const obs::WindowRecord&)> window;
    };

    /// Steps `s` on `ctx`. The health guard checks cells [0, n_cells) and
    /// the nodes `node_owned` marks (empty = all nodes): everything in a
    /// serial run, the owned entities of a rank. The driver starts the
    /// clock (dt_initial, or a snapshot's clock) before the first step.
    Stepper(hydro::Context& ctx, hydro::State& s, const ale::Options& ale,
            Hooks hooks, Index n_cells,
            std::span<const std::uint8_t> node_owned = {});
    /// The context holds the address of the graph-run collector.
    Stepper(const Stepper&) = delete;
    Stepper& operator=(const Stepper&) = delete;

    /// Record every step from here on: step records (bounded by
    /// `opts.max_steps`), monitoring windows and task-graph attribution
    /// (critical-path spans too when tracing), stamped against `epoch`.
    void enable_telemetry(const obs::Options& opts, int rank,
                          std::chrono::steady_clock::time_point epoch);

    /// One step of Algorithm 1, its dt clamped to land on `t_end`.
    StepInfo step(Real t_end = std::numeric_limits<Real>::infinity());

    [[nodiscard]] const Clock& clock() const { return clock_; }
    [[nodiscard]] Clock& clock() { return clock_; }
    /// Monitoring windows closed so far.
    [[nodiscard]] const std::vector<obs::WindowRecord>& windows() const {
        return windows_;
    }
    /// This rank's telemetry record: steps, windows, kernel breakdown,
    /// attribution and critical-path spans (the trace is the driver's).
    [[nodiscard]] obs::RankRecord rank_record(int rank) const;
    /// Wall seconds of every step recorded since enable_telemetry —
    /// retained or evicted from the step ring — whichever driver call
    /// took them: the sum of the step records' wall_us.
    [[nodiscard]] double wall_s() const { return 1e-6 * wall_us_; }

private:
    Real settle(Real dt_agreed);
    void record(std::chrono::steady_clock::time_point t0, Real dt_local,
                int retries);

    hydro::Context& ctx_;
    hydro::State& s_;
    const ale::Options& ale_;
    Hooks hooks_;
    Index n_cells_;
    std::span<const std::uint8_t> node_owned_;
    Clock clock_;
    /// Loop-top state for the health-guard rollback (reused across steps).
    hydro::StepBackup backup_;
    /// The step in flight: its t_end and the record settle() fills.
    Real t_end_ = 0.0;
    StepInfo info_;

    // Telemetry: collected after a step's physics commits (the passive
    // contract); off by default, so telemetry-off runs skip all of it.
    bool telemetry_ = false;
    bool want_trace_ = false;
    std::chrono::steady_clock::time_point epoch_{};
    obs::StepRing steps_;
    double wall_us_ = 0.0;
    std::optional<obs::WindowFolder> folder_;
    std::vector<obs::WindowRecord> windows_;
    par::GraphRunLog graph_log_;
    obs::RankAttribution attrib_;
    std::vector<obs::CritSpan> critical_;
};

} // namespace bookleaf::core
