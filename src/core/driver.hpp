#pragma once
/// \file driver.hpp
/// The single-process BookLeaf driver: Algorithm 1 on the whole mesh. The
/// step policy — dt controller, re-growth ceiling, t_end clamp, health
/// guard, remap cadence, step records — is core::Stepper's, which
/// dist::run shares; this driver supplies the serial step mechanics and
/// owns the state, the kernel context, the ALE workspace, the per-run
/// profiler and the run's outputs (history CSV, checkpoints, telemetry).

#include <memory>
#include <optional>

#include "ale/advect_graph.hpp"
#include "ale/remap.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/stepper.hpp"
#include "hydro/kernels.hpp"
#include "hydro/stepgraph.hpp"
#include "io/csv.hpp"
#include "obs/live.hpp"
#include "obs/telemetry.hpp"
#include "par/task_graph.hpp"
#include "setup/problems.hpp"

namespace bookleaf::core {

/// Outcome of a full run.
struct RunSummary {
    int steps = 0;
    Real t_final = 0.0;
    Real wall_seconds = 0.0;
    hydro::Totals initial, final_;
};

class Hydro {
public:
    /// Takes ownership of the problem (mesh, materials, IC, options).
    explicit Hydro(setup::Problem problem);

    /// Restore from a checkpoint: the problem supplies the mesh, materials
    /// and options (it must be the deck that produced the snapshot — the
    /// mesh hash is validated), the snapshot supplies the state and the
    /// clock. Continuation is bitwise: stepping the restored driver to
    /// t_end reproduces the uninterrupted run's fields and conservation
    /// totals bit for bit. An `[io] history` file is continued in place —
    /// rows past the checkpointed step are dropped, the header is kept,
    /// and new rows append (the file ends byte-identical to an
    /// uninterrupted run's history).
    Hydro(setup::Problem problem, const ckpt::Snapshot& snapshot);

    /// The step loop holds references into the driver.
    Hydro(const Hydro&) = delete;
    Hydro& operator=(const Hydro&) = delete;

    /// Optional execution policy (threading) — set before stepping. An
    /// assembly strategy chosen via set_assembly() survives this call
    /// (set_exec configures the pool, not the assembly ablation). The
    /// task graphs built for the previous policy are dropped; the next
    /// step rebuilds the ones the new policy wants.
    void set_exec(par::Exec exec) {
        ctx_.exec = exec;
        if (assembly_chosen_) ctx_.exec.assembly = chosen_assembly_;
        drop_graphs();
    }
    /// Select the acceleration nodal-assembly strategy (default: gather).
    /// `colored_scatter` builds the conflict colouring on first use.
    void set_assembly(par::Assembly assembly);
    /// Enable colour-parallel acceleration scatter (builds the colouring).
    void enable_colored_scatter() {
        set_assembly(par::Assembly::colored_scatter);
    }

    /// One step of Algorithm 1. Returns the step record.
    StepInfo step();

    /// Run until t_end (default: the problem's t_end) or max_steps — or,
    /// with `[checkpoint] halt_after`, until a checkpoint is written.
    RunSummary run(std::optional<Real> t_end = std::nullopt,
                   int max_steps = std::numeric_limits<int>::max());

    /// Capture the current state + clock as a Snapshot (including the
    /// unclamped dt growth reference and the health-guard re-growth
    /// ceiling).
    [[nodiscard]] ckpt::Snapshot snapshot() const {
        const Clock& c = stepper_.clock();
        return ckpt::capture(problem_.mesh, state_, c.t, c.dt, c.steps,
                             c.regrow);
    }
    /// Write a checkpoint of the current state to `path`.
    void save(const std::string& path) const { ckpt::write(path, snapshot()); }
    /// True once a `[checkpoint] halt_after` checkpoint has been written:
    /// run() stops there, and step()-driven loops should too.
    [[nodiscard]] bool halted() const { return halt_requested_; }

    /// Build the telemetry run report from everything recorded so far
    /// (mode "serial", one rank record). Valid whenever telemetry is
    /// active — run() need not have finished.
    [[nodiscard]] obs::RunReport telemetry_report() const;
    /// Apply the problem's `[telemetry]` sinks (report/trace/summary).
    /// run() calls this at the end of every run; safe to call again after
    /// further stepping (files are overwritten whole). A call with no step
    /// taken since the last write does nothing, so a step()-driven loop
    /// that ends in run() and then writes again reports once.
    void write_telemetry() const;

    [[nodiscard]] const hydro::State& state() const { return state_; }
    [[nodiscard]] hydro::State& state() { return state_; }
    [[nodiscard]] const mesh::Mesh& mesh() const { return problem_.mesh; }
    [[nodiscard]] const setup::Problem& problem() const { return problem_; }
    [[nodiscard]] const util::Profiler& profiler() const { return profiler_; }
    [[nodiscard]] util::Profiler& profiler() { return profiler_; }
    [[nodiscard]] Real time() const { return stepper_.clock().t; }
    [[nodiscard]] int steps() const { return stepper_.clock().steps; }
    [[nodiscard]] hydro::Totals totals() const {
        return hydro::totals(problem_.mesh, state_);
    }
    /// Monitoring windows folded so far (empty unless `[telemetry]
    /// window_steps` > 0) — the serial counterpart of the distributed
    /// driver's live window stream.
    [[nodiscard]] const std::vector<obs::WindowRecord>& windows() const {
        return stepper_.windows();
    }

private:
    StepInfo step_to(Real t_end);
    Stepper::Hooks serial_hooks();
    void write_history_row(Real dt);
    void init_context();
    void ensure_graphs();
    void drop_graphs();
    void open_history_fresh();
    void continue_history();
    void maybe_checkpoint(Real t_before);

    setup::Problem problem_;
    hydro::State state_;
    hydro::Context ctx_;
    ale::Workspace ale_work_;
    /// Lagrangian-step task graph (Schedule::taskgraph with a pool and
    /// gather assembly) and ALE advection graph (Schedule::taskgraph with
    /// a pool, remapping mode); built on the first step after set_exec or
    /// set_assembly and re-run every step / remap after that.
    std::unique_ptr<hydro::StepGraph> stepgraph_;
    std::unique_ptr<ale::AdvectGraph> advectgraph_;
    util::Profiler profiler_;
    /// Time-history CSV (deck `[io] history = <path>`): one row per step
    /// of t, dt, total mass, internal and kinetic energy, plus a step-0
    /// baseline row. Null when disabled.
    std::unique_ptr<io::CsvWriter> history_;
    par::Coloring coloring_;
    par::Assembly chosen_assembly_ = par::Assembly::gather;
    bool assembly_chosen_ = false;
    /// Set when a checkpoint was written and `halt_after` asks the run
    /// loop to stop there (the step itself still completed normally).
    bool halt_requested_ = false;
    /// Telemetry (problem `[telemetry]`). Inactive by default, so
    /// telemetry-off runs take none of these branches. Live monitoring
    /// (`window_steps` > 0) sends each window through a 1-rank assembler
    /// onto the NDJSON stream (closed unless `live` names a file), in the
    /// distributed driver's event shape. No watchdog in the serial driver:
    /// there is no peer to observe a hang from.
    obs::Options telemetry_;
    std::optional<obs::LiveStream> live_;
    obs::LiveAssembler assembler_{1};
    std::vector<util::TraceEvent> trace_;
    std::chrono::steady_clock::time_point telemetry_epoch_{};
    /// Step count at the last write_telemetry() (-1: none yet).
    mutable int telemetry_written_at_ = -1;
    Stepper stepper_{ctx_, state_, problem_.ale, serial_hooks(),
                     problem_.mesh.n_cells()};
};

} // namespace bookleaf::core
