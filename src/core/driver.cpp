#include "core/driver.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "perfmodel/calibrate.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace bookleaf::core {

namespace {

const std::vector<std::string> history_header = {
    "step", "t", "dt", "mass", "internal_energy", "kinetic_energy"};

std::string history_header_line() {
    std::string line;
    for (const auto& col : history_header)
        line += (line.empty() ? "" : ",") + col;
    return line;
}

} // namespace

Hydro::Hydro(setup::Problem problem) : problem_(std::move(problem)) {
    to_locality_order();
    state_ = hydro::allocate(problem_.mesh);
    state_.rho.assign(problem_.rho.begin(), problem_.rho.end());
    state_.ein.assign(problem_.ein.begin(), problem_.ein.end());
    state_.u.assign(problem_.u.begin(), problem_.u.end());
    state_.v.assign(problem_.v.begin(), problem_.v.end());
    hydro::initialise(problem_.mesh, problem_.materials, state_);

    init_context();
    stepper_.clock().dt = problem_.hydro.dt_initial;
    open_history_fresh();
}

Hydro::Hydro(setup::Problem problem, const ckpt::Snapshot& snapshot)
    : problem_(std::move(problem)) {
    to_locality_order();
    state_ = hydro::allocate(problem_.mesh);
    ckpt::restore(problem_.mesh, problem_.materials, snapshot, state_);

    init_context();
    stepper_.clock() = Clock::of(snapshot);
    // (An at_time trigger the snapshot already passed cannot re-fire:
    // Config::due needs the step to cross it, and t only grows.)
    continue_history();
}

void Hydro::renumber(const mesh::Order& order) {
    drop_graphs();
    ale_work_ = {};
    auto& p = problem_;
    mesh::renumber(p.mesh, order.cells, order.nodes);
    p.rho = mesh::reordered(p.rho, order.cells);
    p.ein = mesh::reordered(p.ein, order.cells);
    p.u = mesh::reordered(p.u, order.nodes);
    p.v = mesh::reordered(p.v, order.nodes);
    hydro::renumber(state_, order.cells, order.nodes);
}

/// Locality order: the mesh along the Hilbert curve of its cell centroids,
/// the initial conditions and the state with it; the mesh keeps the
/// caller's numbering as its canonical ids.
void Hydro::to_locality_order() {
    if (in_locality_order_) return;
    renumber(mesh::locality_order(problem_.mesh));
    in_locality_order_ = true;
}

/// Back to the caller's order: storage ids sorted by canonical id, which
/// leaves the mesh without ids.
void Hydro::to_caller_order() {
    if (!in_locality_order_) return;
    const auto& m = problem_.mesh;
    renumber({mesh::canonical_order(m.cell_ids, m.n_cells()),
              mesh::canonical_order(m.node_ids, m.n_nodes())});
    in_locality_order_ = false;
}

void Hydro::init_context() {
    ctx_.mesh = &problem_.mesh;
    ctx_.materials = &problem_.materials;
    ctx_.opts = problem_.hydro;
    ctx_.profiler = &profiler_;
    telemetry_ = problem_.telemetry;
    if (!telemetry_.active()) return;
    telemetry_epoch_ = std::chrono::steady_clock::now();
    if (telemetry_.want_trace()) profiler_.set_trace(&trace_, telemetry_epoch_);
    stepper_.enable_telemetry(telemetry_, 0, telemetry_epoch_);
    if (telemetry_.live.empty()) return;
    live_.emplace(telemetry_.live);
    live_->emit(obs::run_start_event(
        telemetry_.label.empty() ? problem_.name : telemetry_.label, 1,
        telemetry_));
}

Stepper::Hooks Hydro::serial_hooks() {
    Stepper::Hooks hooks;
    hooks.advance = [this](Real dt_local, bool, const Stepper::Settle& settle) {
        step_graph_->run([&] { return settle(dt_local); });
    };
    hooks.remap = [this] {
        ale::alestep(ctx_, state_, problem_.ale, ale_work_, *advect_graph_);
    };
    hooks.window = [this](const obs::WindowRecord& w) {
        if (live_) (void)obs::stream_window(*live_, assembler_, 0, w);
    };
    return hooks;
}

void Hydro::open_history_fresh() {
    if (problem_.history.empty()) return;
    history_ = std::make_unique<io::CsvWriter>(problem_.history,
                                               history_header);
    write_history_row(0.0);
}

/// Restart-aware history continuation: keep the existing header and every
/// row up to (and including) the checkpointed step, drop rows the crashed
/// run wrote past it (including a crash-truncated partial final line),
/// then append — so after the restored run finishes, the file is
/// byte-identical to the uninterrupted run's history. The last kept row
/// must be the checkpointed step (the last-step handshake — guaranteed
/// reachable because maybe_checkpoint flushes the history before writing
/// the snapshot); a file that never reached it pairs with a different
/// checkpoint and is rejected. A missing/empty file starts fresh with a
/// restored-state baseline row instead.
void Hydro::continue_history() {
    if (problem_.history.empty()) return;

    std::ifstream in(problem_.history);
    std::vector<std::string> raw;
    if (in) {
        std::string line;
        while (std::getline(in, line)) raw.push_back(line);
    }
    in.close();

    std::vector<std::string> kept;
    bool dropped = false;
    if (!raw.empty()) {
        util::require(raw.front() == history_header_line(),
                      "history restart: header mismatch in " +
                          problem_.history);
        kept.push_back(raw.front());
        for (std::size_t i = 1; i < raw.size(); ++i) {
            const auto& line = raw[i];
            if (line.empty()) continue;
            std::istringstream row(line);
            Real step = -1.0;
            row >> step;
            if (!row || std::count(line.begin(), line.end(), ',') !=
                            static_cast<long>(history_header.size()) - 1) {
                // A malformed *final* line is what a crash mid-write
                // leaves; discard it. Malformed rows elsewhere mean the
                // file is not this run's history.
                util::require(i == raw.size() - 1,
                              "history restart: malformed row in " +
                                  problem_.history);
                dropped = true;
                continue;
            }
            if (step > static_cast<Real>(steps()) + Real(0.5)) {
                dropped = true; // written past the checkpoint; discard
                continue;
            }
            kept.push_back(line);
        }
    }

    if (kept.size() <= 1) {
        // No prior rows survive: start a fresh history whose baseline is
        // the restored state (there is nothing to duplicate).
        open_history_fresh();
        return;
    }
    std::istringstream last(kept.back());
    Real last_step = -1.0;
    last >> last_step;
    util::require(last_step == static_cast<Real>(steps()),
                  "history restart: " + problem_.history + " ends at step " +
                      std::to_string(static_cast<long>(last_step)) +
                      ", checkpoint is at step " + std::to_string(steps()) +
                      " (stale or mismatched history file)");
    if (dropped) {
        std::ofstream rewrite(problem_.history, std::ios::trunc);
        util::require(static_cast<bool>(rewrite),
                      "history restart: cannot rewrite " + problem_.history);
        for (const auto& line : kept) rewrite << line << '\n';
    }
    history_ = std::make_unique<io::CsvWriter>(problem_.history,
                                               history_header,
                                               io::CsvWriter::Mode::append);
}

void Hydro::write_history_row(Real dt) {
    const auto tot = totals();
    history_->row({static_cast<Real>(steps()), time(), dt, tot.mass,
                   tot.internal_energy, tot.kinetic_energy});
}

/// Write a checkpoint if the deck cadence (ckpt::Config::due — the one
/// trigger definition, shared with the distributed driver) says one is
/// due after the step that advanced t_before -> time(). Checkpoints never
/// perturb the trajectory: they are written after completed natural
/// steps only. The history CSV is flushed first so the on-disk rows are
/// durable up to the checkpointed step — what the restore handshake
/// requires of a file recovered from a crash.
void Hydro::maybe_checkpoint(Real t_before) {
    const auto& cfg = problem_.checkpoint;
    if (!cfg.enabled() || !cfg.due(steps(), t_before, time())) return;
    if (history_) history_->flush();
    save(cfg.path_for(steps()));
    if (cfg.halt_after) halt_requested_ = true;
}

void Hydro::drop_graphs() {
    step_graph_.reset();
    advect_graph_.reset();
}

/// Build the task graphs once: the step graph always and the advection
/// graph in a remapping mode (a run without a pool executes both inline).
/// set_exec and renumbering drop them, so a graph never outlives the
/// policy or the numbering it was built for.
void Hydro::ensure_graphs() {
    if (!step_graph_)
        step_graph_ = std::make_unique<hydro::StepGraph>(ctx_, state_);
    if (problem_.ale.mode != ale::Mode::lagrange && !advect_graph_)
        advect_graph_ = std::make_unique<ale::AdvectGraph>(
            ctx_, state_, problem_.ale, ale_work_);
}

StepInfo Hydro::step() {
    return step_to(std::numeric_limits<Real>::infinity());
}

StepInfo Hydro::step_to(Real t_end) {
    to_locality_order();
    ensure_graphs();
    const Real t_before = time();
    const StepInfo info = stepper_.step(t_end);
    if (history_) write_history_row(info.dt);
    maybe_checkpoint(t_before);
    util::log_debug("step ", info.step, " t=", info.t, " dt=", info.dt, " (",
                    info.dt_reason, ")");
    return info;
}

obs::RunReport Hydro::telemetry_report() const {
    obs::RunReport report;
    report.problem = problem_.name;
    report.label = telemetry_.label.empty() ? problem_.name : telemetry_.label;
    report.mode = "serial";
    report.n_ranks = 1;
    report.steps = steps();
    report.t_final = time();
    report.wall_s = stepper_.wall_s();
    report.config.task_block = ctx_.exec.task_block;
    report.config.n_threads = ctx_.exec.width();
    report.config.n_ranks = 1;
    report.work = perfmodel::telemetry_work_model(ctx_.exec.width());
    report.ranks.push_back(stepper_.rank_record(0));
    report.ranks.back().trace = trace_;
    report.imbalance = obs::imbalance_of(report.ranks);
    report.anomalies = obs::detect_anomalies(report, telemetry_.anomaly_factor);
    return report;
}

void Hydro::write_telemetry() const {
    if (!telemetry_.active() || telemetry_written_at_ == steps()) return;
    telemetry_written_at_ = steps();
    obs::write_outputs(telemetry_, telemetry_report());
}

RunSummary Hydro::run(std::optional<Real> t_end_opt, int max_steps) {
    const Real t_end = t_end_opt.value_or(problem_.t_end);
    RunSummary summary;
    summary.initial = totals();
    const util::Timer timer;
    halt_requested_ = false;
    while (time() < t_end * (Real(1.0) - eps) && steps() < max_steps &&
           !halt_requested_)
        step_to(t_end);
    summary.steps = steps();
    summary.t_final = time();
    summary.wall_seconds = timer.elapsed();
    summary.final_ = totals();
    if (telemetry_.active()) {
        write_telemetry();
        if (live_)
            live_->emit(obs::run_end_event(
                steps(), time(), stepper_.wall_s(),
                static_cast<long>(windows().size()), 0, 0));
    }
    return summary;
}

} // namespace bookleaf::core
