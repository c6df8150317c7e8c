#include "core/stepper.hpp"

#include <string>

#include "obs/critical_path.hpp"
#include "util/error.hpp"

namespace bookleaf::core {

namespace {

double us_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

} // namespace

Stepper::Stepper(hydro::Context& ctx, hydro::State& s,
                 const ale::Options& ale, Hooks hooks, Index n_cells,
                 std::span<const std::uint8_t> node_owned)
    : ctx_(ctx), s_(s), ale_(ale), hooks_(std::move(hooks)),
      n_cells_(n_cells), node_owned_(node_owned) {}

void Stepper::enable_telemetry(const obs::Options& opts, int rank,
                               std::chrono::steady_clock::time_point epoch) {
    telemetry_ = true;
    want_trace_ = opts.want_trace();
    epoch_ = epoch;
    // Every task-graph execution exports its spans into graph_log_, which
    // record() drains into the step's attribution.
    graph_log_.epoch = epoch;
    ctx_.graph_log = &graph_log_;
    steps_ = obs::StepRing(opts.max_steps);
    if (opts.live_active())
        folder_.emplace(rank, opts.window_steps, ctx_.profiler);
}

StepInfo Stepper::step(Real t_end) {
    const auto t0 = telemetry_ ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    const auto& guard = ctx_.opts.guard;
    info_ = StepInfo{};
    t_end_ = t_end;
    // Algorithm 1: the very first step uses dt_initial.
    Real dt_local = ctx_.opts.dt_initial;
    info_.dt_reason = "initial";
    if (clock_.steps > 0) {
        const auto r = hydro::getdt(ctx_, s_, clock_.dt);
        dt_local = r.dt;
        info_.dt_cell = r.cell;
        info_.dt_reason = r.reason;
    }

    // Loop-top capture for the health-guard rollback, before the driver
    // refreshes any ghost: a retry replays the refresh from the restored
    // owned values, the same bytes the first attempt exchanged.
    if (guard.enabled) hydro::capture_step(s_, backup_);
    hooks_.advance(dt_local, clock_.steps > 0,
                   [this](Real dt_agreed) { return settle(dt_agreed); });
    Real dt = info_.dt;
    int retries = 0;
    if (guard.enabled) {
        // Health-guard retry: a step that left non-finite or non-physical
        // fields anywhere is rolled back and replayed with a smaller dt.
        // The accepted dt becomes the growth reference and arms the
        // re-growth ceiling, so the controller climbs back gradually.
        while (!hooks_.agree(hydro::step_healthy(s_, n_cells_, node_owned_))) {
            util::require(retries < guard.max_retries,
                          "hydro: step " + std::to_string(clock_.steps + 1) +
                              " rejected by health guards after " +
                              std::to_string(retries) + " dt-backoff retries");
            ++retries;
            const Real dt_try = dt * guard.backoff;
            util::require(dt_try >= ctx_.opts.dt_min,
                          "hydro: health-guard backoff drove dt below dt_min "
                          "at step " + std::to_string(clock_.steps + 1));
            hydro::restore_step(ctx_, s_, backup_);
            dt = dt_try;
            hooks_.advance(dt, /*reduce=*/false, [](Real d) { return d; });
        }
        if (retries > 0) {
            clock_.dt = dt;
            clock_.regrow = dt * guard.regrow_cap;
            info_.dt_cell = no_index;
            info_.dt_reason = "health-retry";
        }
    }

    // Remap cadence: Eulerian every step, ALE every `frequency` steps.
    if (ale_.mode != ale::Mode::lagrange &&
        (ale_.mode == ale::Mode::eulerian ||
         (clock_.steps + 1) % ale_.frequency == 0)) {
        hooks_.remap();
        info_.remapped = true;
    }

    clock_.t += dt;
    ++clock_.steps;
    info_.step = clock_.steps;
    info_.t = clock_.t;
    info_.dt = dt;
    if (telemetry_) record(t0, dt_local, retries);
    return info_;
}

Real Stepper::settle(Real dt) {
    // Re-growth ceiling after a health-guard backoff: binds the agreed
    // controller dt until the controller's own value ducks back under,
    // then clears. Every rank holds the same ceiling, so it commutes with
    // the min-reduce.
    if (clock_.steps > 0 && clock_.regrow > 0.0) {
        if (dt > clock_.regrow) {
            dt = clock_.regrow;
            clock_.regrow *= ctx_.opts.guard.regrow_cap;
            info_.dt_cell = no_index;
            info_.dt_reason = "regrow";
        } else {
            clock_.regrow = 0.0;
        }
    }
    clock_.dt = dt;
    const auto clamped = hydro::clamp_to_t_end(clock_.t, dt, t_end_);
    if (clamped.used != clamped.unclamped) info_.dt_reason = "t_end";
    info_.dt = clamped.used;
    return clamped.used;
}

/// The step's telemetry record, taken after its physics committed:
/// telemetry reads state, never feeds back into it (the passive contract).
void Stepper::record(std::chrono::steady_clock::time_point t0, Real dt_local,
                     int retries) {
    obs::StepRecord rec;
    rec.step = clock_.steps - 1;
    rec.t = clock_.t;
    rec.dt = info_.dt;
    rec.dt_local = dt_local;
    rec.dt_reason = obs::dt_reason_code(info_.dt_reason);
    rec.start_us = us_between(epoch_, t0);
    rec.wall_us = us_between(t0, std::chrono::steady_clock::now());
    rec.retries = retries;
    rec.remapped = info_.remapped;
    obs::attribute_step(graph_log_, rec, attrib_,
                        want_trace_ ? &critical_ : nullptr);
    wall_us_ += rec.wall_us;
    steps_.push(rec);
    if (!folder_) return;
    if (auto w = folder_->add(rec)) {
        windows_.push_back(*w);
        if (hooks_.window) hooks_.window(*w);
    }
}

obs::RankRecord Stepper::rank_record(int rank) const {
    obs::RankRecord r;
    r.rank = rank;
    r.steps = steps_.take();
    r.evicted = steps_.evicted();
    r.windows = windows_;
    r.kernels = ctx_.profiler->snapshot();
    r.attrib = attrib_;
    r.critical = critical_;
    return r;
}

} // namespace bookleaf::core
