/// \file distributed.cpp
/// Distributed (flat-MPI analogue) driver. Each typhon rank owns a
/// subdomain and runs the Lagrangian predictor-corrector locally; ghost
/// data is refreshed with the paper's two halo exchanges per step:
///   1. before GETQ: node positions/velocities + ghost internal energy as
///      one fused wire exchange (the dependent thermodynamic state is
///      rebuilt locally);
///   2. before GETACC: ghost corner forces, so the nodal assembly at every
///      node of an owned cell is complete and exact.
/// The timestep is the global min-reduction of the owned-cell dt. On
/// remap-due steps of ALE/Eulerian decks, remap() below runs the
/// ghost-aware ALE step after the corrector. The step policy itself (dt
/// controller, re-growth ceiling, t_end clamp, health-guard retry, remap
/// cadence, step records) is core::Stepper's, shared with the serial
/// driver; this file supplies the per-rank mechanics as its hooks.
///
/// The step is hydro::StepGraph with the rank's halo nodes, built once
/// per attempt: the rank posts the dt min-reduce and the state exchange,
/// and the graph finishes the state exchange while the predictor blocks
/// that read no halo data run, settles dt after it (the reduce rides
/// under the state exchange), and posts the corner exchange as soon as
/// the blocks holding sent corners have their forces, finishing it under
/// the other blocks' work. Every kernel piece is per-item independent,
/// the exchanged bytes are the serial ones and the reduction is
/// rank-order deterministic, so the gathered fields equal the serial
/// driver's bit for bit at every rank and thread count. Every exchange
/// posts one message per peer, the fields' slices back-to-back. A
/// health-guard retry replays the same step from the restored loop-top
/// state.

#include "dist/distributed.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "ale/advect_graph.hpp"
#include "core/stepper.hpp"
#include "hydro/stepgraph.hpp"
#include "perfmodel/calibrate.hpp"
#include "part/subdomain.hpp"
#include "typhon/fault.hpp"
#include "typhon/typhon.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace bookleaf::dist {

namespace {

/// Rebuild the dependent state (geometry cache, volumes, density, EoS) *of
/// the ghost cells only* after their x/y/ein were refreshed — owned cells
/// ended the previous step exact (every node of an owned cell has its full
/// assembly locally), so recomputing them would be pure waste and would
/// skew the per-kernel profile against the serial driver. Ghost cells are
/// contiguous after the owned block.
void rebuild_ghost_state(const hydro::Context& ctx, hydro::State& s,
                         const part::Subdomain& sub) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::other);
    // Strict (throwing) on a non-positive ghost volume — except under the
    // health guards, where a tangled geometry must propagate quietly to
    // the post-corrector vote so every rank reaches the collective retry
    // decision instead of one rank dying mid-step.
    hydro::rebuild_cells(*ctx.mesh, *ctx.materials, s, sub.n_owned_cells,
                         ctx.mesh->n_cells(), /*with_rho=*/true,
                         /*strict=*/!ctx.opts.guard.enabled, "dist ghost");
}

/// One blocking halo exchange, charged to Kernel::halo: `start` posts it
/// (under halo_pack), then it is finished.
template <class Start>
void blocking_halo(const hydro::Context& ctx, Start&& start) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
    typhon::PendingExchange halo;
    {
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        halo = start();
    }
    halo.finish(ctx.profiler);
}

/// The fused pre-step state halo: node kinematics {x, y, u, v} and ghost
/// internal energy {ein} as ONE wire exchange — where a peer appears in
/// both schedules (the common case: a rank owning our ghost cells
/// usually owns nodes of ours too) a single message carries both groups'
/// slices, collapsing the per-step pre-exchange from two messages per
/// peer to one.
[[nodiscard]] typhon::PendingExchange
start_state_halo(hydro::State& s, typhon::Comm& comm,
                 const part::Subdomain& sub) {
    const std::array<typhon::FieldGroup, 2> groups{
        typhon::FieldGroup{&sub.node_schedule, {std::span<Real>(s.x),
                                                std::span<Real>(s.y),
                                                std::span<Real>(s.u),
                                                std::span<Real>(s.v)}},
        typhon::FieldGroup{&sub.cell_schedule, {std::span<Real>(s.ein)}}};
    return typhon::exchange_start(comm, groups, 100);
}

/// The rank's halo in the step graph's terms: its ghost layout, the cells
/// whose corners a peer receives, and the exchange callbacks — finishing
/// `state` (which the rank posts before each step) and posting and
/// finishing `corners`. Each callback charges Kernel::halo.
hydro::StepHalo step_halo(const hydro::Context& ctx, hydro::State& s,
                          typhon::Comm& comm, const part::Subdomain& sub,
                          typhon::PendingExchange& state,
                          typhon::PendingExchange& corners) {
    hydro::StepHalo halo;
    halo.n_owned_cells = sub.n_owned_cells;
    halo.node_owned = sub.node_owned;
    for (const auto& peer : sub.corner_schedule.peers)
        for (const Index item : peer.send_items)
            halo.sent_cells.push_back(item / corners_per_cell);
    util::Profiler* profiler = ctx.profiler;
    halo.finish_state = [profiler, &state] {
        const util::ScopedTimer timer(*profiler, util::Kernel::halo);
        state.finish(profiler);
    };
    halo.post_corners = [profiler, &s, &comm, &sub, &corners] {
        const util::ScopedTimer timer(*profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*profiler, util::Kernel::halo_pack);
        corners = typhon::exchange_start(comm, sub.corner_schedule,
                                         {s.fx, s.fy}, 200);
    };
    halo.finish_corners = [profiler, &corners] {
        const util::ScopedTimer timer(*profiler, util::Kernel::halo);
        corners.finish(profiler);
    };
    return halo;
}

/// Blocking pre-remap halo: refresh ghost node kinematics and ghost
/// internal energy, then rebuild the ghost dependent state.
void refresh_ghosts(const hydro::Context& ctx, hydro::State& s,
                    typhon::Comm& comm, const part::Subdomain& sub) {
    blocking_halo(ctx, [&] { return start_state_halo(s, comm, sub); });
    rebuild_ghost_state(ctx, s, sub);
}

// ---------------------------------------------------------------------------
// Checkpoint/restart: owned-slice gather to a writer rank, global restore
// through part::decompose
// ---------------------------------------------------------------------------

/// Tag of the checkpoint gather (the step halos use 100/200, the remap
/// 300..340; repeated checkpoints reuse the channel FIFO in step order).
constexpr int ckpt_tag = 500;

/// Tag of the end-of-run telemetry gather (same every-rank-sends-to-0
/// pattern as the checkpoint gather, once per run).
constexpr int telemetry_tag = 501;

/// Tag of the in-run live-window stream: every rank sends one compact
/// WindowRecord to rank 0 each time a monitoring window closes, rank 0
/// drains the channel opportunistically (posted irecvs polled at the top
/// of its step loop) and blocks the channel dry after its step loop ends
/// — the blocking drain promotes fault-held messages, so delay plans
/// cannot strand the stream past Hub::drained().
constexpr int live_tag = 502;

/// Pack this rank's owned entities for the checkpoint gather: the
/// snapshot's node fields (x, y, u, v, node_mass), cell fields (rho, ein,
/// q, cell_mass) and corner field (cnmass), field-major, each field's
/// owned items in local order.
std::vector<Real> pack_owned(const part::Subdomain& sub,
                             const hydro::State& s) {
    std::vector<Real> out;
    const auto owned_nodes = static_cast<std::size_t>(sub.n_owned_nodes());
    const auto owned_cells = static_cast<std::size_t>(sub.n_owned_cells);
    out.reserve(5 * owned_nodes + (4 + corners_per_cell) * owned_cells);
    const auto nodes = [&](std::span<const Real> f) {
        for (std::size_t ln = 0; ln < sub.node_owned.size(); ++ln)
            if (sub.node_owned[ln]) out.push_back(f[ln]);
    };
    nodes(s.x);
    nodes(s.y);
    nodes(s.u);
    nodes(s.v);
    nodes(s.node_mass);
    const auto cells = [&](std::span<const Real> f) {
        for (std::size_t lc = 0; lc < owned_cells; ++lc) out.push_back(f[lc]);
    };
    cells(s.rho);
    cells(s.ein);
    cells(s.q);
    cells(s.cell_mass);
    for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
        for (int k = 0; k < corners_per_cell; ++k)
            out.push_back(s.cnmass[hydro::State::cidx(lc, k)]);
    return out;
}

/// Scatter one rank's packed owned slice into the global snapshot arrays
/// (the exact inverse of pack_owned, routed through the local mesh's
/// global ids).
void unpack_owned(const part::Subdomain& sub, std::span<const Real> payload,
                  ckpt::Snapshot& snap) {
    const auto& lm = sub.local;
    std::size_t pos = 0;
    const auto nodes = [&](std::vector<Real>& f) {
        for (Index ln = 0; ln < lm.n_nodes(); ++ln)
            if (sub.node_owned[static_cast<std::size_t>(ln)])
                f[static_cast<std::size_t>(lm.node_id(ln))] = payload[pos++];
    };
    nodes(snap.x);
    nodes(snap.y);
    nodes(snap.u);
    nodes(snap.v);
    nodes(snap.node_mass);
    const auto cells = [&](std::vector<Real>& f) {
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
            f[static_cast<std::size_t>(lm.cell_id(lc))] = payload[pos++];
    };
    cells(snap.rho);
    cells(snap.ein);
    cells(snap.q);
    cells(snap.cell_mass);
    for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
        for (int k = 0; k < corners_per_cell; ++k)
            snap.cnmass[hydro::State::cidx(lm.cell_id(lc), k)] =
                payload[pos++];
    util::require(pos == payload.size(),
                  "dist: checkpoint gather payload size mismatch");
}

/// Assemble one global snapshot: every rank ships its owned slice to
/// rank 0 through the typhon point-to-point layer; rank 0 assembles the
/// global arrays (ascending entity order, the serial layout) and returns
/// the snapshot — other ranks return nullopt. Because owned fields are
/// bitwise-serial, the assembled snapshot is identical to the one a
/// serial run would capture at the same step — at any rank count. One
/// gather serves both consumers: the on-disk checkpoint cadence and the
/// supervisor's in-memory rollback ring.
std::optional<ckpt::Snapshot> gather_snapshot(
    typhon::Comm& comm, const std::vector<part::Subdomain>& subs,
    const mesh::Mesh& global, std::uint64_t mesh_hash, const hydro::State& s,
    const core::Clock& clock, util::Profiler& profiler) {
    const util::ScopedTimer timer(profiler, util::Kernel::other);
    comm.send(0, ckpt_tag,
              pack_owned(subs[static_cast<std::size_t>(comm.rank())], s));
    if (comm.rank() != 0) return std::nullopt;

    ckpt::Snapshot snap;
    snap.mesh_hash = mesh_hash;
    snap.steps = clock.steps;
    snap.t = clock.t;
    snap.dt = clock.dt;
    snap.regrow = clock.regrow;
    const auto nn = static_cast<std::size_t>(global.n_nodes());
    const auto nc = static_cast<std::size_t>(global.n_cells());
    snap.x.resize(nn);
    snap.y.resize(nn);
    snap.u.resize(nn);
    snap.v.resize(nn);
    snap.node_mass.resize(nn);
    snap.rho.resize(nc);
    snap.ein.resize(nc);
    snap.q.resize(nc);
    snap.cell_mass.resize(nc);
    snap.cnmass.resize(nc * corners_per_cell);
    for (int r = 0; r < comm.size(); ++r) {
        const auto payload = comm.recv(r, ckpt_tag);
        unpack_owned(subs[static_cast<std::size_t>(r)], payload, snap);
    }
    return snap;
}

/// Restore one rank's subdomain state from the global snapshot: owned and
/// ghost entities alike take the global (bitwise-serial) values — exactly
/// the bytes a pre-step ghost refresh would land — then the derived state
/// is rebuilt with the same per-cell sequence the serial restore uses.
void restore_rank_state(const part::Subdomain& sub,
                        const eos::MaterialTable& materials,
                        const ckpt::Snapshot& snap, hydro::State& s) {
    const auto& lm = sub.local;
    for (std::size_t ln = 0; ln < lm.node_ids.size(); ++ln) {
        const auto gn = static_cast<std::size_t>(lm.node_ids[ln]);
        s.x[ln] = snap.x[gn];
        s.y[ln] = snap.y[gn];
        s.u[ln] = snap.u[gn];
        s.v[ln] = snap.v[gn];
        s.node_mass[ln] = snap.node_mass[gn];
    }
    for (std::size_t lc = 0; lc < lm.cell_ids.size(); ++lc) {
        const auto gc = static_cast<std::size_t>(lm.cell_ids[lc]);
        s.rho[lc] = snap.rho[gc];
        s.ein[lc] = snap.ein[gc];
        s.q[lc] = snap.q[gc];
        s.cell_mass[lc] = snap.cell_mass[gc];
        for (int k = 0; k < corners_per_cell; ++k)
            s.cnmass[hydro::State::cidx(static_cast<Index>(lc), k)] =
                snap.cnmass[hydro::State::cidx(static_cast<Index>(gc), k)];
    }
    ckpt::rebuild_derived(sub.local, materials, s);
    s.x0 = s.x;
    s.y0 = s.y;
    s.u0 = s.u;
    s.v0 = s.v;
    s.ein0 = s.ein;
}

/// The rank's remap halo in the advection graph's terms: its ghost
/// layout, the nodes it remaps and the callbacks that post and finish the
/// gradient exchange (`grads`) and the fused result exchange (`results`).
/// Each callback charges Kernel::halo.
ale::AdvectHalo advect_halo(const hydro::Context& ctx, hydro::State& s,
                            ale::Workspace& w, typhon::Comm& comm,
                            const part::Subdomain& sub,
                            typhon::PendingExchange& grads,
                            typhon::PendingExchange& results) {
    ale::AdvectHalo halo;
    halo.n_owned_cells = sub.n_owned_cells;
    halo.nodes = sub.remap_nodes;
    util::Profiler* profiler = ctx.profiler;
    // Limited reconstruction at a boundary cell reads its face-adjacent
    // ghosts' gradients, which only their owner can compute with a full
    // stencil.
    halo.post_gradients = [profiler, &w, &comm, &sub, &grads] {
        const util::ScopedTimer timer(*profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*profiler, util::Kernel::halo_pack);
        grads = typhon::exchange_start(
            comm, sub.remap_cell_schedule,
            {w.grad_rho_x, w.grad_rho_y, w.grad_e_x, w.grad_e_y}, 320);
    };
    halo.finish_gradients = [profiler, &grads] {
        const util::ScopedTimer timer(*profiler, util::Kernel::halo);
        grads.finish(profiler);
    };
    // Ghost cell results {cell_mass, ein} (the next steps' ghost rebuild
    // divides cell_mass by volume) and ghost dual-mesh results {cnmass,
    // dflux}: the acceleration assembly reads ghost corner masses every
    // step, and the nodal remap needs the dual fluxes of ghost cells,
    // which their far faces make impossible to compute here.
    halo.post_results = [profiler, &s, &w, &comm, &sub, &results] {
        const util::ScopedTimer timer(*profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*profiler, util::Kernel::halo_pack);
        const std::array<typhon::FieldGroup, 2> groups{
            typhon::FieldGroup{&sub.cell_schedule,
                               {std::span<Real>(s.cell_mass),
                                std::span<Real>(s.ein)}},
            typhon::FieldGroup{&sub.remap_dual_schedule,
                               {std::span<Real>(s.cnmass),
                                std::span<Real>(w.dflux)}}};
        results = typhon::exchange_start(comm, groups, 340);
    };
    halo.finish_results = [profiler, &results] {
        const util::ScopedTimer timer(*profiler, util::Kernel::halo);
        results.finish(profiler);
    };
    return halo;
}

/// The ghost-aware remap (see dist::remap), advecting on `advect`.
void remap_on(const hydro::Context& ctx, hydro::State& s,
              const ale::Options& ale, ale::Workspace& w, typhon::Comm& comm,
              const part::Subdomain& sub, ale::AdvectGraph& advect) {
    // 1. Pre-remap state refresh: the corrector left ghost kinematics and
    // energy stale (fringe assemblies are incomplete); the remap reads
    // them everywhere, so run the same fused halo + ghost rebuild the
    // next step would.
    refresh_ghosts(ctx, s, comm, sub);

    // 2. Target mesh. ALE smoothing needs one node-position halo per
    // Jacobi pass (and one after the clamp): a fringe node's local
    // adjacency is incomplete, so its owner's value overwrites it before
    // the next pass reads it. Eulerian targets are exact locally.
    if (ale.mode == ale::Mode::ale) {
        ale::alegetmesh(ctx, s, ale, w,
                        [&](std::vector<Real>& xt, std::vector<Real>& yt) {
                            blocking_halo(ctx, [&] {
                                return typhon::exchange_start(
                                    comm, sub.node_schedule, {xt, yt}, 300);
                            });
                        });
    } else {
        ale::alegetmesh(ctx, s, ale, w);
    }

    // 3. Swept volumes on the faces this rank remaps (owned-incident; a
    // ghost cell's far face is phantom here and is never evaluated).
    ale::alegetfvol(ctx, s, w, sub.remap_faces);

    // 4. ALEADVECT with its gradient and result exchanges as graph nodes.
    advect.run();

    // 5. Move everything onto the target mesh and rebuild the dependent
    // state — all inputs are exact on every local entity by now, so the
    // full-range update is bitwise-serial even on ghosts.
    ale::aleupdate(ctx, s, w);
}

} // namespace

void remap(const hydro::Context& ctx, hydro::State& s, const ale::Options& ale,
           ale::Workspace& w, typhon::Comm& comm, const part::Subdomain& sub) {
    typhon::PendingExchange grads, results;
    ale::AdvectGraph advect(ctx, s, ale, w,
                            advect_halo(ctx, s, w, comm, sub, grads, results));
    remap_on(ctx, s, ale, w, comm, sub, advect);
}

namespace {

/// Blocking global min, charged to the reduce slots.
Real timed_min(typhon::Comm& comm, util::Profiler& profiler, Real v) {
    const util::ScopedTimer timer(profiler, util::Kernel::reduce);
    const util::ScopedTimer wait(profiler, util::Kernel::reduce_wait);
    return comm.allreduce_min(v);
}

obs::RecoveryEvent event_of(const Result::Recovery& r) {
    return {r.failed_rank, r.failed_step, static_cast<long>(r.resumed_step),
            r.survivors};
}

/// A fresh run's initial conditions, per global cell and node.
struct Initial {
    const std::vector<Real>& rho;
    const std::vector<Real>& ein;
    const std::vector<Real>& u;
    const std::vector<Real>& v;
};

/// The state of one dist::run call that spans every attempt.
struct Run {
    Run(const mesh::Mesh& global_, const eos::MaterialTable& materials_,
        const Options& opts_, const Initial* initial_)
        : global(global_), materials(materials_), opts(opts_),
          initial(initial_), telemetry(opts_.telemetry.active()),
          live(opts_.telemetry.live_active()),
          live_stream(telemetry ? opts_.telemetry.live : std::string{}),
          global_hash(opts_.checkpoint.enabled() || opts_.supervise.enabled
                          ? ckpt::mesh_hash(global_)
                          : 0) {
        if (live_stream.open())
            live_stream.emit(obs::run_start_event(
                opts.telemetry.label, opts.n_ranks, opts.telemetry));
        result.rho.resize(static_cast<std::size_t>(global.n_cells()));
        result.ein.resize(result.rho.size());
        result.u.resize(static_cast<std::size_t>(global.n_nodes()));
        result.v.resize(result.u.size());
        result.x.resize(result.u.size());
        result.y.resize(result.u.size());
    }

    const mesh::Mesh& global;
    const eos::MaterialTable& materials;
    const Options& opts;
    const Initial* initial; ///< null on a restart
    const bool telemetry;
    const bool live;
    /// The NDJSON stream spans every attempt — the crash trail must
    /// include failed ones — and is appended to by the rank-0 thread and
    /// the watchdog supervisor thread (LiveStream locks internally).
    obs::LiveStream live_stream;
    std::atomic<long> stalls{0};
    /// One epoch for the whole run: recovery attempts land on the same
    /// trace timeline, and the run wall clock spans every attempt.
    const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    const util::Timer timer;
    /// The writer rank's global mesh identity, hashed once.
    const std::uint64_t global_hash;
    /// Rollback ring: the newest supervised snapshots, oldest evicted.
    /// Only the rank-0 thread touches it inside typhon::run; the
    /// supervisor reads it after the join (thread-join ordering, no lock).
    std::deque<ckpt::Snapshot> ring;
    Result result;
};

/// What one attempt's rank threads share with the supervisor. Rank
/// threads write only their own per-rank slots; the rank-0 members are
/// written by the rank-0 thread and read after the join.
struct Attempt {
    Attempt(const Run& run, int index_, int n_ranks_,
            const ckpt::Snapshot* start_)
        : index(index_), n_ranks(n_ranks_), start(start_),
          profilers(static_cast<std::size_t>(n_ranks_)) {
        const auto& opts = run.opts;
        subs = part::decompose(run.global,
                               opts.partitioner
                                   ? opts.partitioner(run.global, n_ranks)
                                   : part::rcb(run.global, n_ranks),
                               n_ranks);
        if (run.telemetry && opts.telemetry.want_trace()) {
            traces.resize(static_cast<std::size_t>(n_ranks));
            crits.resize(static_cast<std::size_t>(n_ranks));
        }
        if (!run.live) return;
        assembler.emplace(n_ranks);
        if (opts.telemetry.watchdog_factor > 0.0 && n_ranks > 1)
            watchdog.emplace(
                n_ranks, opts.telemetry.watchdog_factor,
                static_cast<double>(opts.telemetry.watchdog_grace_ms),
                opts.telemetry.watchdog_escalate);
    }

    int index;
    int n_ranks;
    /// Where the attempt starts: the restart or rollback snapshot, or the
    /// initial conditions when null.
    const ckpt::Snapshot* start;
    std::vector<part::Subdomain> subs;
    std::vector<util::Profiler> profilers;
    /// Trace and critical-path spans, one slot per rank, each stamped
    /// against that rank's own epoch (aligned onto the run epoch's
    /// timeline by the report).
    std::vector<std::vector<util::TraceEvent>> traces;
    std::vector<std::vector<obs::CritSpan>> crits;
    // Rank 0 only.
    core::Clock clock;
    std::vector<obs::RankRecord> records;
    long long gathers = 0;
    std::vector<obs::LiveWindow> windows;
    std::optional<obs::LiveAssembler> assembler;
    /// Shared: rank threads bump their step epochs (relaxed atomics),
    /// rank 0 stamps window arrivals, the supervisor thread runs check().
    std::optional<obs::Watchdog> watchdog;
};

/// Rank 0's end of the tag-502 live-window stream: one posted irecv per
/// rank, drained opportunistically at the top of every step, plus the
/// watchdog supervisor thread. A posted irecv is a local handle (test()
/// polls the transport), so a request left pending strands nothing.
class LiveDrain {
public:
    LiveDrain(Run& run, Attempt& a, typhon::Comm& comm)
        : run_(run), a_(a), comm_(comm),
          pending_(static_cast<std::size_t>(comm.size())),
          received_(static_cast<std::size_t>(comm.size()), 0) {
        for (int r = 0; r < comm.size(); ++r)
            pending_[static_cast<std::size_t>(r)] = comm.irecv(r, live_tag);
        if (!a.watchdog) return;
        const double poll_ms = std::max(
            static_cast<double>(run.opts.telemetry.watchdog_grace_ms) / 8.0,
            1.0);
        session_.emplace(*a.watchdog, poll_ms,
                         [this](const obs::Watchdog::Stall& st) {
            ++run_.stalls;
            run_.live_stream.emit(obs::stall_event(
                a_.index, st, *a_.watchdog, comm_.backlog()));
            util::log_warn("watchdog: rank ", st.rank, " silent for ",
                           st.silent_ms, " ms (threshold ", st.threshold_ms,
                           " ms), last step ", st.last_step,
                           st.escalated ? " - escalating" : "");
        });
    }
    /// The watchdog callback holds this object's address.
    LiveDrain(const LiveDrain&) = delete;
    LiveDrain& operator=(const LiveDrain&) = delete;

    /// Harvest whatever has arrived.
    void poll() {
        for (int r = 0; r < comm_.size(); ++r)
            while (pending_[static_cast<std::size_t>(r)].test()) harvest(r);
    }

    /// After the step loop: stop the stall supervisor (no more progress
    /// ticks are coming, so anything it would flag now is a false
    /// positive), then drain the stream dry. Lockstep stepping means every
    /// rank produced exactly rank 0's `windows` count; the blocking wait()
    /// promotes fault-held messages, so a delay plan cannot strand the
    /// channel past Hub::drained().
    void finish(long windows) {
        session_.reset();
        for (int r = 0; r < comm_.size(); ++r)
            while (received_[static_cast<std::size_t>(r)] < windows) {
                pending_[static_cast<std::size_t>(r)].wait();
                harvest(r);
            }
    }

private:
    void harvest(int r) {
        auto& req = pending_[static_cast<std::size_t>(r)];
        auto w = obs::unpack_window(req.data());
        req = comm_.irecv(r, live_tag);
        ++received_[static_cast<std::size_t>(r)];
        if (a_.watchdog) a_.watchdog->note_window(w.rank);
        for (auto& lw : obs::stream_window(run_.live_stream, *a_.assembler,
                                           a_.index, std::move(w))) {
            if (run_.opts.on_window) run_.opts.on_window(lw);
            a_.windows.push_back(std::move(lw));
        }
    }

    Run& run_;
    Attempt& a_;
    typhon::Comm& comm_;
    std::vector<typhon::Request> pending_;
    std::vector<long> received_;
    std::optional<obs::WatchdogSession> session_;
};

/// The snapshot cadences after a completed step. Every rank evaluates the
/// same triggers (t and steps are globally agreed), so the gather is
/// collective; both fire after completed natural steps only, so a
/// checkpointing or supervised run is bitwise the run without either. One
/// gather feeds the on-disk checkpoint, the rollback ring and its
/// optional spill to disk. Returns true when `halt_after` stops the run.
bool take_snapshots(Run& run, Attempt& a, typhon::Comm& comm,
                    const hydro::State& s, const core::Clock& clock,
                    Real t_before) {
    const Options& opts = run.opts;
    const bool disk_due = opts.checkpoint.enabled() &&
                          opts.checkpoint.due(clock.steps, t_before, clock.t);
    const bool ring_due = opts.supervise.enabled &&
                          opts.supervise.snapshot_every > 0 &&
                          clock.steps % opts.supervise.snapshot_every == 0;
    if (!disk_due && !ring_due) return false;
    if (comm.rank() == 0) ++a.gathers;
    auto gathered = gather_snapshot(
        comm, a.subs, run.global, run.global_hash, s, clock,
        a.profilers[static_cast<std::size_t>(comm.rank())]);
    if (gathered.has_value()) { // rank 0 only
        if (disk_due) {
            const auto path = opts.checkpoint.path_for(clock.steps);
            ckpt::write(path, *gathered);
            // A recovery replays steps, so a path may come up twice; the
            // rewrite is byte-identical (bitwise contract) — record it once.
            auto& written = run.result.checkpoints;
            if (std::find(written.begin(), written.end(), path) ==
                written.end())
                written.push_back(path);
        }
        if (opts.supervise.enabled) {
            if (!opts.supervise.spill_prefix.empty())
                ckpt::write(opts.supervise.spill_prefix + "_" +
                                std::to_string(clock.steps) + ".ckpt",
                            *gathered);
            run.ring.push_back(std::move(*gathered));
            if (run.ring.size() > static_cast<std::size_t>(std::max(
                                      1, opts.supervise.ring_capacity)))
                run.ring.pop_front();
        }
    }
    return disk_due && opts.checkpoint.halt_after;
}

/// One rank's share of an attempt: set up its subdomain state, step it
/// with the shared core::Stepper, take the snapshot cadences, drain the
/// live stream (rank 0), then gather the owned fields into the result and
/// the telemetry records to rank 0.
void rank_body(Run& run, Attempt& a, typhon::Comm& comm) {
    const Options& opts = run.opts;
    const int rank = comm.rank();
    const auto& sub = a.subs[static_cast<std::size_t>(rank)];
    auto& profiler = a.profilers[static_cast<std::size_t>(rank)];

    // Per-rank run epoch: rank threads start (and stamp their clocks) at
    // slightly different instants, so every sink this rank writes — trace
    // spans, step start times, graph-run spans — is measured against its
    // own origin, and the offset to the shared run epoch ships with the
    // tag-501 gather so the report can align all records onto the run
    // epoch (what a real MPI run must do, since node clocks share no
    // origin). Every rank stamps after the run epoch, so each offset is
    // >= 0 and no aligned timestamp goes negative.
    const auto rank_epoch =
        run.telemetry ? std::chrono::steady_clock::now() : run.epoch;
    if (!a.traces.empty())
        profiler.set_trace(&a.traces[static_cast<std::size_t>(rank)],
                           rank_epoch);

    // Per-rank worker pool (the hybrid MPI+OpenMP analogue). Built before
    // the state so the first-touch allocation places pages in the same
    // blocks the threaded kernels sweep.
    std::unique_ptr<par::ThreadPool> pool;
    par::Exec exec;
    if (opts.n_threads > 1) {
        pool = std::make_unique<par::ThreadPool>(opts.n_threads);
        exec.pool = pool.get();
    }

    hydro::State s = hydro::allocate(sub.local, exec);
    if (a.start != nullptr) {
        restore_rank_state(sub, run.materials, *a.start, s);
    } else {
        for (std::size_t lc = 0; lc < sub.local.cell_ids.size(); ++lc) {
            const auto gc = static_cast<std::size_t>(sub.local.cell_ids[lc]);
            s.rho[lc] = run.initial->rho[gc];
            s.ein[lc] = run.initial->ein[gc];
        }
        for (std::size_t ln = 0; ln < sub.local.node_ids.size(); ++ln) {
            const auto gn = static_cast<std::size_t>(sub.local.node_ids[ln]);
            s.u[ln] = run.initial->u[gn];
            s.v[ln] = run.initial->v[gn];
        }
        hydro::initialise(sub.local, run.materials, s);
    }

    hydro::Context ctx;
    ctx.mesh = &sub.local;
    ctx.materials = &run.materials;
    ctx.opts = opts.hydro;
    ctx.exec = exec;
    ctx.profiler = &profiler;
    ctx.dt_cells = sub.n_owned_cells; // dt over owned cells only
    ale::Workspace ale_work;
    // The step's two exchanges: the advance hook posts the state halo,
    // the step graph finishes it and posts and finishes the corner halo;
    // the advection graph posts and finishes both remap exchanges. Each
    // graph is built on this attempt's first use (after telemetry has
    // attached its collector to ctx) and re-run after it.
    typhon::PendingExchange state_halo, corner_halo, grads_halo, results_halo;
    std::optional<hydro::StepGraph> step_graph;
    std::optional<ale::AdvectGraph> advect_graph;

    core::Stepper::Hooks hooks;
    hooks.advance = [&](Real dt_local, bool reduce,
                        const core::Stepper::Settle& settle) {
        if (!step_graph)
            step_graph.emplace(ctx, s,
                               step_halo(ctx, s, comm, sub, state_halo,
                                         corner_halo));
        // The reduce is posted first: every rank's contribution is this
        // step's local controller value and the result is the
        // deterministic rank-ordered min (bitwise what a blocking
        // allreduce returns). The graph's settle task waits for it after
        // the state finish, so it rides under the state exchange. Sends
        // pack owned values, so the state halo posts before any work.
        typhon::CollRequest dt_reduce;
        if (reduce) {
            const util::ScopedTimer timer(profiler, util::Kernel::reduce);
            dt_reduce = comm.iallreduce_min(dt_local);
        }
        {
            const util::ScopedTimer timer(profiler, util::Kernel::halo);
            const util::ScopedTimer pack(profiler, util::Kernel::halo_pack);
            state_halo = start_state_halo(s, comm, sub);
        }
        step_graph->run([&] {
            Real dt_agreed = dt_local;
            if (reduce) {
                const util::ScopedTimer timer(profiler, util::Kernel::reduce);
                const util::ScopedTimer wait(profiler,
                                             util::Kernel::reduce_wait);
                dt_agreed = dt_reduce.wait();
            }
            return settle(dt_agreed);
        });
    };
    // Every rank checks its owned entities (their union is the global set
    // and owned bytes are bitwise-serial), so the min-reduced verdict is
    // the serial driver's. The reduce is a collective: a healthy run's
    // point-to-point message count is untouched.
    hooks.agree = [&](bool ok) {
        return timed_min(comm, profiler, ok ? Real(1.0) : Real(0.0)) >
               Real(0.5);
    };
    hooks.remap = [&] {
        if (!advect_graph)
            advect_graph.emplace(ctx, s, opts.ale, ale_work,
                                 advect_halo(ctx, s, ale_work, comm, sub,
                                             grads_halo, results_halo));
        remap_on(ctx, s, opts.ale, ale_work, comm, sub, *advect_graph);
    };
    // Every rank streams each closed window to rank 0 on tag 502 (rank 0
    // sends to itself through the same channel — one discipline).
    hooks.window = [&](const obs::WindowRecord& w) {
        comm.send(0, live_tag, obs::pack_window(w));
    };
    core::Stepper stepper(ctx, s, opts.ale, std::move(hooks),
                          sub.n_owned_cells, sub.node_owned);
    // Fresh runs start at zero; restarts continue the snapshot's clock,
    // so the remap cadence, dt_initial and max_steps behave as in the
    // serial restore.
    stepper.clock() = a.start != nullptr
                          ? core::Clock::of(*a.start)
                          : core::Clock{0.0, opts.hydro.dt_initial, 0.0, 0};
    if (run.telemetry)
        stepper.enable_telemetry(opts.telemetry, rank, rank_epoch);

    std::optional<LiveDrain> drain;
    if (run.live && rank == 0) drain.emplace(run, a, comm);
    const core::Clock& clock = stepper.clock();
    while (clock.t < opts.t_end * (Real(1.0) - eps) &&
           clock.steps < opts.max_steps) {
        // Record the step for failure reports and tick the fault plan's
        // kill-at-step trigger. Then the watchdog progress tick (one
        // relaxed store + one relaxed load): a poisoned rank — flagged as
        // stalled with escalation enabled — turns its silent hang into an
        // ordinary recoverable failure.
        comm.set_step(clock.steps);
        if (a.watchdog && a.watchdog->note_step(rank, clock.steps))
            throw obs::StallEscalated(rank);
        if (drain) drain->poll();
        const Real t_before = clock.t;
        stepper.step(opts.t_end);
        if (take_snapshots(run, a, comm, s, clock, t_before)) break;
    }
    if (drain) drain->finish(static_cast<long>(stepper.windows().size()));

    // Gather owned fields into the global result. Each global cell has
    // exactly one owner and each global node one owning rank, so the
    // writes are disjoint across rank threads.
    Result& result = run.result;
    for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
        const auto l = static_cast<std::size_t>(lc);
        const auto gc = static_cast<std::size_t>(sub.local.cell_id(lc));
        result.rho[gc] = s.rho[l];
        result.ein[gc] = s.ein[l];
    }
    for (std::size_t ln = 0; ln < sub.node_owned.size(); ++ln) {
        if (!sub.node_owned[ln]) continue;
        const auto gn = static_cast<std::size_t>(sub.local.node_ids[ln]);
        result.u[gn] = s.u[ln];
        result.v[gn] = s.v[ln];
        result.x[gn] = s.x[ln];
        result.y[gn] = s.y[ln];
    }
    if (rank == 0) a.clock = clock;

    // Telemetry gather (tag 501): every rank ships its step records and
    // kernel breakdown to rank 0 — the checkpoint gather's pattern, once,
    // after the field gather, so it cannot perturb the run it measures.
    if (!run.telemetry) return;
    auto record = stepper.rank_record(rank);
    record.epoch_us = std::chrono::duration<double, std::micro>(
                          rank_epoch - run.epoch)
                          .count();
    if (!a.crits.empty())
        a.crits[static_cast<std::size_t>(rank)] = std::move(record.critical);
    comm.send(0, telemetry_tag, obs::pack_rank(record));
    if (rank != 0) return;
    a.records.resize(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r)
        a.records[static_cast<std::size_t>(r)] =
            obs::unpack_rank(comm.recv(r, telemetry_tag));
}

/// Wire-format self-check: predict the run's point-to-point message count
/// from the Subdomain metadata. Only meaningful on an undisturbed
/// schedule — faults, recoveries and health-guard retries all
/// legitimately change the count.
obs::WireCheck check_wire(const Run& run, const Attempt& a,
                          const obs::RunReport& report) {
    const Options& opts = run.opts;
    long long retries = 0;
    for (const auto& r : report.ranks) {
        retries += static_cast<long long>(r.evicted.retries);
        for (const auto& s : r.steps) retries += s.retries;
    }
    obs::WireCheck wire;
    if (!run.result.recoveries.empty() || !opts.faults.empty() || retries > 0)
        return wire;
    const int n_mesh = opts.ale.mode == ale::Mode::ale
                           ? opts.ale.smoothing_passes + 1
                           : 0;
    long long expected = 0;
    for (int r = 0; r < a.n_ranks; ++r) {
        const auto& rr = report.ranks[static_cast<std::size_t>(r)];
        const auto& sub = a.subs[static_cast<std::size_t>(r)];
        // Step and remap counts over ALL steps, including the ones the
        // max_steps ring evicted into the aggregate.
        auto remaps = static_cast<long long>(rr.evicted.remaps);
        for (const auto& s : rr.steps)
            if (s.remapped) ++remaps;
        const auto n_steps = static_cast<long long>(rr.evicted.steps) +
                             static_cast<long long>(rr.steps.size());
        expected += static_cast<long long>(sub.messages_per_step()) * n_steps;
        expected +=
            static_cast<long long>(sub.messages_per_remap(n_mesh)) * remaps;
        // Plus the rank's tag-502 live-window sends.
        expected += static_cast<long long>(rr.windows.size());
    }
    // Plus one send per rank per checkpoint/ring gather, and one per rank
    // for the telemetry gather itself.
    expected += (a.gathers + 1) * a.n_ranks;
    const long long measured = run.result.traffic.messages;
    wire.checked = true;
    wire.expected = expected;
    wire.measured = measured;
    wire.match = expected == measured;
    if (!wire.match)
        util::log_warn("telemetry: wire-format drift — measured ", measured,
                       " point-to-point messages, metadata predicts ",
                       expected);
    return wire;
}

/// The run report of the successful attempt: the executed configuration,
/// the gathered per-rank records with what only the host holds attached,
/// every timestamp aligned onto the run epoch's timeline, and the wire
/// check.
obs::RunReport telemetry_report(const Run& run, Attempt& a) {
    const Options& opts = run.opts;
    const Result& result = run.result;
    obs::RunReport report;
    report.problem = opts.telemetry.label;
    report.label = opts.telemetry.label;
    report.mode = "distributed";
    report.n_ranks = a.n_ranks;
    report.steps = result.steps;
    report.t_final = result.t_final;
    report.wall_s = run.timer.elapsed();
    for (const auto& rec : result.recoveries)
        report.recoveries.push_back(event_of(rec));
    // The executed configuration, so the report reproduces the run without
    // the invoking script. task_block mirrors the per-rank Exec the rank
    // bodies build (automatic sizes).
    report.config.task_block = par::Exec{}.task_block;
    report.config.n_threads = opts.n_threads;
    report.config.n_ranks = a.n_ranks;
    report.work = perfmodel::telemetry_work_model(opts.n_threads);

    // Attach the Hub's per-peer send tallies and the trace/critical-path
    // spans (after a recovery the records cover the successful attempt
    // only — its traffic, its traces, its steps from the rollback point),
    // then shift every per-rank timestamp by that rank's epoch offset so
    // all tracks share the run epoch's timeline. (Aligning on rank 0
    // instead would push a rank that stamped its epoch before rank 0 did
    // to negative timestamps.)
    for (auto& rank : a.records) {
        const auto r = static_cast<std::size_t>(rank.rank);
        for (const auto& p : result.traffic.peers)
            if (p.src == rank.rank)
                rank.sent.push_back({p.dst, p.messages, p.reals});
        if (!a.traces.empty()) {
            rank.trace = std::move(a.traces[r]);
            rank.critical = std::move(a.crits[r]);
        }
        const double shift = rank.epoch_us;
        for (auto& step : rank.steps) step.start_us += shift;
        for (auto& span : rank.trace) span.t0_us += shift;
        for (auto& span : rank.critical) span.t0_us += shift;
    }
    report.ranks = std::move(a.records);
    report.imbalance = obs::imbalance_of(report.ranks);
    report.anomalies =
        obs::detect_anomalies(report, opts.telemetry.anomaly_factor);
    report.wire = check_wire(run, a, report);
    return report;
}

/// The shared driver body: the attempt supervisor. A fresh run passes its
/// initial conditions, a restart its snapshot.
///
/// Supervised mode (opts.supervise) wraps the run in an attempt loop: a
/// typhon::RankFailure — an injected kill or any real rank error — rolls
/// the run back to the newest ring snapshot (or the restart snapshot, or
/// the initial conditions), drops the failed rank, and re-runs partition/
/// decompose/typhon::run on the survivors. Because snapshots are
/// rank-count invariant and the owned-entity contract is bitwise at any
/// rank count, the recovered result is bitwise identical to an
/// uninterrupted run. Failed attempts leave no residue: every global
/// entity is owned by some rank at every rank count, so the successful
/// attempt's gather overwrites the result arrays completely, and
/// thread-join ordering makes the cross-attempt reuse race-free.
Result run_impl(const mesh::Mesh& global, const eos::MaterialTable& materials,
                const Options& opts, const ckpt::Snapshot* snap,
                const Initial* initial) {
    Run run(global, materials, opts, initial);
    Result& result = run.result;
    int ranks_now = opts.n_ranks;
    const ckpt::Snapshot* start = snap;
    ckpt::Snapshot rollback; // owns the ring snapshot a recovery resumes from

    for (int attempt = 0;; ++attempt) {
        Attempt a(run, attempt, ranks_now, start);
        // The fault plan is scripted per attempt: a kill recorded for
        // attempt 0 stays quiet during recovery re-runs. An empty plan
        // never touches the transport hot path (nullptr injector).
        typhon::FaultInjector injector(opts.faults, ranks_now, attempt);
        try {
            result.traffic = typhon::run(
                ranks_now,
                [&](typhon::Comm& comm) { rank_body(run, a, comm); },
                opts.faults.empty() ? nullptr : &injector);
        } catch (const typhon::RankFailure& failure) {
            if (!opts.supervise.enabled ||
                static_cast<int>(result.recoveries.size()) >=
                    opts.supervise.max_recoveries ||
                ranks_now <= 1)
                throw;
            // Roll back to the newest ring snapshot; with an empty ring the
            // run restarts from where this attempt began (the restart
            // snapshot or the initial conditions).
            if (!run.ring.empty()) {
                rollback = run.ring.back();
                start = &rollback;
            }
            Result::Recovery rec{failure.rank, failure.step,
                                 start != nullptr ? start->steps : 0,
                                 ranks_now - 1, failure.what()};
            run.live_stream.emit(obs::recovery_event(attempt, event_of(rec)));
            result.recoveries.push_back(std::move(rec));
            --ranks_now;
            if (opts.supervise.backoff_ms > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(opts.supervise.backoff_ms));
            continue;
        }

        result.steps = a.clock.steps;
        result.t_final = a.clock.t;
        result.profiles.resize(static_cast<std::size_t>(ranks_now));
        for (int r = 0; r < ranks_now; ++r)
            result.profiles[static_cast<std::size_t>(r)] =
                a.profilers[static_cast<std::size_t>(r)].snapshot();
        result.windows = std::move(a.windows);
        if (run.telemetry) {
            result.telemetry = telemetry_report(run, a);
            obs::write_outputs(opts.telemetry, result.telemetry);
        }
        run.live_stream.emit(obs::run_end_event(
            result.steps, result.t_final, run.timer.elapsed(),
            static_cast<long>(result.windows.size()), run.stalls.load(),
            static_cast<long>(result.recoveries.size())));
        return std::move(result);
    }
}

/// Shared argument checks of both run() entry points.
void check_options(const Options& opts) {
    util::require(opts.n_ranks >= 1, "dist::run: n_ranks must be >= 1");
    util::require(opts.n_threads >= 1, "dist::run: n_threads must be >= 1");
    util::require(opts.ale.mode == ale::Mode::lagrange ||
                      opts.ale.frequency >= 1,
                  "dist::run: ale frequency must be >= 1");
}

} // namespace

Result run(const mesh::Mesh& global, const eos::MaterialTable& materials,
           const std::vector<Real>& rho, const std::vector<Real>& ein,
           const std::vector<Real>& u, const std::vector<Real>& v,
           const Options& opts) {
    check_options(opts);
    util::require(rho.size() == static_cast<std::size_t>(global.n_cells()) &&
                      ein.size() == rho.size(),
                  "dist::run: cell field size mismatch");
    util::require(u.size() == static_cast<std::size_t>(global.n_nodes()) &&
                      v.size() == u.size(),
                  "dist::run: node field size mismatch");
    const Initial initial{rho, ein, u, v};
    return run_impl(global, materials, opts, nullptr, &initial);
}

Result run(const mesh::Mesh& global, const eos::MaterialTable& materials,
           const ckpt::Snapshot& snapshot, const Options& opts) {
    check_options(opts);
    if (snapshot.mesh_hash != ckpt::mesh_hash(global))
        throw util::Error(
            "dist::run: checkpoint/deck mismatch — the snapshot was written "
            "for a different mesh");
    util::require(snapshot.n_nodes() == global.n_nodes() &&
                      snapshot.n_cells() == global.n_cells(),
                  "dist::run: snapshot entity counts disagree with the mesh");
    return run_impl(global, materials, opts, &snapshot, nullptr);
}

bool bitwise_equal(const Result& a, const Result& b) {
    return a.steps == b.steps && a.rho == b.rho && a.ein == b.ein &&
           a.u == b.u && a.v == b.v && a.x == b.x && a.y == b.y;
}

} // namespace bookleaf::dist
