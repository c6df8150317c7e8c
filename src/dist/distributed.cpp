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
/// Two schedules implement the step. The *blocking* schedule is the
/// paper's: reduce, exchange, compute, exchange, compute. The *overlap*
/// schedule (default, Options::overlap) posts each exchange through
/// typhon's request layer and runs the interior work — cells whose
/// stencils see no halo-refreshed data, nodes whose assembly reads no
/// ghost corner — while the messages are in flight; only the boundary
/// finish waits. The dt min-reduction is likewise posted nonblocking
/// before the pre-step halo and finished just before the predictor
/// consumes dt. Because every kernel piece involved is per-item
/// independent, the exchanged bytes are identical and the reduction is
/// rank-order deterministic, the two schedules are bitwise identical at
/// every rank count — for either halo wire format (Options::packing:
/// one coalesced message per peer, or the per-field ablation).

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

#include "core/stepper.hpp"
#include "par/task_graph.hpp"
#include "perfmodel/calibrate.hpp"
#include "part/subdomain.hpp"
#include "typhon/fault.hpp"
#include "typhon/typhon.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace bookleaf::dist {

namespace {

/// Copy the step-start snapshot the predictor/corrector rewind to.
void snapshot(const hydro::Context& ctx, hydro::State& s) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::other);
    s.x0 = s.x;
    s.y0 = s.y;
    s.u0 = s.u;
    s.v0 = s.v;
    s.ein0 = s.ein;
}

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

// ---------------------------------------------------------------------------
// Blocking schedule (ablation baseline, Options::overlap = false)
// ---------------------------------------------------------------------------

/// The fused pre-step state halo: node kinematics {x, y, u, v} and ghost
/// internal energy {ein} as ONE wire exchange — where a peer appears in
/// both schedules (the common case: a rank owning our ghost cells
/// usually owns nodes of ours too) the coalesced packing ships a single
/// message carrying both groups' slices, collapsing the per-step
/// pre-exchange from two messages per peer to one.
[[nodiscard]] typhon::PendingExchange
start_state_halo(hydro::State& s, typhon::Comm& comm,
                 const part::Subdomain& sub, typhon::Packing packing) {
    // Field lists and the Subdomain wire-format metadata must change
    // together (messages_per_step's accounting rests on them).
    static_assert(part::Subdomain::node_exchange_fields == 4 &&
                  part::Subdomain::cell_exchange_fields == 1);
    const std::array<typhon::FieldGroup, 2> groups{
        typhon::FieldGroup{&sub.node_schedule, {std::span<Real>(s.x),
                                                std::span<Real>(s.y),
                                                std::span<Real>(s.u),
                                                std::span<Real>(s.v)}},
        typhon::FieldGroup{&sub.cell_schedule, {std::span<Real>(s.ein)}}};
    return typhon::exchange_start(comm, groups, 100, packing);
}

/// Pre-step halo: refresh ghost node kinematics and ghost internal energy,
/// then rebuild the ghost dependent state.
void refresh_ghosts(const hydro::Context& ctx, hydro::State& s,
                    typhon::Comm& comm, const part::Subdomain& sub,
                    typhon::Packing packing) {
    blocking_halo(ctx, [&] { return start_state_halo(s, comm, sub, packing); });
    rebuild_ghost_state(ctx, s, sub);
}

/// One rank's Lagrangian step with the mid-step corner-force exchange.
/// Mirrors hydro::lagstep exactly, with typhon traffic inserted where the
/// paper's Algorithm 1 places it.
void dist_lagstep(const hydro::Context& ctx, hydro::State& s, Real dt,
                  typhon::Comm& comm, const part::Subdomain& sub,
                  typhon::Packing packing) {
    snapshot(ctx, s);
    const Real half_dt = Real(0.5) * dt;

    // --- predictor ---------------------------------------------------------
    hydro::getq(ctx, s);
    hydro::getforce(ctx, s);
    hydro::getgeom(ctx, s, s.u0, s.v0, half_dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.u0, s.v0, half_dt);
    hydro::getpc(ctx, s);

    // --- corrector ----------------------------------------------------------
    hydro::getq(ctx, s);
    hydro::getforce(ctx, s);
    // Pre-acceleration halo: ghost corner forces from their owners. After
    // this, the gather at any node of an owned cell sees exactly the
    // corner forces a serial run would.
    static_assert(part::Subdomain::corner_exchange_fields == 2);
    blocking_halo(ctx, [&] {
        return typhon::exchange_start(comm, sub.corner_schedule,
                                      {s.fx, s.fy}, 200, packing);
    });
    hydro::getacc(ctx, s, dt);
    hydro::getgeom(ctx, s, s.ubar, s.vbar, dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.ubar, s.vbar, dt);
    hydro::getpc(ctx, s);
}

// ---------------------------------------------------------------------------
// Overlap schedule (default): halo exchanges hide behind interior work
// ---------------------------------------------------------------------------

/// One step with both exchanges overlapped, plus the dt reduction. Covers
/// getdt's reduce + refresh + lagstep: the global min-reduce of
/// `dt_local` is posted nonblocking *before* the pre-step state exchange
/// (the exchanged bytes do not depend on dt) and finished only when the
/// predictor is about to consume dt, where `settle` turns the agreed
/// value into the dt the step uses; the state exchange spans into the
/// predictor and the corner-force exchange spans the corrector's interior
/// viscosity/force/assembly work.
/// Note on profiles: each subrange piece charges the profiler separately,
/// so per-kernel *call counts* differ from the blocking schedule (e.g.
/// two getq calls per sweep instead of one, halo split into post and
/// finish scopes, reduce split into post and wait); the wall-second
/// buckets remain comparable and are what the overlap ablation reports.
void overlap_step(const hydro::Context& ctx, hydro::State& s, Real dt_local,
                  bool reduce, const core::Stepper::Settle& settle,
                  typhon::Comm& comm, const part::Subdomain& sub,
                  typhon::Packing packing) {
    const std::span<const Index> interior(sub.interior_cells);
    const std::span<const Index> boundary(sub.boundary_cells);

    // --- dt reduce + pre-step state halo, overlapped with the interior
    // predictor. The reduce is posted first: every rank's contribution is
    // this step's local controller value, the result is the deterministic
    // rank-ordered min (bitwise what the blocking allreduce returns), and
    // nothing before the first half_dt use reads dt — so the collective
    // rides for free under the state exchange. Sends pack owned values,
    // so they post immediately; interior cells read no halo node, no
    // ghost state and no snapshot array, so running their predictor
    // viscosity/forces here computes bit-for-bit what the blocking
    // schedule computes after the exchange.
    typhon::CollRequest dt_reduce;
    if (reduce) {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::reduce);
        dt_reduce = comm.iallreduce_min(dt_local);
    }
    typhon::PendingExchange state_halo;
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        state_halo = start_state_halo(s, comm, sub, packing);
    }
    hydro::getq(ctx, s, interior);
    hydro::getforce(ctx, s, interior);
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        state_halo.finish(ctx.profiler);
    }
    rebuild_ghost_state(ctx, s, sub);
    snapshot(ctx, s);

    // The predictor consumes dt from here on: finish the reduce.
    Real dt_agreed = dt_local;
    if (reduce) {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::reduce);
        const util::ScopedTimer wait(*ctx.profiler, util::Kernel::reduce_wait);
        dt_agreed = dt_reduce.wait();
    }
    const Real dt = settle(dt_agreed);
    const Real half_dt = Real(0.5) * dt;

    // --- predictor boundary finish + whole-range remainder ------------------
    hydro::getq(ctx, s, boundary);
    hydro::getforce(ctx, s, boundary);
    hydro::getgeom(ctx, s, s.u0, s.v0, half_dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.u0, s.v0, half_dt);
    hydro::getpc(ctx, s);

    // --- corrector: corner-force halo behind interior work ------------------
    // Boundary cells first (they contain every corner the peers need),
    // post the sends, then interior cells and the interior nodal assembly
    // proceed while the messages fly; only the boundary assembly waits.
    hydro::getq(ctx, s, boundary);
    hydro::getforce(ctx, s, boundary);
    typhon::PendingExchange corner_halo;
    {
        static_assert(part::Subdomain::corner_exchange_fields == 2);
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        corner_halo = typhon::exchange_start(comm, sub.corner_schedule,
                                             {s.fx, s.fy}, 200, packing);
    }
    hydro::getq(ctx, s, interior);
    hydro::getforce(ctx, s, interior);
    hydro::getacc_assemble(ctx, s, sub.interior_nodes);
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        corner_halo.finish(ctx.profiler);
    }
    hydro::getacc_assemble(ctx, s, sub.boundary_nodes);
    hydro::getacc_advance(ctx, s, dt);
    hydro::getgeom(ctx, s, s.ubar, s.vbar, dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.ubar, s.vbar, dt);
    hydro::getpc(ctx, s);
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
/// owned items in ascending local (= ascending global) order.
std::vector<Real> pack_owned(const part::Subdomain& sub,
                             const hydro::State& s) {
    std::vector<Real> out;
    const auto owned_nodes = static_cast<std::size_t>(sub.n_owned_nodes());
    const auto owned_cells = static_cast<std::size_t>(sub.n_owned_cells);
    out.reserve(5 * owned_nodes + (4 + corners_per_cell) * owned_cells);
    const auto nodes = [&](std::span<const Real> f) {
        for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln)
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
/// (the exact inverse of pack_owned, routed through the subdomain's
/// local->global maps).
void unpack_owned(const part::Subdomain& sub, std::span<const Real> payload,
                  ckpt::Snapshot& snap) {
    std::size_t pos = 0;
    const auto nodes = [&](std::vector<Real>& f) {
        for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln)
            if (sub.node_owned[ln])
                f[static_cast<std::size_t>(sub.local_nodes[ln])] =
                    payload[pos++];
    };
    nodes(snap.x);
    nodes(snap.y);
    nodes(snap.u);
    nodes(snap.v);
    nodes(snap.node_mass);
    const auto cells = [&](std::vector<Real>& f) {
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
            f[static_cast<std::size_t>(
                sub.local_cells[static_cast<std::size_t>(lc)])] =
                payload[pos++];
    };
    cells(snap.rho);
    cells(snap.ein);
    cells(snap.q);
    cells(snap.cell_mass);
    for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
        const Index gc = sub.local_cells[static_cast<std::size_t>(lc)];
        for (int k = 0; k < corners_per_cell; ++k)
            snap.cnmass[hydro::State::cidx(gc, k)] = payload[pos++];
    }
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
    for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln) {
        const auto gn = static_cast<std::size_t>(sub.local_nodes[ln]);
        s.x[ln] = snap.x[gn];
        s.y[ln] = snap.y[gn];
        s.u[ln] = snap.u[gn];
        s.v[ln] = snap.v[gn];
        s.node_mass[ln] = snap.node_mass[gn];
    }
    for (std::size_t lc = 0; lc < sub.local_cells.size(); ++lc) {
        const auto gc = static_cast<std::size_t>(sub.local_cells[lc]);
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

/// Remap phases 3b-4 as a task graph (per-rank pool + taskgraph schedule):
/// the ghost-gradient exchange finish becomes a main-thread graph node, so
/// *interior* face fluxes — both sides owned, gradients locally exact —
/// compute while the exchange is in flight, and only the *frontier* face
/// blocks (those reading a ghost gradient) are released by the finish.
/// Cell and dual sweeps join per-block as soon as their own four faces'
/// flux blocks are done. Bitwise identical to the blocking sequence: the
/// interior/frontier split only reorders per-face-independent work, the
/// prelude zero-fill is the same bytes the blocking overloads assign, and
/// every task writes disjoint slots.
///
/// The face split, the per-block dependencies and the tasks are constants
/// of the subdomain and the execution policy: the rank body builds the
/// graph on an attempt's first remap and re-runs it on every remap after
/// that (a recovery attempt, on new subdomains, builds its own).
class FluxGraph {
public:
    /// The context is copied (task bodies get a serialized one); the
    /// state, options, workspace, comm and subdomain must outlive the
    /// graph. The build is charged to Kernel::other.
    FluxGraph(const hydro::Context& ctx, hydro::State& s,
              const ale::Options& ale, ale::Workspace& w, typhon::Comm& comm,
              const part::Subdomain& sub, typhon::Packing packing);
    /// Task bodies hold the addresses of this object's members.
    FluxGraph(const FluxGraph&) = delete;
    FluxGraph& operator=(const FluxGraph&) = delete;

    /// Post the ghost-gradient exchange and run the fluxes, cell and dual
    /// sweeps of one remap.
    void run();

private:
    void build();

    par::Exec run_exec_; ///< scheduling policy (owns the pool pointer)
    hydro::Context ctx_; ///< body context: exec serialized (pool == nullptr)
    hydro::State& s_;
    const ale::Options& ale_;
    ale::Workspace& w_;
    typhon::Comm& comm_;
    const part::Subdomain& sub_;
    typhon::Packing packing_;
    /// The remap faces split by whether they read a ghost gradient; the
    /// flux tasks hold spans into them.
    std::vector<Index> interior_, frontier_;
    /// The in-flight ghost-gradient exchange the finish task completes.
    typhon::PendingExchange grads_;
    std::atomic<long> floored_{0}; ///< corner masses floored this run
    par::TaskGraph graph_;
};

FluxGraph::FluxGraph(const hydro::Context& ctx, hydro::State& s,
                     const ale::Options& ale, ale::Workspace& w,
                     typhon::Comm& comm, const part::Subdomain& sub,
                     typhon::Packing packing)
    : run_exec_(ctx.exec), ctx_(ctx), s_(s), ale_(ale), w_(w), comm_(comm),
      sub_(sub), packing_(packing) {
    // Task bodies run the serial kernel paths (no nested pool dispatch).
    ctx_.exec.pool = nullptr;
    const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::other);
    build();
}

void FluxGraph::build() {
    const auto& mesh = *ctx_.mesh;
    const Index n_owned = sub_.n_owned_cells;

    // Split the remap faces: a frontier face touches a ghost cell, so its
    // donor reconstruction may read an exchanged gradient; interior faces
    // read locally-computed gradients only. Boundary faces have no right
    // cell and classify by their left cell alone.
    interior_.reserve(sub_.remap_faces.size());
    for (const Index f : sub_.remap_faces) {
        const auto& face = mesh.faces[static_cast<std::size_t>(f)];
        const bool ghost = face.left >= n_owned ||
                           (face.right != no_index && face.right >= n_owned);
        (ghost ? frontier_ : interior_).push_back(f);
    }

    const par::TaskId t_finish = graph_.add(
        [this] {
            const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::halo);
            grads_.finish(ctx_.profiler);
        },
        /*main_thread=*/true, // comm endpoints are per-rank-thread
        util::Kernel::halo);

    // Flux tasks over chunks of the face lists; face -> task for the
    // cell/dual dependencies.
    std::vector<par::TaskId> task_of_face(mesh.faces.size(), par::TaskId{-1});
    const Index n_faces = static_cast<Index>(sub_.remap_faces.size());
    const Index fchunk = par::detail::resolve_task_block(run_exec_, n_faces);
    auto add_flux_chunks = [&](const std::vector<Index>& faces,
                               bool needs_ghosts) {
        for (std::size_t at = 0; at < faces.size();
             at += static_cast<std::size_t>(fchunk)) {
            const auto len = std::min(static_cast<std::size_t>(fchunk),
                                      faces.size() - at);
            const std::span<const Index> chunk(faces.data() + at, len);
            const par::TaskId t = graph_.add(
                [this, chunk] {
                    ale::aleadvect_fluxes_chunk(ctx_, s_, ale_, w_, chunk);
                },
                false, util::Kernel::ale_fluxes);
            if (needs_ghosts) graph_.depend(t, t_finish);
            for (const Index f : chunk)
                task_of_face[static_cast<std::size_t>(f)] = t;
        }
    };
    add_flux_chunks(interior_, /*needs_ghosts=*/false);
    add_flux_chunks(frontier_, /*needs_ghosts=*/true);

    // Cell and dual sweeps over owned-cell blocks, each gated only on the
    // flux tasks of its cells' own faces (unlisted faces keep the prelude
    // zero and gate nothing).
    const Index cblock = par::detail::resolve_task_block(run_exec_, n_owned);
    std::vector<par::TaskId> deps;
    for (Index begin = 0; begin < n_owned; begin += cblock) {
        const Index end = std::min(n_owned, begin + cblock);
        deps.clear();
        for (Index c = begin; c < end; ++c)
            for (int k = 0; k < corners_per_cell; ++k) {
                const par::TaskId t =
                    task_of_face[static_cast<std::size_t>(mesh.face_of(c, k))];
                if (t >= 0) deps.push_back(t);
            }
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        const par::TaskId t_cells = graph_.add(
            [this, begin, end] {
                ale::aleadvect_cells(ctx_, s_, w_, begin, end);
            },
            false, util::Kernel::ale_cells);
        const par::TaskId t_dual = graph_.add(
            [this, begin, end] {
                ale::aleadvect_dual(ctx_, s_, w_, begin, end, floored_);
            },
            false, util::Kernel::ale_dual);
        for (const par::TaskId d : deps) {
            graph_.depend(t_cells, d);
            graph_.depend(t_dual, d);
        }
    }
}

void FluxGraph::run() {
    const auto& mesh = *ctx_.mesh;
    // Prelude: the exact zero state the blocking overloads assign (ghost
    // dflux slots the result exchange does not cover must read zero, as
    // they do on the blocking schedule).
    {
        const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::aleadvect);
        w_.mflux.assign(mesh.faces.size(), 0.0);
        w_.eflux.assign(mesh.faces.size(), 0.0);
        w_.dflux.assign(
            static_cast<std::size_t>(mesh.n_cells()) * corners_per_cell, 0.0);
    }

    // Post the ghost-gradient exchange; the graph's finish task completes
    // it.
    static_assert(part::Subdomain::remap_grad_fields == 4);
    {
        const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx_.profiler, util::Kernel::halo_pack);
        grads_ = typhon::exchange_start(comm_, sub_.remap_cell_schedule,
                                        {w_.grad_rho_x, w_.grad_rho_y,
                                         w_.grad_e_x, w_.grad_e_y},
                                        320, packing_);
    }

    floored_.store(0);
    graph_.run(run_exec_, ctx_.profiler, ctx_.graph_log);
    if (floored_.load() > 0)
        util::log_warn("aleadvect: floored ", floored_.load(),
                       " negative corner masses");
}

/// The ghost-aware remap (see dist::remap) with phases 3b-4 on `graph`
/// when the rank holds one, or on the blocking sequence when it is null.
void remap_on(const hydro::Context& ctx, hydro::State& s,
              const ale::Options& ale, ale::Workspace& w, typhon::Comm& comm,
              const part::Subdomain& sub, typhon::Packing packing,
              FluxGraph* graph) {
    // 1. Pre-remap state refresh: the corrector left ghost kinematics and
    // energy stale (fringe assemblies are incomplete); the remap reads
    // them everywhere, so run the same fused halo + ghost rebuild the
    // next step would.
    refresh_ghosts(ctx, s, comm, sub, packing);

    // 2. Target mesh. ALE smoothing needs one node-position halo per
    // Jacobi pass (and one after the clamp): a fringe node's local
    // adjacency is incomplete, so its owner's value overwrites it before
    // the next pass reads it. Eulerian targets are exact locally.
    if (ale.mode == ale::Mode::ale) {
        static_assert(part::Subdomain::remap_mesh_fields == 2);
        ale::alegetmesh(ctx, s, ale, w,
                        [&](std::vector<Real>& xt, std::vector<Real>& yt) {
                            blocking_halo(ctx, [&] {
                                return typhon::exchange_start(
                                    comm, sub.node_schedule, {xt, yt}, 300,
                                    packing);
                            });
                        });
    } else {
        ale::alegetmesh(ctx, s, ale, w);
    }

    // 3. Swept volumes on the faces this rank remaps (owned-incident; a
    // ghost cell's far face is phantom here and is never evaluated), then
    // gradients for owned cells and the ghost-gradient exchange: limited
    // reconstruction at a boundary cell reads its face-adjacent ghosts'
    // gradients, which only their owner can compute with a full stencil.
    ale::alegetfvol(ctx, s, w, sub.remap_faces);
    ale::aleadvect_centroids(ctx, s, w);
    ale::aleadvect_gradients(ctx, s, ale, w, sub.n_owned_cells);

    if (graph != nullptr) {
        // 4. (graph) The exchange finish releases only the ghost-touching
        // face blocks; interior fluxes and per-block cell/dual sweeps
        // overlap the in-flight messages. Bitwise == the blocking branch.
        graph->run();
    } else {
        static_assert(part::Subdomain::remap_grad_fields == 4);
        blocking_halo(ctx, [&] {
            return typhon::exchange_start(comm, sub.remap_cell_schedule,
                                          {w.grad_rho_x, w.grad_rho_y,
                                           w.grad_e_x, w.grad_e_y},
                                          320, packing);
        });

        // 4. Fluxes on the remap faces; cell and dual sweeps over owned
        // cells.
        ale::aleadvect_fluxes(ctx, s, ale, w, sub.remap_faces);
        ale::aleadvect_cells(ctx, s, w, sub.n_owned_cells);
        ale::aleadvect_dual(ctx, s, w, sub.n_owned_cells);
    }

    // 5. Fused result exchange: ghost cell results {cell_mass, ein} (the
    // next steps' ghost rebuild divides cell_mass by volume) and ghost
    // dual-mesh results {cnmass, dflux} — the acceleration assembly reads
    // ghost corner masses every step, and the nodal remap below needs the
    // dual fluxes of ghost cells, which their far faces make impossible
    // to compute here.
    static_assert(part::Subdomain::remap_cell_result_fields == 2 &&
                  part::Subdomain::remap_dual_fields == 2);
    const std::array<typhon::FieldGroup, 2> results{
        typhon::FieldGroup{&sub.cell_schedule, {std::span<Real>(s.cell_mass),
                                                std::span<Real>(s.ein)}},
        typhon::FieldGroup{&sub.remap_dual_schedule,
                           {std::span<Real>(s.cnmass),
                            std::span<Real>(w.dflux)}}};
    blocking_halo(ctx, [&] {
        return typhon::exchange_start(comm, results, 340, packing);
    });

    // 6. Nodal (dual-mesh) remap over the stencil-complete nodes, then
    // move everything onto the target mesh and rebuild the dependent
    // state — all inputs are exact on every local entity by now, so the
    // full-range update is bitwise-serial even on ghosts.
    ale::aleadvect_nodes(ctx, s, w, sub.remap_nodes);
    ale::aleupdate(ctx, s, w);
}

} // namespace

void remap(const hydro::Context& ctx, hydro::State& s, const ale::Options& ale,
           ale::Workspace& w, typhon::Comm& comm, const part::Subdomain& sub,
           typhon::Packing packing) {
    remap_on(ctx, s, ale, w, comm, sub, packing, nullptr);
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
    /// against that rank's own epoch (aligned onto rank 0's timeline by
    /// the report).
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
    // tag-501 gather so rank 0 can align all records onto its own
    // timeline (what a real MPI run must do, since node clocks share no
    // origin).
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
    exec.schedule = opts.schedule;
    if (opts.n_threads > 1) {
        pool = std::make_unique<par::ThreadPool>(opts.n_threads);
        exec.pool = pool.get();
    }

    hydro::State s = hydro::allocate(sub.local, exec);
    if (a.start != nullptr) {
        restore_rank_state(sub, run.materials, *a.start, s);
    } else {
        for (std::size_t lc = 0; lc < sub.local_cells.size(); ++lc) {
            const auto gc = static_cast<std::size_t>(sub.local_cells[lc]);
            s.rho[lc] = run.initial->rho[gc];
            s.ein[lc] = run.initial->ein[gc];
        }
        for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln) {
            const auto gn = static_cast<std::size_t>(sub.local_nodes[ln]);
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
    // Corner gathers in serial deposition order (bitwise == serial).
    ctx.assembly_corners = &sub.assembly_corners;
    ale::Workspace ale_work;
    // The remap-flux graph (pool + taskgraph schedule), built on this
    // attempt's first remap and re-run on every remap after it.
    std::optional<FluxGraph> flux_graph;

    core::Stepper::Hooks hooks;
    hooks.advance = [&](Real dt_local, bool reduce,
                        const core::Stepper::Settle& settle) {
        if (opts.overlap) {
            overlap_step(ctx, s, dt_local, reduce, settle, comm, sub,
                         opts.packing);
            return;
        }
        const Real dt =
            settle(reduce ? timed_min(comm, profiler, dt_local) : dt_local);
        refresh_ghosts(ctx, s, comm, sub, opts.packing);
        dist_lagstep(ctx, s, dt, comm, sub, opts.packing);
    };
    // Every rank checks its owned entities (their union is the global set
    // and owned bytes are bitwise-serial), so the min-reduced verdict is
    // the serial driver's. The reduce is a collective: a healthy run's
    // point-to-point message count is untouched.
    hooks.agree = [&](bool ok) {
        return timed_min(comm, profiler, ok ? Real(1.0) : Real(0.0)) >
               Real(0.5);
    };
    // Retries replay the step on the blocking schedule (bitwise == overlap
    // by contract).
    hooks.retake = [&](Real dt) {
        refresh_ghosts(ctx, s, comm, sub, opts.packing);
        dist_lagstep(ctx, s, dt, comm, sub, opts.packing);
    };
    hooks.remap = [&] {
        if (!flux_graph && exec.threaded() &&
            exec.schedule == par::Schedule::taskgraph)
            flux_graph.emplace(ctx, s, opts.ale, ale_work, comm, sub,
                               opts.packing);
        remap_on(ctx, s, opts.ale, ale_work, comm, sub, opts.packing,
                 flux_graph ? &*flux_graph : nullptr);
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
        const auto gc = static_cast<std::size_t>(sub.local_cells[l]);
        result.rho[gc] = s.rho[l];
        result.ein[gc] = s.ein[l];
    }
    for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln) {
        if (!sub.node_owned[ln]) continue;
        const auto gn = static_cast<std::size_t>(sub.local_nodes[ln]);
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
        expected += static_cast<long long>(
                        sub.messages_per_step(opts.packing)) *
                    n_steps;
        expected += static_cast<long long>(
                        sub.messages_per_remap(opts.packing, n_mesh)) *
                    remaps;
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
/// every timestamp aligned onto rank 0's timeline, and the wire check.
obs::RunReport telemetry_report(const Run& run, Attempt& a) {
    const Options& opts = run.opts;
    const Result& result = run.result;
    obs::RunReport report;
    report.problem = opts.telemetry.label;
    report.label = opts.telemetry.label;
    report.mode = "distributed";
    report.n_ranks = a.n_ranks;
    report.overlap = opts.overlap;
    report.packing = opts.packing == typhon::Packing::coalesced ? "coalesced"
                                                                 : "per_field";
    report.steps = result.steps;
    report.t_final = result.t_final;
    report.wall_s = run.timer.elapsed();
    for (const auto& rec : result.recoveries)
        report.recoveries.push_back(event_of(rec));
    // The executed configuration, so the report reproduces the run without
    // the invoking script. task_block mirrors the per-rank Exec the rank
    // bodies build (default blocking).
    report.config.schedule = opts.schedule == par::Schedule::taskgraph
                                 ? "taskgraph"
                                 : "forkjoin";
    report.config.task_block = par::Exec{}.task_block;
    report.config.grain = par::Exec{}.grain;
    report.config.n_threads = opts.n_threads;
    report.config.n_ranks = a.n_ranks;
    report.config.overlap = opts.overlap;
    report.config.packing = report.packing;
    report.work = perfmodel::telemetry_work_model(opts.n_threads);

    // Attach the Hub's per-peer send tallies and the trace/critical-path
    // spans (after a recovery the records cover the successful attempt
    // only — its traffic, its traces, its steps from the rollback point),
    // then shift every per-rank timestamp by that rank's epoch offset so
    // all tracks share rank 0's timeline.
    const double epoch0 = a.records.empty() ? 0.0 : a.records[0].epoch_us;
    for (auto& rank : a.records) {
        const auto r = static_cast<std::size_t>(rank.rank);
        for (const auto& p : result.traffic.peers)
            if (p.src == rank.rank)
                rank.sent.push_back({p.dst, p.messages, p.reals});
        if (!a.traces.empty()) {
            rank.trace = std::move(a.traces[r]);
            rank.critical = std::move(a.crits[r]);
        }
        const double shift = rank.epoch_us - epoch0;
        for (auto& step : rank.steps) step.start_us += shift;
        for (auto& span : rank.trace) span.t0_us += shift;
        for (auto& span : rank.critical) span.t0_us += shift;
        rank.epoch_us = shift;
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
