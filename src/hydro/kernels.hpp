#pragma once
/// \file kernels.hpp
/// The hydrodynamics kernels, named after the reference BookLeaf routines
/// (Algorithm 1 in the paper). Each kernel charges its wall time to the
/// profiler under the matching Kernel id, which is what the Table II
/// bench aggregates. The step that sequences them is hydro::StepGraph
/// (stepgraph.hpp), the one LAGSTEP both drivers run.

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

#include "eos/eos.hpp"
#include "hydro/options.hpp"
#include "hydro/state.hpp"
#include "mesh/mesh.hpp"
#include "par/exec.hpp"
#include "util/profiler.hpp"

namespace bookleaf::par {
struct GraphRunLog;
} // namespace bookleaf::par

namespace bookleaf::hydro {

/// Everything a kernel needs besides the state: mesh topology, materials,
/// options, execution policy, profiler, the distributed run's owned-cell
/// count and the drivers' optional graph-run collector. No driver state
/// lives here: the task graphs that sequence the kernels
/// (hydro::StepGraph, ale::AdvectGraph) copy the context. Every
/// corner->node gather (the acceleration assembly, the dual-mesh remap)
/// reads mesh->node_corners, whose rows follow the canonical ids: the
/// serial deposition order on any storage order and on every subdomain.
struct Context {
    const mesh::Mesh* mesh = nullptr;
    const eos::MaterialTable* materials = nullptr;
    Options opts;
    par::Exec exec;
    /// Kernels charge this unconditionally; the default keeps bare
    /// (hand-built) contexts safe. Drivers overwrite it with their own
    /// per-run instance so concurrent runs never share stats.
    util::Profiler* profiler = &util::default_profiler();
    /// Distributed runs: number of *owned* cells (owned-first ordering).
    /// getdt reduces over these only, so the post-reduction global dt is
    /// identical to a serial run; no_index means "all cells".
    Index dt_cells = no_index;
    /// Attribution collector: when the owning driver runs with telemetry
    /// active it attaches a par::GraphRunLog here and every task-graph
    /// execution (step graph, ALE advection graph) appends its per-task
    /// spans + edges for obs::critical_path.
    /// Graphs copy the context when built, so the driver attaches the
    /// collector before building any. nullptr (the default, and all
    /// telemetry-off runs) records nothing.
    par::GraphRunLog* graph_log = nullptr;
};

/// Which of a step's two getq calls is running.
///
/// Invariant of the step (hydro::StepGraph, the one step shape of both
/// drivers): no velocity (u, v) is written between a cell's predictor
/// getq and its corrector getq. The limiter depends only on u, v and
/// topology, so the predictor stores it in State::psi and the corrector
/// reads it back instead of recomputing it.
enum class Phase {
    predictor, ///< computes and stores every compressing edge's limiter
    corrector  ///< reuses the predictor's limiters; same bytes as recomputing
};

// ---------------------------------------------------------------------------
// The kernels, one form each: a *serial* loop over the entities
// [begin, end) of one block. hydro::StepGraph runs them as (kernel, block)
// tasks — parallelism comes from running many blocks at once — and each
// writes only its own block's slots, so any disjoint cover of a range,
// run in any order, is bitwise identical to one sweep over [0, n). Every
// call charges its kernel's profiler slot with the entities it sweeps
// (concurrent block scopes sum to CPU seconds, not wall).
// ---------------------------------------------------------------------------

/// Edge-centred monotonic artificial viscosity (Caramana-Shashkov-Whalen
/// [28]) over cells [begin, end). Writes the viscous corner forces (qfx,
/// qfy), the cell viscosity scalar q and, in the predictor, the limiters
/// (psi). Reads the velocities of the cells' nodes and of their
/// face-neighbours' nodes: in distributed runs this is the kernel behind
/// the pre-step state halo. A corrector call must follow the predictor
/// call of the same step over the same cells with no velocity write in
/// between (see Phase); a lone call is a predictor.
void getq(const Context& ctx, State& s, Index begin, Index end,
          Phase phase = Phase::predictor);
/// Total corner forces over cells [begin, end): pressure gradient +
/// sub-zonal pressures + hourglass filter + the viscous forces computed
/// by getq.
void getforce(const Context& ctx, State& s, Index begin, Index end);
/// The node-move half of GETGEOM over nodes [begin, end): x = x0 +
/// w * dt_move.
void getgeom_move(const Context& ctx, State& s, std::span<const Real> wu,
                  std::span<const Real> wv, Real dt_move, Index begin,
                  Index end);
/// The cell-geometry half of GETGEOM over cells [begin, end): volumes,
/// corner volumes, characteristic lengths and the gathered-geometry
/// cache. A tangled cell's canonical id is recorded in `bad_cell` (lowest
/// id wins) instead of throwing; the caller owns the throw decision
/// (StepGraph's check task throws unless health guards are on).
void getgeom_cells(const Context& ctx, State& s, Index begin, Index end,
                   std::atomic<Index>& bad_cell);
/// Density from constant Lagrangian cell mass, rho = m / V, over cells
/// [begin, end).
void getrho(const Context& ctx, State& s, Index begin, Index end);
/// Compatible internal-energy update over cells [begin, end):
///   ein = ein0 - dt_eff * sum_i(f_i . w_i) / cell_mass
/// using the *total* corner forces (pressure + sub-zonal + hourglass +
/// viscous), which is what makes total energy conservation exact.
void getein(const Context& ctx, State& s, std::span<const Real> wu,
            std::span<const Real> wv, Real dt_eff, Index begin, Index end);
/// EoS evaluation over cells [begin, end): pressure and squared sound
/// speed.
void getpc(const Context& ctx, State& s, Index begin, Index end);

/// GETACC in three node-block pieces, with apply_velocity_bc between
/// them. `getacc_assemble` gathers the nodal mass and force of nodes
/// [begin, end) over the mesh's node->(cell, corner) CSR: each node sums
/// its incident corners in ascending canonical corner id, the order the
/// paper's serial scatter (§IV-B) deposits them, so the gather is that
/// scatter's bytes at any thread count with no race. It is the piece
/// that charges the kernel's items (each node once per call).
void getacc_assemble(const Context& ctx, State& s, Index begin, Index end);
/// The velocity advance u = u0 + dt * f / m over nodes [begin, end); must
/// follow the assembly of the same nodes. The boundary conditions are
/// applied after every block (apply_velocity_bc).
void getacc_advance_velocity(const Context& ctx, State& s, Real dt,
                             Index begin, Index end);
/// The time-centred velocities ubar = (u0 + u) / 2 over nodes
/// [begin, end), after the boundary conditions on u; the conditions are
/// applied to ubar again after every block.
void getacc_centered(const Context& ctx, State& s, Index begin, Index end);

/// Timestep-controller result. `reason` names the active constraint and
/// `cell` the controlling cell's canonical id (BookLeaf's MINLOC
/// diagnostic; among equal candidates, the lowest id).
struct DtResult {
    Real dt = 0.0;
    Index cell = no_index;
    std::string_view reason;
};

/// Timestep control: CFL on the effective sound speed (including the
/// viscosity contribution), divergence (volume-change) limit, growth cap,
/// dt_max clamp. Throws util::Error if dt falls below opts.dt_min.
DtResult getdt(const Context& ctx, const State& s, Real dt_prev);

/// The t_end clamp, applied to the dt a step advances by. `unclamped`
/// keeps the controller's value: it — never the clamped `used` — must
/// seed the next getdt's growth limit, or a follow-on run after a tiny
/// clamped final step is growth-limited from near zero. core::Stepper
/// applies it for both drivers.
struct ClampedDt {
    Real used = 0.0;
    Real unclamped = 0.0;
};
[[nodiscard]] inline ClampedDt clamp_to_t_end(Real t, Real dt, Real t_end) {
    return {t + dt > t_end ? t_end - t : dt, dt};
}

/// Apply kinematic boundary conditions in place (reflective walls zero
/// the normal component; piston nodes get the prescribed velocity).
void apply_velocity_bc(const mesh::Mesh& mesh, const Options& opts,
                       std::span<Real> u, std::span<Real> v);

// ---------------------------------------------------------------------------
// Step health guards + derived-state rebuild (resilience support).
// ---------------------------------------------------------------------------

/// Rebuild the derived per-cell state of cells [begin, end) from the
/// primaries, using exactly the per-cell sequence getgeom/getpc use:
/// geometry cache + volume + characteristic length + corner volumes from
/// x/y, then EoS (pre, csqrd) from rho/ein. With `with_rho`, density is
/// recomputed first as cell_mass / max(volume, tiny) — the ghost-refresh
/// semantics; without it the stored rho is kept (the checkpoint-restore
/// semantics, where rho is a primary). `strict` throws util::Error
/// ("<who>: non-positive volume in cell N", N the canonical id) on a
/// tangled cell; tolerant
/// mode lets bad values flow through (the step-retry rollback path, where
/// loop-top ghost geometry may legitimately be tangled). The single
/// definition shared by ckpt::restore, the distributed ghost refresh and
/// the step-retry rollback, so their rebuild semantics cannot drift.
void rebuild_cells(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
                   State& s, Index begin, Index end, bool with_rho, bool strict,
                   const char* who);

/// Loop-top primary state of one step, captured before the step so a
/// rejected step can be rolled back exactly. Only the fields the step
/// *reads* before writing are saved (positions, velocities, rho, ein, q);
/// the masses are constant during Lagrangian motion, the derived fields
/// are rebuilt, and the scratch arrays are rewritten by the retry before
/// being read. Reused across steps — capture_step only reallocates on
/// first use.
struct StepBackup {
    std::vector<Real> x, y, u, v, rho, ein, q;
};

/// Save the loop-top primaries of `s` into `b`.
void capture_step(const State& s, StepBackup& b);

/// Roll `s` back to the captured loop-top state: restores the primaries
/// and rebuilds every derived field (tolerantly — see rebuild_cells). The
/// rebuilt bytes are identical to what the pre-step state held, because
/// the same deterministic kernels produced both from the same primaries.
void restore_step(const Context& ctx, State& s, const StepBackup& b);

/// Post-corrector health verdict over cells [0, n_cells) and the given
/// nodes: finite and positive density and volume, finite non-negative
/// internal energy, finite viscosity, finite node kinematics. The
/// distributed driver passes its owned-cell count and owned-node mask
/// (ghost entities may legitimately hold stale or tangled values at the
/// loop top); an empty mask means "all nodes". Every rank checking its
/// owned slice together covers exactly the serial check, which is what
/// makes the collective retry vote bitwise-equal to the serial decision.
[[nodiscard]] bool step_healthy(const State& s, Index n_cells,
                                std::span<const std::uint8_t> node_owned = {});

} // namespace bookleaf::hydro
