#pragma once
/// \file kernels.hpp
/// The hydrodynamics kernels, named after the reference BookLeaf routines
/// (Algorithm 1 in the paper). Each kernel charges its wall time to the
/// profiler under the matching Kernel id, which is what the Table II
/// bench aggregates.

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

#include "eos/eos.hpp"
#include "hydro/options.hpp"
#include "hydro/state.hpp"
#include "mesh/mesh.hpp"
#include "par/coloring.hpp"
#include "par/exec.hpp"
#include "util/profiler.hpp"

namespace bookleaf::par {
struct GraphRunLog;
} // namespace bookleaf::par

namespace bookleaf::ale {
class AdvectGraph;
} // namespace bookleaf::ale

namespace bookleaf::hydro {

class StepGraph;

/// Everything a kernel needs besides the state: mesh topology, materials,
/// options, execution policy, profiler, and (optionally) the scatter
/// colouring for the `Assembly::colored_scatter` ablation path of the
/// acceleration kernel.
struct Context {
    const mesh::Mesh* mesh = nullptr;
    const eos::MaterialTable* materials = nullptr;
    Options opts;
    par::Exec exec;
    /// Kernels charge this unconditionally; the default keeps bare
    /// (hand-built) contexts safe. Drivers overwrite it with their own
    /// per-run instance so concurrent runs never share stats.
    util::Profiler* profiler = &util::default_profiler();
    const par::Coloring* scatter_coloring = nullptr;
    /// Distributed runs: number of *owned* cells (owned-first ordering).
    /// getdt reduces over these only, so the post-reduction global dt is
    /// identical to a serial run; no_index means "all cells".
    Index dt_cells = no_index;
    /// Distributed runs: overrides mesh->node_corners for every
    /// corner->node gather (the acceleration assembly and the dual-mesh
    /// remap). part::decompose permutes each row to ascending *global*
    /// flat corner id, so the gathers sum a boundary node's corner
    /// contributions in exactly the serial deposition order — the bitwise
    /// dist == serial contract. nullptr (the serial driver) means
    /// mesh->node_corners, whose rows are already in global order.
    const util::Csr* assembly_corners = nullptr;
    /// Task-graph executor for the Lagrangian step, built once by the
    /// owning driver when `exec.schedule == Schedule::taskgraph` applies
    /// (pool present, gather assembly) and re-run every step. lagstep
    /// dispatches to it; nullptr (bare contexts, the fork-join ablation,
    /// the scatter ablations) runs the barrier-per-kernel sequence.
    /// Results are bitwise identical either way.
    StepGraph* stepgraph = nullptr;
    /// Task-graph executor for ALEADVECT, built once by the owning driver
    /// beside `stepgraph` (taskgraph schedule, pool present, a remapping
    /// mode) and re-run every remap. aleadvect dispatches to it; nullptr
    /// runs the fork-join phases, with the same result.
    ale::AdvectGraph* advectgraph = nullptr;
    /// Attribution collector: when the owning driver runs with telemetry
    /// active it attaches a par::GraphRunLog here and every task-graph
    /// execution (step graph, ALE advection graph, distributed remap-flux
    /// graph) appends its per-task spans + edges for obs::critical_path.
    /// Graphs copy the context when built, so the driver attaches the
    /// collector before building any. nullptr (the default, and all
    /// telemetry-off runs) records nothing.
    par::GraphRunLog* graph_log = nullptr;

    /// The corner gather CSR in effect (see assembly_corners).
    [[nodiscard]] const util::Csr& corner_gather() const {
        return assembly_corners != nullptr ? *assembly_corners
                                           : mesh->node_corners;
    }
};

/// Move nodes to x0 + w*dt_move and rebuild geometry (volumes, corner
/// volumes, characteristic lengths). Throws util::Error on non-positive
/// cell volume (tangled mesh).
void getgeom(const Context& ctx, State& s, std::span<const Real> wu,
             std::span<const Real> wv, Real dt_move);

/// Density from constant Lagrangian cell mass: rho = m / V.
void getrho(const Context& ctx, State& s);

/// Compatible internal-energy update:
///   ein = ein0 - dt_eff * sum_i(f_i . w_i) / cell_mass
/// using the *total* corner forces (pressure + sub-zonal + hourglass +
/// viscous), which is what makes total energy conservation exact.
void getein(const Context& ctx, State& s, std::span<const Real> wu,
            std::span<const Real> wv, Real dt_eff);

/// EoS evaluation: pressure and squared sound speed per cell.
void getpc(const Context& ctx, State& s);

/// Edge-centred monotonic artificial viscosity (Caramana-Shashkov-Whalen
/// [28]). Writes the viscous corner forces (qfx, qfy) and the cell
/// viscosity scalar q. Needs face-neighbour velocities: this is the
/// kernel preceded by a halo exchange in distributed runs.
void getq(const Context& ctx, State& s);
/// Subrange variant over an explicit cell list. Each cell writes only its
/// own corner arrays, so any disjoint cover of the cell range (e.g. the
/// distributed driver's boundary/interior split for halo overlap) is
/// bitwise identical to the full sweep regardless of execution order.
void getq(const Context& ctx, State& s, std::span<const Index> cells);

/// Total corner forces: pressure gradient + sub-zonal pressures +
/// hourglass filter + the viscous forces computed by getq.
void getforce(const Context& ctx, State& s);
/// Subrange variant over an explicit cell list (see getq).
void getforce(const Context& ctx, State& s, std::span<const Index> cells);

/// Acceleration: assemble corner masses/forces onto nodes, apply boundary
/// conditions, advance velocities by dt and form the time-centred
/// velocities (ubar, vbar). The assembly strategy follows
/// `exec.assembly`: the default gather over the node->(cell, corner) CSR
/// is race-free and bitwise thread-count independent; `serial_scatter`
/// and `colored_scatter` reproduce the paper's §IV-B behaviours (the
/// latter needs `ctx.scatter_coloring`).
void getacc(const Context& ctx, State& s, Real dt);

/// Subrange pieces of the acceleration kernel for the distributed
/// driver's halo/compute overlap. `getacc_assemble` gathers nodal mass and
/// force for an explicit node list (always the race-free gather; the
/// scatter ablations make no sense over subsets); nodes not incident to
/// any ghost cell can be assembled while ghost corner forces are still in
/// flight. `getacc_advance` performs the remaining whole-range work of
/// getacc (velocity advance, boundary conditions, time-centred
/// velocities) and must follow assembly of *all* nodes. Composing
/// assemble(interior) + assemble(boundary) + advance is bitwise identical
/// to one full getacc with gather assembly.
void getacc_assemble(const Context& ctx, State& s, std::span<const Index> nodes);
void getacc_advance(const Context& ctx, State& s, Real dt);

// ---------------------------------------------------------------------------
// Contiguous-block kernel pieces for the task-graph executor. Each runs a
// *serial* loop over entities [begin, end) — parallelism comes from running
// many blocks as graph tasks — and writes only its own block's slots, so
// any disjoint cover executed in any order is bitwise identical to the
// full fork-join kernel. Every piece charges its kernel's profiler slot
// (in graph mode concurrent block scopes sum to CPU seconds, not wall).
// ---------------------------------------------------------------------------

/// getq over cells [begin, end).
void getq(const Context& ctx, State& s, Index begin, Index end);
/// getforce over cells [begin, end).
void getforce(const Context& ctx, State& s, Index begin, Index end);
/// The node-move half of getgeom over nodes [begin, end).
void getgeom_move(const Context& ctx, State& s, std::span<const Real> wu,
                  std::span<const Real> wv, Real dt_move, Index begin,
                  Index end);
/// The cell-geometry half of getgeom over cells [begin, end). A tangled
/// cell is recorded in `bad_cell` (lowest index wins) instead of throwing;
/// the graph's check task (or the caller) owns the throw decision.
void getgeom_cells(const Context& ctx, State& s, Index begin, Index end,
                   std::atomic<Index>& bad_cell);
/// getrho over cells [begin, end).
void getrho(const Context& ctx, State& s, Index begin, Index end);
/// getein over cells [begin, end).
void getein(const Context& ctx, State& s, std::span<const Real> wu,
            std::span<const Real> wv, Real dt_eff, Index begin, Index end);
/// getpc over cells [begin, end).
void getpc(const Context& ctx, State& s, Index begin, Index end);
/// The gather assembly of getacc over nodes [begin, end).
void getacc_assemble(const Context& ctx, State& s, Index begin, Index end);
/// The velocity advance of getacc over nodes [begin, end) (no BCs — the
/// graph applies them as a serial task after all blocks).
void getacc_advance_velocity(const Context& ctx, State& s, Real dt,
                             Index begin, Index end);
/// The time-centred (ubar, vbar) formation over nodes [begin, end).
void getacc_centered(const Context& ctx, State& s, Index begin, Index end);

/// Timestep-controller result. `reason` names the active constraint and
/// `cell` the controlling cell (BookLeaf's MINLOC diagnostic).
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

/// One full predictor-corrector Lagrangian step (Algorithm 1's LAGSTEP).
void lagstep(const Context& ctx, State& s, Real dt);

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
/// ("<who>: non-positive volume in cell N") on a tangled cell; tolerant
/// mode lets bad values flow through (the step-retry rollback path, where
/// loop-top ghost geometry may legitimately be tangled). The single
/// definition shared by ckpt::restore, the distributed ghost refresh and
/// the step-retry rollback, so their rebuild semantics cannot drift.
void rebuild_cells(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
                   State& s, Index begin, Index end, bool with_rho, bool strict,
                   const char* who);

/// Loop-top primary state of one step, captured before lagstep so a
/// rejected step can be rolled back exactly. Only the fields lagstep
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
