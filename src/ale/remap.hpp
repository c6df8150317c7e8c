#pragma once
/// \file remap.hpp
/// The ALE step (paper Algorithm 1: ALEGETMESH, ALEGETFVOL, ALEADVECT,
/// ALEUPDATE). A swept-volume flux remap (Benson [29]): second order in
/// the cell-centred quantities via limited linear reconstruction (van
/// Leer / Barth-Jespersen [30]), first-order upwind in the dual-mesh
/// momentum transport, exactly conservative in mass, internal energy and
/// momentum.
///
/// Every kernel is *per-entity independent* given its inputs — cells,
/// faces and nodes are each updated from read-only neighbour data — and
/// every cross-entity reduction (the Jacobi smoothing average, the
/// cell-flux gather, the dual-mesh corner/momentum gather) sums its
/// contributions in ascending global-id order. That structure is what
/// lets the distributed driver run the very same code over a subdomain
/// and land bitwise-identical results on owned entities. ALEADVECT is
/// ale::AdvectGraph (advect_graph.hpp) in both drivers: its phases run as
/// (phase, block) tasks, and on a rank the graph also posts and finishes
/// the two remap exchanges that supply exactly the foreign inputs a phase
/// reads (ghost-cell gradients before the face fluxes, ghost cell and
/// corner results before the nodal gather). ALEGETMESH, ALEGETFVOL and
/// ALEUPDATE are par::for_each loops; the ghost-aware overloads below
/// take the rank's target-position sync and remap face list.

#include <atomic>
#include <functional>
#include <span>
#include <vector>

#include "hydro/kernels.hpp"
#include "util/csr.hpp"
#include "util/types.hpp"

namespace bookleaf::ale {

class AdvectGraph;

/// ALE operating mode (paper §III-A: pure Lagrange, ALE, or Eulerian as
/// the bounding cases).
enum class Mode {
    lagrange, ///< no remap
    ale,      ///< remap to a smoothed mesh every `frequency` steps
    eulerian  ///< remap back to the original mesh every step
};

struct Options {
    Mode mode = Mode::lagrange;
    int frequency = 1;          ///< remap every N Lagrangian steps (ale mode)
    int smoothing_passes = 2;   ///< Jacobi passes toward neighbour average
    Real smoothing_weight = 0.5;///< relaxation factor per pass
    Real max_move_frac = 0.25;  ///< clamp: node move <= frac * min local edge
    bool limit = true;          ///< van Leer limiting (ablation switch)
};

/// Scratch arrays reused across remaps (sized on first use). One
/// workspace serves one mesh: the cached node adjacency is keyed only on
/// the node count.
struct Workspace {
    std::vector<Real> xt, yt;       ///< target node positions
    std::vector<Real> fvol;         ///< per-face signed swept volume (left->right)
    std::vector<Real> mflux;        ///< per-face mass flux (left->right)
    std::vector<Real> eflux;        ///< per-face internal-energy flux
    std::vector<Real> grad_rho_x, grad_rho_y;
    std::vector<Real> grad_e_x, grad_e_y;
    std::vector<Real> cx, cy;       ///< cell centroids (old geometry)
    std::vector<Real> pmx, pmy;     ///< nodal momentum accumulator
    std::vector<Real> nmass;        ///< remapped nodal masses (nodal sweep)
    /// Median-dual flux per corner [cell*4 + k]: mass moved from corner k
    /// to corner k+1 within the cell. Written by aleadvect_dual and read
    /// by the nodal momentum gather — and, in distributed runs, exchanged
    /// for ghost cells (their far faces leave the subdomain, so their
    /// dual fluxes are not locally computable).
    std::vector<Real> dflux;
    /// Node -> edge-connected neighbours, each row ascending by canonical
    /// node id (built lazily from the mesh faces). That order makes the
    /// Jacobi average sum in the caller's-id order in any storage order
    /// and on every rank: a subdomain's canonical ids are the global ids,
    /// so local rows are the global rows restricted — same contributions,
    /// same order, bitwise-equal averages wherever the stencil is
    /// complete.
    util::Csr node_adj;
    std::vector<Real> next_x, next_y; ///< Jacobi pass scratch
};

/// Ghost-aware smoothing hook: refreshes non-owned entries of the target
/// positions from their owning ranks. Invoked after every Jacobi pass and
/// once after the displacement clamp (a fringe node's stencil is
/// incomplete locally; its owner has the full stencil and computes the
/// bitwise-serial value). Serial runs pass none.
using TargetSync = std::function<void(std::vector<Real>&, std::vector<Real>&)>;

/// Select the target mesh (smoothed or original). Honors boundary
/// conditions: fix_u nodes slide only in y, fix_v only in x, piston and
/// corner nodes stay put.
void alegetmesh(const hydro::Context& ctx, const hydro::State& s,
                const Options& opts, Workspace& w);
/// Ghost-aware overload: `sync` refreshes non-owned target positions
/// between Jacobi passes and after the clamp (ALE mode only — Eulerian
/// and Lagrange targets are exact everywhere locally, so the hook is
/// never called for them).
void alegetmesh(const hydro::Context& ctx, const hydro::State& s,
                const Options& opts, Workspace& w, const TargetSync& sync);

/// Signed swept volume per face: positive moves volume from the face's
/// left cell to its right cell. For boundary faces the target must equal
/// the current position (boundary nodes never move) so the flux is zero.
void alegetfvol(const hydro::Context& ctx, const hydro::State& s, Workspace& w);
/// Subrange overload over an explicit face list (the distributed remap
/// evaluates only faces incident to an owned cell; a ghost cell's far
/// face is locally boundary but globally interior — *phantom* — and must
/// not be checked against the boundary no-sweep contract). Unlisted
/// faces get zero swept volume.
void alegetfvol(const hydro::Context& ctx, const hydro::State& s, Workspace& w,
                std::span<const Index> faces);

// --- ALEADVECT phases -------------------------------------------------------
// One form per phase: a serial loop over one block of entities, which
// ale::AdvectGraph runs as a task. Each writes only its own entities'
// slots, so any disjoint cover of the entities, run in any order the
// graph's edges allow, lands the bytes of one sweep in storage order. The
// caller sizes the workspace arrays a form writes.

/// Old-geometry centroids of cells [begin, end) (w.cx, w.cy). A rank
/// computes them for ghost cells too: they are donor candidates for owned
/// faces.
void aleadvect_centroids(const hydro::Context& ctx, const hydro::State& s,
                         Workspace& w, Index begin, Index end);

/// Limited least-squares gradients of rho and ein for cells [begin, end)
/// (every slot is written, zero for degenerate stencils). Needs the
/// centroids of the cells and of their face neighbours, so a rank
/// computes owned cells only; ghost-cell gradients arrive by exchange
/// before the fluxes read them.
void aleadvect_gradients(const hydro::Context& ctx, const hydro::State& s,
                         const Options& opts, Workspace& w, Index begin,
                         Index end);

/// Donor-cell mass and energy fluxes with limited reconstruction for the
/// listed faces. Each listed slot of w.mflux/w.eflux is zeroed before it
/// is fluxed, and a face with no swept volume keeps the zero, so a face
/// list covering every face needs no fill beforehand.
void aleadvect_fluxes(const hydro::Context& ctx, const hydro::State& s,
                      const Options& opts, Workspace& w,
                      std::span<const Index> faces);

/// Cell mass / internal-energy update for cells [begin, end): each cell
/// gathers the signed fluxes of its own four faces (ascending local face
/// index — identical order on every rank).
void aleadvect_cells(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                     Index begin, Index end);

/// Corner-mass update and median-dual fluxes for cells [begin, end):
/// writes w.dflux and the remapped cnmass. `floored` counts the corner
/// masses floored at zero (atomic — the count is a commutative integer
/// sum, equal to the serial total at any schedule).
void aleadvect_dual(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                    Index begin, Index end, std::atomic<long>& floored);

/// The dual-mesh nodal remap in two halves over the listed nodes. The
/// gather accumulates the remapped corner masses and the upwind dual-flux
/// momentum transfers of each node (rows from the mesh's node_corners,
/// i.e. ascending canonical corner order) into the workspace only, so the
/// upwind velocities stay clean; the write forms the new nodal mass and
/// velocities. The caller re-applies the kinematic BCs after every write.
void aleadvect_node_gather(const hydro::Context& ctx, const hydro::State& s,
                           Workspace& w, std::span<const Index> nodes);
void aleadvect_node_write(const hydro::Context& ctx, hydro::State& s,
                          Workspace& w, std::span<const Index> nodes);

/// Rebuild dependent variables on the target mesh: positions, geometry,
/// density, velocity from momentum, EoS. Ghost-aware as-is: every input
/// (target positions, remapped cell masses) is exact on all local cells
/// once the distributed exchanges have run, so the full-range sweep is
/// bitwise-serial everywhere.
void aleupdate(const hydro::Context& ctx, hydro::State& s, Workspace& w);

/// The full ALE step: ALEGETMESH, ALEGETFVOL, `advect` (the graph built
/// over s, opts and w) and ALEUPDATE. Does nothing in Lagrange mode.
void alestep(const hydro::Context& ctx, hydro::State& s, const Options& opts,
             Workspace& w, AdvectGraph& advect);

} // namespace bookleaf::ale
