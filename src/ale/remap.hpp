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
/// lets the distributed driver run the very same code over subdomain
/// subranges and land bitwise-identical results on owned entities: the
/// subrange + ghost-aware overloads below take an explicit entity set
/// (the owned prefix, the owned-incident faces, the stencil-complete
/// nodes), and dist::remap interleaves them with Typhon ghost exchanges
/// that supply exactly the foreign inputs each phase reads (target node
/// positions per smoothing pass, ghost-cell gradients before the face
/// fluxes, ghost cell/corner results after the sweeps).

#include <atomic>
#include <functional>
#include <span>
#include <vector>

#include "hydro/kernels.hpp"
#include "util/csr.hpp"
#include "util/types.hpp"

namespace bookleaf::ale {

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
    /// Node -> edge-connected neighbours, each row ascending by node id
    /// (built lazily from the mesh faces). Ascending order makes the
    /// Jacobi average sum in global-id order on every rank: subdomain
    /// node numbering is global-ascending, so local rows are the global
    /// rows restricted — same contributions, same order, bitwise-equal
    /// averages wherever the stencil is complete.
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
// The advection sweep decomposed so the distributed driver can interleave
// ghost exchanges; aleadvect() composes them over the full mesh. Cell
// phases take an owned-cell *prefix* (subdomain numbering is owned-first;
// the serial mesh is all-owned).

/// Old-geometry centroids for every cell (ghosts included — they are
/// donor candidates for owned faces).
void aleadvect_centroids(const hydro::Context& ctx, const hydro::State& s,
                         Workspace& w);
/// Block overload for the task-graph schedule: cells [begin, end) only,
/// caller sizes w.cx/w.cy.
void aleadvect_centroids(const hydro::Context& ctx, const hydro::State& s,
                         Workspace& w, Index begin, Index end);

/// Limited least-squares gradients of rho and ein for cells [0, n_cells).
/// Needs complete face-neighbour data: in distributed runs only owned
/// cells qualify, and ghost-cell gradients arrive by exchange before the
/// fluxes read them.
void aleadvect_gradients(const hydro::Context& ctx, const hydro::State& s,
                         const Options& opts, Workspace& w, Index n_cells);
/// Block overload: cells [begin, end), caller sizes the gradient arrays
/// (every listed slot is written, zero for degenerate stencils).
void aleadvect_gradients(const hydro::Context& ctx, const hydro::State& s,
                         const Options& opts, Workspace& w, Index begin,
                         Index end);

/// Donor-cell mass/energy fluxes with limited reconstruction, all faces.
void aleadvect_fluxes(const hydro::Context& ctx, const hydro::State& s,
                      const Options& opts, Workspace& w);
/// Subrange overload (see alegetfvol). Unlisted faces get zero flux.
void aleadvect_fluxes(const hydro::Context& ctx, const hydro::State& s,
                      const Options& opts, Workspace& w,
                      std::span<const Index> faces);
/// Block overload: faces [begin, end), caller sizes w.mflux/w.eflux (own
/// slots are zeroed before fluxing, so no full-array assign is needed).
void aleadvect_fluxes(const hydro::Context& ctx, const hydro::State& s,
                      const Options& opts, Workspace& w, Index begin,
                      Index end);
/// Face-list chunk for the distributed remap graph: no zero prologue —
/// the caller zero-fills w.mflux/w.eflux once and partitions the remap
/// faces across tasks, so each listed slot is written by exactly one task.
void aleadvect_fluxes_chunk(const hydro::Context& ctx, const hydro::State& s,
                            const Options& opts, Workspace& w,
                            std::span<const Index> faces);

/// Cell mass / internal-energy update for cells [0, n_cells): each cell
/// gathers the signed fluxes of its own four faces (ascending local face
/// index — identical order on every rank).
void aleadvect_cells(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                     Index n_cells);
/// Block overload: cells [begin, end).
void aleadvect_cells(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                     Index begin, Index end);

/// Corner-mass update and median-dual fluxes for cells [0, n_cells):
/// writes w.dflux and the remapped cnmass.
void aleadvect_dual(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                    Index n_cells);
/// Block overload: cells [begin, end), caller sizes w.dflux and owns the
/// shared floor counter (atomic — the count is a commutative integer sum,
/// equal to the serial total at any schedule).
void aleadvect_dual(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                    Index begin, Index end, std::atomic<long>& floored);

/// Dual-mesh nodal remap: gather the remapped corner masses and the
/// upwind dual-flux momentum transfers at each node (rows from
/// ctx.corner_gather(), i.e. ascending global corner order), then form
/// the new nodal velocities and re-apply the kinematic BCs.
void aleadvect_nodes(const hydro::Context& ctx, hydro::State& s, Workspace& w);
/// Subrange overload: only the listed nodes are remapped (the distributed
/// driver passes the stencil-complete set; fringe nodes are owned and
/// computed elsewhere, and refreshed by the next pre-step halo).
void aleadvect_nodes(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                     std::span<const Index> nodes);
/// Block overloads of the nodal remap's two halves, for the task-graph
/// schedule: the gather accumulates into the workspace only (upwind
/// velocities stay clean), the write forms the new nodal state. Caller
/// sizes w.pmx/w.pmy/w.nmass (aleadvect_nodes_resize) and re-applies the
/// kinematic BCs after every write block has finished.
void aleadvect_node_gather(const hydro::Context& ctx, const hydro::State& s,
                           Workspace& w, Index begin, Index end);
void aleadvect_node_write(const hydro::Context& ctx, hydro::State& s,
                          Workspace& w, Index begin, Index end);
/// Size the nodal-remap accumulators (the serial phases do this inline).
void aleadvect_nodes_resize(const mesh::Mesh& mesh, Workspace& w);

/// Advect independent variables: the full composition of the phases above
/// over every cell, face and node. When the driver holds an AdvectGraph
/// for (s, opts, w) in ctx.advectgraph (Schedule::taskgraph with a pool,
/// see advect_graph.hpp) this re-runs it; otherwise — bare contexts, the
/// fork-join ablation — the phases run in sequence. Bitwise identical
/// either way.
void aleadvect(const hydro::Context& ctx, hydro::State& s, const Options& opts,
               Workspace& w);

/// Rebuild dependent variables on the target mesh: positions, geometry,
/// density, velocity from momentum, EoS. Ghost-aware as-is: every input
/// (target positions, remapped cell masses) is exact on all local cells
/// once the distributed exchanges have run, so the full-range sweep is
/// bitwise-serial everywhere.
void aleupdate(const hydro::Context& ctx, hydro::State& s, Workspace& w);

/// The full ALE step.
void alestep(const hydro::Context& ctx, hydro::State& s, const Options& opts,
             Workspace& w);

} // namespace bookleaf::ale
