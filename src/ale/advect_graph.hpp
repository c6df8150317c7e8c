#pragma once
/// \file advect_graph.hpp
/// ALEADVECT as a task graph, and the only ALEADVECT there is: core::Hydro
/// runs it for every execution policy — inline, lowest task id first,
/// without a pool, and on the pool with one — and each distributed rank
/// runs it with its two remap exchanges as graph nodes. The advection
/// phases become (phase, block) tasks over contiguous cell blocks and over
/// chunks of a face order and a node list, with happens-before edges
/// derived from each phase's read/write footprint against the mesh
/// topology. Instead of a barrier after every phase, a face chunk's fluxes
/// start as soon as the gradients of the cell blocks it reads are ready,
/// and a node block's momentum gather starts as soon as the dual sweeps of
/// its incident cell blocks are done.
///
/// Bitwise contract (same as hydro::StepGraph): the graph changes only
/// *when* work runs, never what it computes, so results are bitwise
/// identical to the plain phase sequence over every cell, face and node
/// at any thread count, block size and rank count.
///
/// Halo edges (ranks). A rank hands the graph an AdvectHalo: its ghost
/// layout, the nodes it remaps and four callbacks. The graph derives each
/// halo edge from the couplings it already builds:
///   * gradients, cells and dual run over owned cells only; centroids run
///     over every local cell, because ghost cells are donors;
///   * the gradient post follows every gradient task, and its finish
///     releases only the face chunks holding a face with a ghost side;
///   * the result post follows every cells and dual task; its finish
///     follows the post and every face chunk holding a face with a ghost
///     side (they read the ghost ein it overwrites) and releases the node
///     gathers of blocks holding a node of a ghost cell.
///
/// Face order. The flux tasks cover chunks of a face order with the
/// ghost-free faces first, so most chunks need no exchanged gradient; in
/// a serial run the order is every face in storage order. A rank fluxes
/// every local face: the faces outside its remap face list have zero
/// swept volume (alegetfvol leaves them at 0.0) and flux to exact zero.
///
/// Task ids are the inline executor's priority, so their order is part of
/// the design: on a one-thread rank the ghost-free flux chunks run
/// between the gradient post and its finish, and the node gathers that do
/// not wait for the result finish run before it.
///
/// The graph is built once per (mesh, exec, halo) configuration — the
/// serial driver rebuilds it when the execution policy changes, a rank
/// once per attempt — and re-run on every remap.

#include <atomic>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "ale/remap.hpp"
#include "par/task_graph.hpp"

namespace bookleaf::ale {

/// What a distributed rank adds to its advection graph: its ghost layout,
/// the nodes it remaps and the callbacks that move the remap's halo data
/// (the exchanges themselves stay in the rank's driver). Callbacks run on
/// the calling thread (main-thread tasks) and may throw: the graph
/// cancels and rethrows the exception unchanged.
struct AdvectHalo {
    /// Owned cells come first: ghost cells are [n_owned_cells, n_cells).
    Index n_owned_cells = 0;
    /// The nodes whose whole cell stencil is local, ascending: the nodal
    /// remap covers exactly these.
    std::span<const Index> nodes;
    /// Post the gradient exchange (reads the owned cells' gradients).
    std::function<void()> post_gradients;
    /// Complete it: the gradients of the face-adjacent ghost cells.
    std::function<void()> finish_gradients;
    /// Post the result exchange (reads cell_mass and ein of owned cells,
    /// cnmass and dflux of their corners).
    std::function<void()> post_results;
    /// Complete it: the same fields of every ghost cell.
    std::function<void()> finish_results;
};

class AdvectGraph {
public:
    /// Build the advection graph over `s`, `opts` and `w`, with the rank's
    /// halo nodes when `halo` is given. The context is copied; its `exec`
    /// keeps the pool for scheduling, while task bodies run with a
    /// serialized copy. The mesh, state, options, workspace and CSRs must
    /// outlive the graph. The build is charged to Kernel::other.
    AdvectGraph(const hydro::Context& ctx, hydro::State& s,
                const Options& opts, Workspace& w,
                std::optional<AdvectHalo> halo = std::nullopt);
    /// Task bodies hold the addresses of this object's members.
    AdvectGraph(const AdvectGraph&) = delete;
    AdvectGraph& operator=(const AdvectGraph&) = delete;

    /// Advect once.
    void run();

private:
    void build(const AdvectHalo* halo);

    par::Exec run_exec_;   ///< scheduling policy (owns the pool pointer)
    hydro::Context ctx_;   ///< body context: exec serialized (pool == nullptr)
    hydro::State* s_ = nullptr;
    const Options* opts_ = nullptr;
    Workspace* w_ = nullptr;
    Index n_owned_cells_ = 0;
    std::vector<Index> faces_; ///< the face order the flux chunks cover
    std::vector<Index> nodes_; ///< the nodes the nodal remap covers
    /// The callbacks of the rank's halo (empty in a serial run).
    std::function<void()> post_gradients_, finish_gradients_, post_results_,
        finish_results_;
    std::atomic<long> floored_{0}; ///< corner masses floored this run

    par::TaskGraph graph_;
};

} // namespace bookleaf::ale
