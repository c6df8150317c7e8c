#pragma once
/// \file stepgraph.hpp
/// The Lagrangian step (the paper's Algorithm 1 LAGSTEP) as a task graph,
/// and the only step shape there is: core::Hydro runs it for every
/// execution policy — inline, lowest task id first, without a pool, and
/// on the pool with one — and each distributed rank runs it with its two
/// halo exchanges and the dt reduce as graph nodes. Every kernel of the
/// predictor/corrector sequence is split into (kernel, block) tasks over
/// contiguous cell/node blocks, with happens-before edges derived from
/// each kernel's read/write footprint against the mesh topology. Instead
/// of a barrier between kernels, a node block's acceleration assembly can
/// run as soon as the corner forces of the cell blocks it gathers from
/// are ready — while other cell blocks are still in getforce.
///
/// Bitwise contract: the graph changes only *when* work runs, never what
/// it computes. Every task writes slots no concurrent task touches, every
/// cross-entity reduction is a gather replaying the serial deposition
/// order (the mesh's node_corners), and the two boundary-condition
/// fixups run as single serial tasks after every block they follow — so
/// results are bitwise identical at any thread count, block size and
/// rank count.
///
/// Halo edges (ranks). A rank hands the graph a StepHalo: its ghost
/// layout and three callbacks. The graph derives each halo edge from the
/// couplings it already builds:
///   * the state finish writes x, y, u, v of non-owned nodes and ein of
///     ghost cells, and the ghost rebuild task then rebuilds the ghost
///     cells' derived state; they block the snapshot tasks of blocks
///     holding such entities and the predictor getq of every cell block
///     that holds a ghost cell or whose wide stencil reads a non-owned
///     node;
///   * the corner post follows the getforce of every block holding a sent
///     corner; the corner finish follows the post and the getforce of the
///     ghost-cell blocks (both write ghost fx/fy) and releases the
///     assembly of every node block incident to a ghost cell.
/// The dt reaches the tasks only through one main-thread settle task; on
/// a rank it follows the state finish, so the dt reduce rides under the
/// state exchange.
///
/// Task ids are the inline executor's priority, so their order is part of
/// the design: on a one-thread rank the interior predictor getq/getforce
/// run before the state finish, the corrector blocks holding sent corners
/// and the corner post before the other corrector blocks, and the corner
/// finish after every assembly that does not wait for it. A finish task
/// with a low id would silently serialize the exchange with the work it
/// is meant to hide behind.
///
/// The graph is built once per (mesh, exec, halo) configuration — the
/// serial driver rebuilds it when the execution policy changes, a rank
/// once per attempt — and re-run every step.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "hydro/kernels.hpp"
#include "par/task_graph.hpp"

namespace bookleaf::hydro {

/// What a distributed rank adds to its step graph: its ghost layout and
/// the callbacks that move halo data (the exchanges themselves stay in
/// the rank's driver). The rank posts the state exchange before
/// StepGraph::run; the graph finishes it, posts and finishes the corner
/// exchange. Callbacks run on the calling thread (main-thread tasks) and
/// may throw: the graph cancels and rethrows the exception unchanged.
struct StepHalo {
    /// Owned cells come first: ghost cells are [n_owned_cells, n_cells).
    Index n_owned_cells = 0;
    /// Per local node, 0 where the state exchange writes the node.
    std::span<const std::uint8_t> node_owned;
    /// Owned cells whose corner forces a peer receives.
    std::vector<Index> sent_cells;
    /// Complete the posted state exchange: x, y, u, v of non-owned nodes
    /// and ein of ghost cells.
    std::function<void()> finish_state;
    /// Post the corner-force exchange (reads fx, fy of sent_cells).
    std::function<void()> post_corners;
    /// Complete it: fx, fy of the ghost cells.
    std::function<void()> finish_corners;
};

class StepGraph {
public:
    /// Build the step graph for `ctx`/`s`, with the rank's halo nodes when
    /// `halo` is given. The context is copied; its `exec` keeps the pool
    /// for scheduling, while task bodies run with a serialized copy (a
    /// kernel inside a task must not re-dispatch to the pool). The mesh,
    /// state and CSRs must outlive the graph. The build is charged to
    /// Kernel::other.
    StepGraph(const Context& ctx, State& s,
              std::optional<StepHalo> halo = std::nullopt);
    /// Task bodies hold the addresses of this object's members.
    StepGraph(const StepGraph&) = delete;
    StepGraph& operator=(const StepGraph&) = delete;

    /// Execute one predictor-corrector step. `settle` is called once,
    /// from the main-thread settle task, and returns the dt the step
    /// advances by; every task that reads dt runs after it.
    void run(const std::function<Real()>& settle);
    /// One step by a dt known up front.
    void run(Real dt) {
        run([dt] { return dt; });
    }

private:
    void build(const StepHalo* halo);

    par::Exec run_exec_; ///< scheduling policy (owns the pool pointer)
    Context ctx_;        ///< body context: exec serialized (pool == nullptr)
    State* s_ = nullptr;
    /// The callbacks of the rank's halo (empty in a serial run).
    std::function<void()> finish_state_, post_corners_, finish_corners_;

    const std::function<Real()>* settle_ = nullptr; ///< the running step's
    Real dt_ = 0.0;
    Real half_dt_ = 0.0;
    std::atomic<Index> bad_pred_{no_index}; ///< tangled cell, predictor
    std::atomic<Index> bad_corr_{no_index}; ///< tangled cell, corrector

    par::TaskGraph graph_;
};

} // namespace bookleaf::hydro
