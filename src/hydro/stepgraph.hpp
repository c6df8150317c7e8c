#pragma once
/// \file stepgraph.hpp
/// The Lagrangian step as a task graph: every kernel of lagstep's
/// predictor/corrector sequence is split into (kernel, block) tasks over
/// contiguous cell/node blocks, with happens-before edges derived from
/// each kernel's read/write footprint against the mesh topology. Instead
/// of a full pool barrier between kernels, a node block's acceleration
/// assembly can run as soon as the corner forces of the cell blocks it
/// gathers from are ready — while other cell blocks are still in
/// getforce.
///
/// Bitwise contract: the graph changes only *when* work runs, never what
/// it computes. Every task writes slots no concurrent task touches, every
/// cross-entity reduction is a gather replaying the serial deposition
/// order (ctx.corner_gather()), and the two boundary-condition fixups run
/// as single serial tasks exactly where the fork-join sequence applies
/// them — so graph results are bitwise identical to the fork-join path at
/// any thread count and block size.
///
/// The graph is built once per (mesh, exec) configuration — the driver
/// rebuilds it when the execution policy changes — and re-run every step
/// with the step's dt.

#include <atomic>

#include "hydro/kernels.hpp"
#include "par/task_graph.hpp"

namespace bookleaf::hydro {

class StepGraph {
public:
    /// Build the step graph for `ctx`/`s`. The context is copied; its
    /// `exec` keeps the pool for scheduling, while task bodies run with a
    /// serialized copy (kernel calls inside tasks must not re-dispatch to
    /// the pool). The mesh, state and CSRs must outlive the graph. The
    /// build is charged to Kernel::other.
    StepGraph(const Context& ctx, State& s);

    /// Execute one predictor-corrector Lagrangian step (bitwise identical
    /// to hydro::lagstep's fork-join sequence).
    void run(Real dt);

    [[nodiscard]] const State* state() const { return s_; }
    [[nodiscard]] std::size_t n_tasks() const { return graph_.size(); }

private:
    void build();

    par::Exec run_exec_; ///< scheduling policy (owns the pool pointer)
    Context ctx_;        ///< body context: exec serialized (pool == nullptr)
    State* s_ = nullptr;

    Real dt_ = 0.0;
    Real half_dt_ = 0.0;
    std::atomic<Index> bad_pred_{no_index}; ///< tangled cell, predictor
    std::atomic<Index> bad_corr_{no_index}; ///< tangled cell, corrector

    par::TaskGraph graph_;
};

} // namespace bookleaf::hydro
