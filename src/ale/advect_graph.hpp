#pragma once
/// \file advect_graph.hpp
/// ALEADVECT as a task graph: the advection phases become (phase, block)
/// tasks over contiguous cell / face / node blocks, with happens-before
/// edges derived from each phase's read/write footprint against the mesh
/// topology. Instead of a barrier after every phase, a face block's
/// fluxes start as soon as the gradients of the cell blocks it reads are
/// ready, and a node block's momentum gather starts as soon as the dual
/// sweeps of its incident cell blocks are done.
///
/// Bitwise contract (same as hydro::StepGraph): the graph changes only
/// *when* work runs, never what it computes, so results are bitwise
/// identical to aleadvect's fork-join sequence at any thread count and
/// block size.
///
/// Like the step graph, it is built once per (mesh, exec) configuration —
/// the driver rebuilds it when the execution policy changes — and re-run
/// on every remap.

#include <atomic>

#include "ale/remap.hpp"
#include "par/task_graph.hpp"

namespace bookleaf::ale {

class AdvectGraph {
public:
    /// Build the advection graph over `s`, `opts` and `w`. The context is
    /// copied; its `exec` keeps the pool for scheduling, while task bodies
    /// run with a serialized copy. The mesh, state, options, workspace and
    /// CSRs must outlive the graph. The build is charged to Kernel::other.
    AdvectGraph(const hydro::Context& ctx, hydro::State& s,
                const Options& opts, Workspace& w);
    /// Task bodies hold the addresses of this object's members.
    AdvectGraph(const AdvectGraph&) = delete;
    AdvectGraph& operator=(const AdvectGraph&) = delete;

    /// Advect once (bitwise identical to aleadvect's fork-join phases).
    void run();

    /// True when the graph was built over exactly these arguments.
    [[nodiscard]] bool binds(const hydro::State& s, const Options& opts,
                             const Workspace& w) const {
        return &s == s_ && &opts == opts_ && &w == w_;
    }

private:
    void build();

    par::Exec run_exec_;   ///< scheduling policy (owns the pool pointer)
    hydro::Context ctx_;   ///< body context: exec serialized (pool == nullptr)
    hydro::State* s_ = nullptr;
    const Options* opts_ = nullptr;
    Workspace* w_ = nullptr;
    std::atomic<long> floored_{0}; ///< corner masses floored this run

    par::TaskGraph graph_;
};

} // namespace bookleaf::ale
