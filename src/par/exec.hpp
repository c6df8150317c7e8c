#pragma once
/// \file exec.hpp
/// Execution policy threaded through every hydro kernel. Mirrors the
/// paper's programming-model space:
///   * serial           — pool == nullptr (one rank of the flat-MPI model)
///   * threaded         — pool != nullptr (the OpenMP-analogue)
/// plus the nodal-assembly strategy for the acceleration kernel, the
/// structural artefact §IV-B documents for the OpenMP port:
///   * `Assembly::gather`  (default) — the corner-force scatter is
///     transposed into a race-free gather over nodes via the mesh's
///     node->(cell, corner) CSR: embarrassingly parallel and bitwise
///     deterministic at any thread count;
///   * `Assembly::serial_scatter` — the reference behaviour: the scatter
///     is a data dependency and runs serially even when a pool is present
///     (the paper left the kernel unparallelised);
///   * `Assembly::colored_scatter` — a greedy conflict colouring
///     parallelises the scatter class-by-class (the "fix" the paper
///     alludes to); kept as an ablation baseline.
/// `serial_reductions` mimics the `workshare` implementations that give
/// all reduction work to a single thread (the MINVAL/MINLOC sites).

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "util/types.hpp"

namespace bookleaf::par {

/// Nodal-assembly strategy for the acceleration kernel (§IV-B).
enum class Assembly {
    gather,          ///< node-centred gather (default; race-free, bitwise)
    serial_scatter,  ///< paper-faithful serial corner scatter
    colored_scatter, ///< conflict-coloured parallel scatter (ablation)
};

/// Step-level scheduling strategy. `taskgraph` expresses the Lagrangian
/// step and the ALE advection phases as dependency graphs over cell/node
/// blocks so independent subranges from adjacent kernels overlap;
/// `forkjoin` is the pre-graph behaviour (a full pool barrier between
/// kernels), kept as an ablation mode. Both produce bitwise-identical
/// results: every cross-entity reduction replays the serial deposition
/// order regardless of task completion order.
enum class Schedule {
    taskgraph, ///< dependency-graph executor over entity blocks (default)
    forkjoin,  ///< barrier-per-kernel ablation baseline
};

struct Exec {
    ThreadPool* pool = nullptr;
    Assembly assembly = Assembly::gather;
    Schedule schedule = Schedule::taskgraph;
    bool serial_reductions = false;
    /// Minimum iterations handed to a worker per chunk in for_each; 0
    /// selects an automatic grain (~4 chunks per worker for dynamic load
    /// balance on irregular meshes without starving the fast threads).
    Index grain = 0;
    /// Entities per task-graph block; 0 selects an automatic size
    /// (~4 blocks per worker, floor 64) so the graph has enough slack to
    /// overlap adjacent kernels without drowning in scheduling overhead.
    Index task_block = 0;

    [[nodiscard]] bool threaded() const { return pool != nullptr && pool->size() > 1; }
    [[nodiscard]] int width() const { return pool ? pool->size() : 1; }
};

namespace detail {
/// Static block decomposition of [0, n) across `parts`.
inline std::pair<Index, Index> block(Index n, int parts, int which) {
    const Index base = n / parts;
    const Index rem = n % parts;
    const Index begin = static_cast<Index>(which) * base + std::min<Index>(which, rem);
    const Index len = base + (which < rem ? 1 : 0);
    return {begin, begin + len};
}

/// Chunk size for dynamic scheduling: aim for ~4 chunks per worker so
/// irregular per-iteration cost balances, floor at 64 iterations so chunk
/// hand-off (one atomic fetch_add) stays negligible.
inline Index auto_grain(Index n, int parts) {
    const Index target = n / (static_cast<Index>(parts) * 4);
    return std::max<Index>(Index{64}, target);
}

/// The chunk size for_each actually uses: the explicit knob when set,
/// auto_grain otherwise, clamped to [1, n] so an oversized knob on a small
/// loop degrades to one chunk instead of being silently ignored (the old
/// code compared the raw knob against n and dropped it on the serial
/// path). Callers can assert against this to know the decomposition.
inline Index resolve_grain(const Exec& ex, Index n) {
    const Index g = ex.grain > 0 ? ex.grain : auto_grain(n, ex.width());
    return std::clamp<Index>(g, Index{1}, std::max<Index>(n, Index{1}));
}

/// Entities per task-graph block: the explicit knob when set, otherwise
/// ~4 blocks per worker with a floor of 64 entities so per-task overhead
/// stays negligible. Always in [1, n] for n > 0.
inline Index resolve_task_block(const Exec& ex, Index n) {
    const Index b = ex.task_block > 0
                        ? ex.task_block
                        : std::max<Index>(Index{64},
                                          n / (static_cast<Index>(ex.width()) * 4));
    return std::clamp<Index>(b, Index{1}, std::max<Index>(n, Index{1}));
}
} // namespace detail

/// Parallel (or serial) loop over [0, n): body(i). Threaded execution uses
/// dynamic chunk scheduling: workers pull `grain`-sized chunks off a
/// shared atomic counter, so uneven iteration costs (boundary cells, mixed
/// valence) balance without a static decomposition. Results are
/// scheduling-independent because bodies write disjoint slots.
template <typename Body>
void for_each(const Exec& ex, Index n, Body&& body) {
    if (n <= 0) return;
    const Index grain = detail::resolve_grain(ex, n);
    if (!ex.threaded() || n <= grain) {
        for (Index i = 0; i < n; ++i) body(i);
        return;
    }
    const Index n_chunks = (n + grain - 1) / grain;
    std::atomic<Index> next{0};
    ex.pool->run([&](int) {
        for (;;) {
            const Index chunk = next.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= n_chunks) break;
            const Index begin = chunk * grain;
            const Index end = std::min(n, begin + grain);
            for (Index i = begin; i < end; ++i) body(i);
        }
    });
}

/// Keep the lowest index `i` a loop has flagged in `lowest` (no_index =
/// none yet). for_each bodies must not throw — the pool carries no
/// exception across threads — so a body records its offending entity here
/// and the caller throws after the join, naming the same entity the
/// serial loop would have stopped at.
inline void record_lowest(std::atomic<Index>& lowest, Index i) {
    Index seen = lowest.load(std::memory_order_relaxed);
    while ((seen == no_index || i < seen) &&
           !lowest.compare_exchange_weak(seen, i)) {
    }
}

/// Result of a min-reduction with location (the Fortran MINVAL+MINLOC
/// pair that getdt uses to report the controlling cell).
struct MinLoc {
    Real value = 0.0;
    Index index = no_index;
};

/// Minimum of value_of(i) over [0, n) with argmin. Honors
/// `serial_reductions` (the hybrid-model artefact). Partial results use a
/// static block decomposition and combine in block order, so the result is
/// identical at any thread count.
template <typename ValueOf>
MinLoc reduce_min(const Exec& ex, Index n, ValueOf&& value_of) {
    auto serial = [&](Index begin, Index end) {
        MinLoc r{std::numeric_limits<Real>::max(), no_index};
        for (Index i = begin; i < end; ++i) {
            const Real v = value_of(i);
            if (v < r.value) {
                r.value = v;
                r.index = i;
            }
        }
        return r;
    };
    if (!ex.threaded() || ex.serial_reductions || n < 2) return serial(0, n);

    const int parts = ex.pool->size();
    std::vector<MinLoc> partial(static_cast<std::size_t>(parts),
                                MinLoc{std::numeric_limits<Real>::max(), no_index});
    ex.pool->run([&](int tid) {
        const auto [begin, end] = detail::block(n, parts, tid);
        partial[static_cast<std::size_t>(tid)] = serial(begin, end);
    });
    MinLoc best = partial[0];
    for (const auto& p : partial)
        if (p.index != no_index && (best.index == no_index || p.value < best.value))
            best = p;
    return best;
}

/// Sum of value_of(i) over [0, n). Deterministic: partial sums are always
/// combined in block order regardless of thread scheduling.
template <typename ValueOf>
Real reduce_sum(const Exec& ex, Index n, ValueOf&& value_of) {
    auto serial = [&](Index begin, Index end) {
        Real s = 0.0;
        for (Index i = begin; i < end; ++i) s += value_of(i);
        return s;
    };
    if (!ex.threaded() || ex.serial_reductions || n < 2) return serial(0, n);
    const int parts = ex.pool->size();
    std::vector<Real> partial(static_cast<std::size_t>(parts), 0.0);
    ex.pool->run([&](int tid) {
        const auto [begin, end] = detail::block(n, parts, tid);
        partial[static_cast<std::size_t>(tid)] = serial(begin, end);
    });
    Real s = 0.0;
    for (const Real p : partial) s += p;
    return s;
}

} // namespace bookleaf::par
