#pragma once
/// \file exec.hpp
/// Execution policy threaded through the drivers and kernels. Mirrors the
/// paper's programming-model space:
///   * serial           — pool == nullptr (one rank of the flat-MPI model)
///   * threaded         — pool != nullptr (the OpenMP-analogue)
/// The Lagrangian step and ALEADVECT are task graphs over entity blocks
/// (hydro::StepGraph and ale::AdvectGraph on par::TaskGraph), run inline
/// without a pool and on the pool with one, bitwise-identical either way.
/// The remap's other phases (ALEGETMESH, ALEGETFVOL, ALEUPDATE) are
/// for_each loops below, chunked automatically. `task_block` sizes the
/// graphs' blocks.

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "util/types.hpp"

namespace bookleaf::par {

struct Exec {
    ThreadPool* pool = nullptr;
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

/// The chunk size for_each uses: auto_grain clamped to [1, n], so a loop
/// shorter than the floor is one chunk. Callers can assert against this
/// to know the decomposition.
inline Index resolve_grain(const Exec& ex, Index n) {
    return std::clamp<Index>(auto_grain(n, ex.width()), Index{1},
                             std::max<Index>(n, Index{1}));
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
/// dynamic chunk scheduling: workers pull resolve_grain-sized chunks off a
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

/// Keep the lowest id `i` a loop has flagged in `lowest` (no_index = none
/// yet). for_each bodies must not throw — the pool carries no exception
/// across threads — so a body records its offending entity here and the
/// caller throws after the join. Kernels record the entity's canonical id
/// (mesh::Mesh::cell_id), so the error names the caller's entity, the
/// same one at any thread count, storage order and rank count.
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

/// Minimum of value_of(i) over [0, n) with argmin; among equal minima
/// the lowest key_of(i) wins (by default the lowest i). Partial results
/// use a static block decomposition and combine in block order, so the
/// result is identical at any thread count.
template <typename ValueOf, typename KeyOf = std::identity>
MinLoc reduce_min(const Exec& ex, Index n, ValueOf&& value_of,
                  KeyOf&& key_of = {}) {
    // Does (v, i) beat r? Ties go to the lower key.
    auto beats = [&](Real v, Index i, const MinLoc& r) {
        return v < r.value || (v == r.value && r.index != no_index &&
                               key_of(i) < key_of(r.index));
    };
    auto serial = [&](Index begin, Index end) {
        MinLoc r{std::numeric_limits<Real>::max(), no_index};
        for (Index i = begin; i < end; ++i) {
            const Real v = value_of(i);
            if (beats(v, i, r)) {
                r.value = v;
                r.index = i;
            }
        }
        return r;
    };
    if (!ex.threaded() || n < 2) return serial(0, n);

    const int parts = ex.pool->size();
    std::vector<MinLoc> partial(static_cast<std::size_t>(parts),
                                MinLoc{std::numeric_limits<Real>::max(), no_index});
    ex.pool->run([&](int tid) {
        const auto [begin, end] = detail::block(n, parts, tid);
        partial[static_cast<std::size_t>(tid)] = serial(begin, end);
    });
    MinLoc best = partial[0];
    for (const auto& p : partial)
        if (p.index != no_index &&
            (best.index == no_index || beats(p.value, p.index, best)))
            best = p;
    return best;
}

} // namespace bookleaf::par
