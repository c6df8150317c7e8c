#pragma once
/// \file blocks.hpp
/// Entity blocks and block coupling tables, shared by the task-graph
/// builders (hydro::StepGraph and ale::AdvectGraph). A task covers one
/// contiguous block of cells, or of a face order or node list; a coupling
/// table lists, per block, the blocks of another kind that its tasks must
/// be ordered against.

#include <algorithm>
#include <vector>

#include "util/types.hpp"

namespace bookleaf::par {

/// One task's contiguous entity range [begin, end).
struct BlockRange {
    Index begin = 0, end = 0;
};

/// [0, n) as consecutive blocks of `block_size` (the last may be
/// shorter); an empty range gives one empty block.
inline std::vector<BlockRange> make_blocks(Index n, Index block_size) {
    std::vector<BlockRange> blocks;
    for (Index b = 0; b < n; b += block_size)
        blocks.push_back({b, std::min<Index>(n, b + block_size)});
    if (blocks.empty()) blocks.push_back({0, 0});
    return blocks;
}

/// A coupling table: row r lists, ascending and without repeats, every
/// column in [0, n_cols) that `visit(r, add)` names through add(column).
/// A per-column stamp (the last row that added the column) drops repeats
/// as they arrive, so a build costs one step per add() plus a sort of
/// each short row, where collecting every pair and sorting would cost
/// n log n in the stencil size.
template <typename Visit>
std::vector<std::vector<int>> coupling(int n_rows, int n_cols, Visit&& visit) {
    std::vector<std::vector<int>> rows(static_cast<std::size_t>(n_rows));
    std::vector<int> stamp(static_cast<std::size_t>(n_cols), -1);
    for (int r = 0; r < n_rows; ++r) {
        auto& row = rows[static_cast<std::size_t>(r)];
        visit(r, [&](int col) {
            int& last = stamp[static_cast<std::size_t>(col)];
            if (last == r) return;
            last = r;
            row.push_back(col);
        });
        std::sort(row.begin(), row.end());
    }
    return rows;
}

} // namespace bookleaf::par
