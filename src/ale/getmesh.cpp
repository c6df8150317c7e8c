/// \file getmesh.cpp
/// ALEGETMESH: choose the target mesh for the remap. Eulerian mode
/// returns the generation-time mesh; ALE mode runs weighted Jacobi
/// smoothing toward the average of edge-connected neighbours, with
/// boundary nodes restricted to slide along their wall and every move
/// clamped to a fraction of the shortest incident edge (so the swept
/// volumes stay small and the donor-cell advection stays in its stable
/// regime).
///
/// The smoothing is a per-node *gather* over the cached node adjacency
/// (rows ascending by canonical node id): each pass reads only the
/// previous pass's positions, so nodes are independent (each pass, like
/// the clamp, is a par::for_each), and the neighbour sum order is the
/// caller's-id order in any storage order and on every rank — the
/// property the distributed remap's bitwise contract rests on. The
/// ghost-aware overload calls the TargetSync hook after each pass (and
/// after the clamp) to overwrite non-owned entries with their owners'
/// values, since a fringe node's local adjacency row is incomplete.

#include <algorithm>
#include <limits>

#include "ale/remap.hpp"
#include "geom/geometry.hpp"

namespace bookleaf::ale {

namespace {

/// Build (lazily) the node -> edge-neighbour adjacency, each row
/// ascending by canonical node id.
const util::Csr& node_adjacency(const mesh::Mesh& mesh, Workspace& w) {
    if (w.node_adj.n_rows() != mesh.n_nodes()) {
        std::vector<std::pair<Index, Index>> pairs;
        pairs.reserve(mesh.faces.size() * 2);
        for (const auto& f : mesh.faces) {
            pairs.emplace_back(f.a, f.b);
            pairs.emplace_back(f.b, f.a);
        }
        w.node_adj = util::Csr::from_pairs(mesh.n_nodes(), pairs);
        auto& adj = w.node_adj;
        const auto row_begin = [&](Index n) {
            return adj.items.begin() + adj.offsets[static_cast<std::size_t>(n)];
        };
        for (Index n = 0; n < mesh.n_nodes(); ++n)
            std::sort(row_begin(n), row_begin(n + 1), [&](Index a, Index b) {
                return mesh.node_id(a) < mesh.node_id(b);
            });
    }
    return w.node_adj;
}

} // namespace

void alegetmesh(const hydro::Context& ctx, const hydro::State& s,
                const Options& opts, Workspace& w) {
    alegetmesh(ctx, s, opts, w, TargetSync());
}

void alegetmesh(const hydro::Context& ctx, const hydro::State& s,
                const Options& opts, Workspace& w, const TargetSync& sync) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::alegetmesh,
                                  ctx.mesh->n_nodes());
    const auto& mesh = *ctx.mesh;
    const auto nn = static_cast<std::size_t>(mesh.n_nodes());

    if (opts.mode == Mode::eulerian) {
        // The generation-time mesh: exact on every rank without any
        // communication (subdomains carry verbatim copies of the global
        // coordinates), so the sync hook is never needed here.
        w.xt.assign(mesh.x.begin(), mesh.x.end());
        w.yt.assign(mesh.y.begin(), mesh.y.end());
        return;
    }
    w.xt.assign(s.x.begin(), s.x.end());
    w.yt.assign(s.y.begin(), s.y.end());
    if (opts.mode == Mode::lagrange) return;

    // --- ALE: Jacobi smoothing toward the neighbour average -----------------
    const auto& adj = node_adjacency(mesh, w);
    w.next_x.resize(nn);
    w.next_y.resize(nn);
    for (int pass = 0; pass < opts.smoothing_passes; ++pass) {
        par::for_each(ctx.exec, mesh.n_nodes(), [&](Index n) {
            const auto ni = static_cast<std::size_t>(n);
            w.next_x[ni] = w.xt[ni];
            w.next_y[ni] = w.yt[ni];
            const auto row = adj.row(n);
            if (row.empty()) return;
            const auto mask = mesh.node_bc[ni];
            if (mask & mesh::bc::piston) return;
            Real ax = 0.0, ay = 0.0;
            for (const Index nb : row) {
                ax += w.xt[static_cast<std::size_t>(nb)];
                ay += w.yt[static_cast<std::size_t>(nb)];
            }
            const auto deg = static_cast<Real>(row.size());
            const Real mx = ax / deg;
            const Real my = ay / deg;
            if (!(mask & mesh::bc::fix_u))
                w.next_x[ni] = (Real(1) - opts.smoothing_weight) * w.xt[ni] +
                               opts.smoothing_weight * mx;
            if (!(mask & mesh::bc::fix_v))
                w.next_y[ni] = (Real(1) - opts.smoothing_weight) * w.yt[ni] +
                               opts.smoothing_weight * my;
        });
        w.xt.swap(w.next_x);
        w.yt.swap(w.next_y);
        if (sync) sync(w.xt, w.yt);
    }

    // --- clamp the total displacement --------------------------------------
    // Shortest incident edge per node. geom::length is bitwise symmetric
    // under sign flips, so a ghost copy of a node, which may measure an
    // edge from its other end, sees the same edge lengths as the owning
    // rank and clamps to the same bytes.
    par::for_each(ctx.exec, mesh.n_nodes(), [&](Index n) {
        const auto ni = static_cast<std::size_t>(n);
        Real min_edge = std::numeric_limits<Real>::max();
        for (const Index nb : adj.row(n)) {
            const auto bi = static_cast<std::size_t>(nb);
            min_edge = std::min(
                min_edge, geom::length(s.x[ni] - s.x[bi], s.y[ni] - s.y[bi]));
        }
        const Real dx = w.xt[ni] - s.x[ni];
        const Real dy = w.yt[ni] - s.y[ni];
        const Real d = geom::length(dx, dy);
        const Real dmax = opts.max_move_frac * min_edge;
        if (d > dmax && d > tiny) {
            const Real f = dmax / d;
            w.xt[ni] = s.x[ni] + f * dx;
            w.yt[ni] = s.y[ni] + f * dy;
        }
    });
    if (sync) sync(w.xt, w.yt);
}

} // namespace bookleaf::ale
