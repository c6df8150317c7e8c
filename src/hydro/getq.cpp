/// \file getq.cpp
/// Edge-centred monotonic artificial viscosity following Caramana,
/// Shashkov & Whalen [28]. For every cell edge in compression a
/// quadratic+linear viscosity is applied as an equal-and-opposite force
/// pair on the edge's nodes; a van-Leer-style limiter built from the
/// *continuation* edges (through each endpoint, into the face-neighbour
/// cells) switches the viscosity off in smooth / uniform-strain flow. The
/// continuation edges come from the mesh's precomputed
/// `mesh::Mesh::continuation` table (topology never changes mid-run).
///
/// This is the kernel that needs ghost data in distributed runs (the
/// halo exchange immediately before GETQ in the paper's Algorithm 1).

#include <array>
#include <cmath>

#include "geom/geometry.hpp"
#include "hydro/kernels.hpp"

namespace bookleaf::hydro {

namespace {

/// The per-cell viscosity computation. Writes only cell c's corner forces
/// and q scalar, so any disjoint cover of the cell range (full sweep or
/// the distributed driver's boundary/interior split) produces bitwise
/// identical results in any order.
inline void q_cell(const mesh::Mesh& mesh, const Options& opts, State& s,
                   Index c) {
    const Real cq = opts.cq;
    const Real cl = opts.cl;
    const auto ci = static_cast<std::size_t>(c);
    const std::size_t base = State::cidx(c, 0);
    std::array<Real, 4> qfx{}, qfy{}; // corner forces, summed from +0.0
    Real q_max = 0.0;
    const Real cs = std::sqrt(std::max(s.csqrd[ci], Real(0.0)));

    for (int k = 0; k < corners_per_cell; ++k) {
        const int k1 = (k + 1) % corners_per_cell;
        const Index a = mesh.cn(c, k);
        const Index b = mesh.cn(c, k1);
        const auto ai = static_cast<std::size_t>(a);
        const auto bi = static_cast<std::size_t>(b);

        const Real du = s.u[bi] - s.u[ai];
        const Real dv = s.v[bi] - s.v[ai];
        const Real du2 = du * du + dv * dv;
        if (du2 < tiny) continue;

        // Compression switch: nodes approaching along the edge. Edge
        // vectors come from the gathered-geometry cache (contiguous),
        // not from indirect node loads.
        const auto kk = static_cast<std::size_t>(k);
        const auto kk1 = static_cast<std::size_t>(k1);
        const Real ex = s.cnx[base + kk1] - s.cnx[base + kk];
        const Real ey = s.cny[base + kk1] - s.cny[base + kk];
        if (du * ex + dv * ey >= 0.0) continue;

        // Monotonicity limiter from the continuation edges, both
        // oriented like a -> b: the "previous" one runs from its far node
        // into a (inside the neighbour across face k-1), the "next" one
        // from b out to its far node (across face k+1).
        const Index pf = mesh.continuation_node(c, k, 0);
        const Index nf = mesh.continuation_node(c, k, 1);

        Real psi = 0.0;
        if (pf != no_index || nf != no_index) {
            // Velocity difference along from -> to, projected on du.
            const auto ratio = [&](Index from, Index to) {
                const auto fi = static_cast<std::size_t>(from);
                const auto ti = static_cast<std::size_t>(to);
                return ((s.u[ti] - s.u[fi]) * du + (s.v[ti] - s.v[fi]) * dv) /
                       du2;
            };
            const Real rp = pf != no_index ? ratio(pf, a) : ratio(b, nf);
            const Real rn = nf != no_index ? ratio(b, nf) : rp;
            psi = std::min({Real(1.0), Real(0.5) * (rp + rn),
                            Real(2.0) * rp, Real(2.0) * rn});
            psi = std::max(psi, Real(0.0));
        }

        const Real dunorm = std::sqrt(du2);
        const Real q_edge = (Real(1.0) - psi) * s.rho[ci] *
                            (cq * du2 + cl * cs * dunorm);

        const Real edge_len = geom::length(ex, ey);
        const Real mu = q_edge * edge_len / std::max(dunorm, tiny);

        // Equal-and-opposite dissipative pair force along du.
        qfx[kk] += mu * du;
        qfy[kk] += mu * dv;
        qfx[kk1] -= mu * du;
        qfy[kk1] -= mu * dv;

        q_max = std::max(q_max, q_edge);
    }
    for (std::size_t k = 0; k < 4; ++k) {
        s.qfx[base + k] = qfx[k];
        s.qfy[base + k] = qfy[k];
    }
    s.q[ci] = q_max;
}

} // namespace

void getq(const Context& ctx, State& s) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getq,
                                  ctx.mesh->n_cells());
    const auto& mesh = *ctx.mesh;
    par::for_each(ctx.exec, mesh.n_cells(),
                  [&](Index c) { q_cell(mesh, ctx.opts, s, c); });
}

void getq(const Context& ctx, State& s, std::span<const Index> cells) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getq,
                                  static_cast<long long>(cells.size()));
    const auto& mesh = *ctx.mesh;
    par::for_each(ctx.exec, static_cast<Index>(cells.size()), [&](Index i) {
        q_cell(mesh, ctx.opts, s, cells[static_cast<std::size_t>(i)]);
    });
}

void getq(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getq,
                                  end - begin);
    const auto& mesh = *ctx.mesh;
    for (Index c = begin; c < end; ++c) q_cell(mesh, ctx.opts, s, c);
}

} // namespace bookleaf::hydro
