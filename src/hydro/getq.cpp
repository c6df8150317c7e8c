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
/// The limiter reads only node velocities and topology, and no velocity
/// is written between a step's predictor and corrector calls, so the
/// predictor stores it per edge (State::psi) and the corrector reads it
/// back. Both phases skip a fully limited edge (psi == 1) whose force is
/// provably +-0: its corner sums and q would not change by a bit.
///
/// This is the kernel that needs ghost data in distributed runs (the
/// halo exchange immediately before GETQ in the paper's Algorithm 1).

#include <algorithm>
#include <array>
#include <cmath>

#include "geom/geometry.hpp"
#include "hydro/kernels.hpp"

namespace bookleaf::hydro {

namespace {

/// What the predictor stores for a moving edge that does not compress
/// under the step-start geometry. A computed limiter is >= 0, -0.0 or
/// NaN, so `psi < 0` selects only this value.
constexpr Real psi_unset = -1.0;

/// Bound on each factor of a fully limited edge's force (rho excepted,
/// which need only be finite): under it no product can overflow, so
/// (1 - 1) * rho * (cq*du2 + cl*cs*|du|) * |e| / |du| is exactly +-0.
constexpr Real skip_bound = 1.0e100;

/// Monotonicity limiter of edge k (a -> b) of cell c from its
/// continuation edges, both oriented like a -> b: the "previous" one runs
/// from its far node into a (inside the neighbour across face k-1), the
/// "next" one from b out to its far node (across face k+1). An edge with
/// neither gets 0. Reads only u, v and topology.
inline Real limiter(const mesh::Mesh& mesh, const State& s, Index c, int k,
                    Index a, Index b, Real du, Real dv, Real du2) {
    const Index pf = mesh.continuation_node(c, k, 0);
    const Index nf = mesh.continuation_node(c, k, 1);
    if (pf == no_index && nf == no_index) return 0.0;

    // Velocity difference along from -> to, projected on du.
    const auto ratio = [&](Index from, Index to) {
        const auto fi = static_cast<std::size_t>(from);
        const auto ti = static_cast<std::size_t>(to);
        return ((s.u[ti] - s.u[fi]) * du + (s.v[ti] - s.v[fi]) * dv) / du2;
    };
    const Real rp = pf != no_index ? ratio(pf, a) : ratio(b, nf);
    const Real rn = nf != no_index ? ratio(b, nf) : rp;
    const Real psi = std::min({Real(1.0), Real(0.5) * (rp + rn),
                               Real(2.0) * rp, Real(2.0) * rn});
    return std::max(psi, Real(0.0));
}

/// The per-cell viscosity computation. Writes only cell c's corner forces,
/// limiters and q scalar, so any disjoint cover of the cell range produces
/// bitwise identical results in any order.
template <Phase phase>
inline void q_cell(const mesh::Mesh& mesh, const Options& opts, State& s,
                   Index c) {
    const Real cq = opts.cq;
    const Real cl = opts.cl;
    const auto ci = static_cast<std::size_t>(c);
    const std::size_t base = State::cidx(c, 0);
    std::array<Real, 4> qfx{}, qfy{}; // corner forces, summed from +0.0
    Real q_max = 0.0;
    const Real rho = s.rho[ci];
    const Real cs = std::sqrt(std::max(s.csqrd[ci], Real(0.0)));
    // The per-cell half of the skip guard (the per-edge half bounds du2
    // and |e|^2).
    const bool bounded = std::isfinite(rho) && cs <= skip_bound &&
                         std::abs(cq) <= skip_bound &&
                         std::abs(cl) <= skip_bound;

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
        if (du * ex + dv * ey >= 0.0) {
            if constexpr (phase == Phase::predictor)
                s.psi[base + kk] = psi_unset;
            continue;
        }

        // The corrector recomputes only for an edge that starts
        // compressing under the half-step geometry.
        Real psi;
        if constexpr (phase == Phase::corrector) {
            psi = s.psi[base + kk];
            if (psi < 0.0) psi = limiter(mesh, s, c, k, a, b, du, dv, du2);
        } else {
            psi = limiter(mesh, s, c, k, a, b, du, dv, du2);
            s.psi[base + kk] = psi;
        }

        // A fully limited edge contributes +-0 to every sum below, and
        // +-0 added to a +0.0-seeded round-to-nearest sum (never -0.0)
        // changes no bit; so does max(q_max, +-0). Inf or NaN inputs
        // would make the zero a NaN, so they take the full path.
        if (psi == Real(1.0) && bounded && du2 <= skip_bound &&
            ex * ex + ey * ey <= skip_bound)
            continue;

        const Real dunorm = std::sqrt(du2);
        const Real q_edge =
            (Real(1.0) - psi) * rho * (cq * du2 + cl * cs * dunorm);

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

void getq(const Context& ctx, State& s, Index begin, Index end, Phase phase) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getq,
                                  end - begin);
    // The phase is fixed per call, so each loop inlines its own cell body.
    if (phase == Phase::corrector)
        for (Index c = begin; c < end; ++c)
            q_cell<Phase::corrector>(*ctx.mesh, ctx.opts, s, c);
    else
        for (Index c = begin; c < end; ++c)
            q_cell<Phase::predictor>(*ctx.mesh, ctx.opts, s, c);
}

} // namespace bookleaf::hydro
