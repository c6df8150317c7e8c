#pragma once
/// \file hydro_reference.hpp
/// Test-local references for the hydro kernels. The library has one form
/// per kernel, the block form over [begin, end), and one step shape,
/// hydro::StepGraph; these compose the block forms over the whole mesh and
/// keep the paper's §IV-B serial scatter, which the library's gather must
/// equal bit for bit, as the nodal assembly of a plain predictor-corrector
/// step.

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "hydro/kernels.hpp"
#include "mesh/mesh.hpp"
#include "util/error.hpp"

namespace hydro_ref {

namespace bh = bookleaf::hydro;
using bookleaf::Index;
using bookleaf::Real;

/// GETGEOM over the whole mesh: every node moved, every cell rebuilt, then
/// the tangle check StepGraph's check task makes.
inline void getgeom(const bh::Context& ctx, bh::State& s,
                    std::span<const Real> wu, std::span<const Real> wv,
                    Real dt_move) {
    bh::getgeom_move(ctx, s, wu, wv, dt_move, 0, ctx.mesh->n_nodes());
    std::atomic<Index> bad{bookleaf::no_index};
    bh::getgeom_cells(ctx, s, 0, ctx.mesh->n_cells(), bad);
    if (bad.load() != bookleaf::no_index && !ctx.opts.guard.enabled)
        throw bookleaf::util::Error("getgeom: non-positive volume in cell " +
                                    std::to_string(bad.load()));
}

/// The paper's serial scatter: cells deposit their corner masses and
/// forces into their nodes, in ascending canonical cell id (storage order
/// on a mesh without ids). It races under threads; the library's gather
/// replays its order per node.
inline void scatter(const bookleaf::mesh::Mesh& mesh, bh::State& s) {
    std::fill(s.node_mass.begin(), s.node_mass.end(), 0.0);
    std::fill(s.nfx.begin(), s.nfx.end(), 0.0);
    std::fill(s.nfy.begin(), s.nfy.end(), 0.0);
    std::vector<Index> order(static_cast<std::size_t>(mesh.n_cells()));
    for (Index c = 0; c < mesh.n_cells(); ++c)
        order[static_cast<std::size_t>(c)] = c;
    if (!mesh.cell_ids.empty())
        order = bookleaf::mesh::canonical_order(mesh.cell_ids, mesh.n_cells());
    for (const Index c : order)
        for (int k = 0; k < bookleaf::corners_per_cell; ++k) {
            const auto n = static_cast<std::size_t>(mesh.cn(c, k));
            const auto ki = bh::State::cidx(c, k);
            s.node_mass[n] += s.cnmass[ki];
            s.nfx[n] += s.fx[ki];
            s.nfy[n] += s.fy[ki];
        }
}

/// GETACC over the whole mesh, with the gather or the serial scatter as
/// its assembly.
inline void getacc(const bh::Context& ctx, bh::State& s, Real dt,
                   bool serial_scatter = false) {
    const Index n = ctx.mesh->n_nodes();
    if (serial_scatter)
        scatter(*ctx.mesh, s);
    else
        bh::getacc_assemble(ctx, s, 0, n);
    bh::getacc_advance_velocity(ctx, s, dt, 0, n);
    bh::apply_velocity_bc(*ctx.mesh, ctx.opts, s.u, s.v);
    bh::getacc_centered(ctx, s, 0, n);
    bh::apply_velocity_bc(*ctx.mesh, ctx.opts, s.ubar, s.vbar);
}

/// Algorithm 1's LAGSTEP as the plain kernel sequence over the whole mesh,
/// the serial scatter as its nodal assembly: the byte reference for
/// hydro::StepGraph.
inline void lagstep(const bh::Context& ctx, bh::State& s, Real dt) {
    s.x0 = s.x;
    s.y0 = s.y;
    s.u0 = s.u;
    s.v0 = s.v;
    s.ein0 = s.ein;
    const Index nc = ctx.mesh->n_cells();
    const Real half_dt = Real(0.5) * dt;

    bh::getq(ctx, s, 0, nc);
    bh::getforce(ctx, s, 0, nc);
    getgeom(ctx, s, s.u0, s.v0, half_dt);
    bh::getrho(ctx, s, 0, nc);
    bh::getein(ctx, s, s.u0, s.v0, half_dt, 0, nc);
    bh::getpc(ctx, s, 0, nc);

    bh::getq(ctx, s, 0, nc, bh::Phase::corrector);
    bh::getforce(ctx, s, 0, nc);
    getacc(ctx, s, dt, /*serial_scatter=*/true);
    getgeom(ctx, s, s.ubar, s.vbar, dt);
    bh::getrho(ctx, s, 0, nc);
    bh::getein(ctx, s, s.ubar, s.vbar, dt, 0, nc);
    bh::getpc(ctx, s, 0, nc);
}

} // namespace hydro_ref
