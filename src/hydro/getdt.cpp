/// \file getdt.cpp
/// Timestep controller. Three candidate constraints:
///   * CFL: dt = cfl_sf * min_c ( L_c / c_eff ), c_eff^2 = c_s^2 + 2 q/rho
///     — the viscosity contribution follows the reference BookLeaf;
///   * divergence: dt = div_sf / max_c |dV/dt| / V (volume-change limit);
///   * growth: dt <= dt_growth * previous dt, and dt <= dt_max.
/// The min-reductions carry argmin (the Fortran MINVAL/MINLOC pair whose
/// `workshare` behaviour the paper discusses).

#include <cmath>

#include "geom/geometry.hpp"
#include "hydro/kernels.hpp"
#include "util/error.hpp"

namespace bookleaf::hydro {

DtResult getdt(const Context& ctx, const State& s, Real dt_prev) {
    const util::ScopedTimer timer(
        *ctx.profiler, util::Kernel::getdt,
        ctx.dt_cells >= 0 ? ctx.dt_cells : ctx.mesh->n_cells());
    const auto& mesh = *ctx.mesh;
    const auto& opts = ctx.opts;
    const Index n_cells =
        ctx.dt_cells >= 0 ? ctx.dt_cells : mesh.n_cells();
    // Equal candidates resolve to the lowest canonical id: the cell the
    // caller's numbering names, in any storage order.
    const auto canonical = [&](Index c) { return mesh.cell_id(c); };

    // --- CFL in squared space: minimise L^2 / c_eff^2 ----------------------
    const auto cfl = par::reduce_min(ctx.exec, n_cells, [&](Index c) {
        const auto ci = static_cast<std::size_t>(c);
        const Real rho = std::max(s.rho[ci], opts.dencut);
        const Real ceff2 = s.csqrd[ci] + Real(2.0) * s.q[ci] / rho;
        const Real l = s.char_len[ci];
        return l * l / std::max(ceff2, opts.cutoffs.ccut);
    }, canonical);

    // --- divergence (volume-change rate) limit ------------------------------
    // dV/dt = sum_i u_i . dV/dx_i exactly for shoelace volumes; minimise
    // the negated magnitude to find the fastest-changing cell.
    const auto negdiv = par::reduce_min(ctx.exec, n_cells, [&](Index c) {
        // Area gradients from the gathered-geometry cache (getgeom keeps
        // it in sync with the current node positions).
        const std::size_t base = State::cidx(c, 0);
        Real dvdt = 0.0;
        for (int k = 0; k < corners_per_cell; ++k) {
            const auto n = static_cast<std::size_t>(mesh.cn(c, k));
            const auto bk = base + static_cast<std::size_t>(k);
            dvdt += s.u[n] * s.cngx[bk] + s.v[n] * s.cngy[bk];
        }
        const auto ci = static_cast<std::size_t>(c);
        return -std::abs(dvdt) / std::max(s.volume[ci], tiny);
    }, canonical);

    DtResult result;
    result.dt = opts.cfl_sf * std::sqrt(std::max(cfl.value, Real(0.0)));
    result.cell = cfl.index == no_index ? no_index : canonical(cfl.index);
    result.reason = "CFL";

    const Real max_div = -negdiv.value;
    if (max_div > tiny) {
        const Real dt_div = opts.div_sf / max_div;
        if (dt_div < result.dt) {
            result.dt = dt_div;
            result.cell = canonical(negdiv.index);
            result.reason = "divergence";
        }
    }

    if (dt_prev > 0.0 && opts.dt_growth * dt_prev < result.dt) {
        result.dt = opts.dt_growth * dt_prev;
        result.cell = no_index;
        result.reason = "growth";
    }

    if (opts.dt_max < result.dt) {
        result.dt = opts.dt_max;
        result.cell = no_index;
        result.reason = "maximum";
    }

    if (result.dt < opts.dt_min)
        throw util::Error("getdt: timestep collapsed below dt_min (cell " +
                          std::to_string(result.cell) + ")");
    return result;
}

} // namespace bookleaf::hydro
