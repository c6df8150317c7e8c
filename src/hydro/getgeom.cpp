#include <atomic>

#include "hydro/kernels.hpp"

namespace bookleaf::hydro {

void getgeom_move(const Context& ctx, State& s, std::span<const Real> wu,
                  std::span<const Real> wv, Real dt_move, Index begin,
                  Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getgeom,
                                  end - begin);
    for (Index n = begin; n < end; ++n) {
        const auto ni = static_cast<std::size_t>(n);
        s.x[ni] = s.x0[ni] + wu[ni] * dt_move;
        s.y[ni] = s.y0[ni] + wv[ni] * dt_move;
    }
}

void getgeom_cells(const Context& ctx, State& s, Index begin, Index end,
                   std::atomic<Index>& bad_cell) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getgeom,
                                  end - begin);
    const auto& mesh = *ctx.mesh;
    for (Index c = begin; c < end; ++c)
        if (s.rebuild_geometry(mesh, c) <= 0.0)
            par::record_lowest(bad_cell, mesh.cell_id(c));
}

void getrho(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getrho,
                                  end - begin);
    for (Index c = begin; c < end; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        s.rho[ci] = s.cell_mass[ci] / std::max(s.volume[ci], tiny);
    }
}

void getpc(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getpc,
                                  end - begin);
    const auto& mesh = *ctx.mesh;
    const auto& materials = *ctx.materials;
    for (Index c = begin; c < end; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const Index r = mesh.cell_region[ci];
        s.pre[ci] = materials.pressure(r, s.rho[ci], s.ein[ci]);
        s.csqrd[ci] = materials.sound_speed2(r, s.rho[ci], s.ein[ci]);
    }
}

void getein(const Context& ctx, State& s, std::span<const Real> wu,
            std::span<const Real> wv, Real dt_eff, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getein,
                                  end - begin);
    const auto& mesh = *ctx.mesh;
    for (Index c = begin; c < end; ++c) {
        Real work = 0.0;
        for (int k = 0; k < corners_per_cell; ++k) {
            const auto n = static_cast<std::size_t>(mesh.cn(c, k));
            const auto ki = State::cidx(c, k);
            work += s.fx[ki] * wu[n] + s.fy[ki] * wv[n];
        }
        const auto ci = static_cast<std::size_t>(c);
        s.ein[ci] =
            s.ein0[ci] - dt_eff * work / std::max(s.cell_mass[ci], tiny);
    }
}

void apply_velocity_bc(const mesh::Mesh& mesh, const Options& opts,
                       std::span<Real> u, std::span<Real> v) {
    for (Index n = 0; n < mesh.n_nodes(); ++n) {
        const auto mask = mesh.node_bc[static_cast<std::size_t>(n)];
        if (mask == mesh::bc::none) continue;
        const auto ni = static_cast<std::size_t>(n);
        if (mask & mesh::bc::piston) {
            u[ni] = opts.piston_u;
            v[ni] = opts.piston_v;
            continue;
        }
        if (mask & mesh::bc::fix_u) u[ni] = 0.0;
        if (mask & mesh::bc::fix_v) v[ni] = 0.0;
    }
}

} // namespace bookleaf::hydro
