/// \file update.cpp
/// ALEUPDATE: move the state onto the target mesh and rebuild the
/// dependent variables (geometry, density, EoS). Cells are independent,
/// so the rebuild runs as a par::for_each.

#include <atomic>

#include "ale/remap.hpp"
#include "util/error.hpp"

namespace bookleaf::ale {

void aleupdate(const hydro::Context& ctx, hydro::State& s, Workspace& w) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleupdate,
                                  ctx.mesh->n_cells());
    const auto& mesh = *ctx.mesh;
    const auto& materials = *ctx.materials;

    s.x.assign(w.xt.begin(), w.xt.end());
    s.y.assign(w.yt.begin(), w.yt.end());
    s.x0 = s.x;
    s.y0 = s.y;

    std::atomic<Index> bad_cell{no_index};
    par::for_each(ctx.exec, mesh.n_cells(), [&](Index c) {
        const auto ci = static_cast<std::size_t>(c);
        const Real vol = s.rebuild_geometry(mesh, c); // remap moved the nodes
        if (vol <= 0.0) par::record_lowest(bad_cell, c);
        s.rho[ci] = s.cell_mass[ci] / vol;
        const Index r = mesh.cell_region[ci];
        s.pre[ci] = materials.pressure(r, s.rho[ci], s.ein[ci]);
        s.csqrd[ci] = materials.sound_speed2(r, s.rho[ci], s.ein[ci]);
    });
    if (bad_cell.load() != no_index)
        throw util::Error("aleupdate: non-positive volume in cell " +
                          std::to_string(bad_cell.load()));
}

void alestep(const hydro::Context& ctx, hydro::State& s, const Options& opts,
             Workspace& w) {
    if (opts.mode == Mode::lagrange) return;
    alegetmesh(ctx, s, opts, w);
    alegetfvol(ctx, s, w);
    aleadvect(ctx, s, opts, w);
    aleupdate(ctx, s, w);
}

} // namespace bookleaf::ale
