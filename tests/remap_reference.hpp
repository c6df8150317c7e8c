#pragma once
/// \file remap_reference.hpp
/// Test-local reference for the ALE remap. The library has one ALEADVECT,
/// ale::AdvectGraph; this is the plain phase sequence through the same
/// block forms over every cell, face and node in storage order — the
/// bytes the graph must land at any thread count, block size and rank
/// count.

#include <atomic>
#include <numeric>
#include <vector>

#include "ale/remap.hpp"
#include "hydro/kernels.hpp"

namespace remap_ref {

namespace ba = bookleaf::ale;
namespace bh = bookleaf::hydro;
using bookleaf::Index;

/// ALEADVECT as one sweep per phase.
inline void aleadvect(const bh::Context& ctx, bh::State& s,
                      const ba::Options& opts, ba::Workspace& w) {
    const auto& mesh = *ctx.mesh;
    const Index nc = mesh.n_cells();
    const auto ncs = static_cast<std::size_t>(nc);
    for (auto* field : {&w.cx, &w.cy, &w.grad_rho_x, &w.grad_rho_y,
                        &w.grad_e_x, &w.grad_e_y})
        field->resize(ncs);
    w.mflux.resize(mesh.faces.size());
    w.eflux.resize(mesh.faces.size());
    w.dflux.resize(ncs * bookleaf::corners_per_cell);
    std::vector<Index> faces(mesh.faces.size());
    std::iota(faces.begin(), faces.end(), Index{0});
    std::vector<Index> nodes(static_cast<std::size_t>(mesh.n_nodes()));
    std::iota(nodes.begin(), nodes.end(), Index{0});
    w.pmx.resize(nodes.size());
    w.pmy.resize(nodes.size());
    w.nmass.resize(nodes.size());

    ba::aleadvect_centroids(ctx, s, w, 0, nc);
    ba::aleadvect_gradients(ctx, s, opts, w, 0, nc);
    ba::aleadvect_fluxes(ctx, s, opts, w, faces);
    ba::aleadvect_cells(ctx, s, w, 0, nc);
    std::atomic<long> floored{0};
    ba::aleadvect_dual(ctx, s, w, 0, nc, floored);
    ba::aleadvect_node_gather(ctx, s, w, nodes);
    ba::aleadvect_node_write(ctx, s, w, nodes);
    bh::apply_velocity_bc(mesh, ctx.opts, s.u, s.v);
}

/// Algorithm 1's ALE step with the reference ALEADVECT.
inline void alestep(const bh::Context& ctx, bh::State& s,
                    const ba::Options& opts, ba::Workspace& w) {
    if (opts.mode == ba::Mode::lagrange) return;
    ba::alegetmesh(ctx, s, opts, w);
    ba::alegetfvol(ctx, s, w);
    aleadvect(ctx, s, opts, w);
    ba::aleupdate(ctx, s, w);
}

} // namespace remap_ref
