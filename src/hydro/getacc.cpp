/// \file getacc.cpp
/// Acceleration kernel. Assembles nodal masses and forces from corner
/// data, applies kinematic boundary conditions, advances velocities by dt,
/// and forms the time-centred velocities used by the corrector's geometry
/// and energy updates.
///
/// The corner->node assembly is the data dependency the paper highlights
/// (§IV-B): written as a scatter (cells deposit into shared nodes) it
/// races under threading, so the reference OpenMP port leaves the loop
/// unparallelised. The default here transposes the assembly into a gather
/// over nodes using the mesh's node->(cell, corner) CSR: each node sums
/// its incident corner contributions independently — embarrassingly
/// parallel, no colouring barriers, and bitwise identical to the serial
/// scatter at any thread count because CSR rows list corners in exactly
/// the scatter's deposition order. The gather also fuses the zeroing of
/// node_mass/nfx/nfy into the assembly loop (the serial scatter must
/// pre-zero in a separate parallel pass).
///
/// The paper-faithful behaviour remains selectable through
/// `Exec::assembly` as the §IV-B ablation baseline: `serial_scatter`, the
/// reference data dependency.

#include "hydro/kernels.hpp"
#include "util/error.hpp"

namespace bookleaf::hydro {

namespace {

/// Scatter one cell's corner masses and forces into the nodal arrays.
inline void scatter_cell(const mesh::Mesh& mesh, State& s, Index c,
                         std::span<Real> nm) {
    for (int k = 0; k < corners_per_cell; ++k) {
        const auto n = static_cast<std::size_t>(mesh.cn(c, k));
        const auto ki = State::cidx(c, k);
        nm[n] += s.cnmass[ki];
        s.nfx[n] += s.fx[ki];
        s.nfy[n] += s.fy[ki];
    }
}

/// Gather one node's corner masses and forces (fused zero+accumulate).
inline void gather_node(const util::Csr& nc, State& s, Index n) {
    Real m = 0.0, fx = 0.0, fy = 0.0;
    for (const Index ck : nc.row(n)) {
        const auto ki = static_cast<std::size_t>(ck);
        m += s.cnmass[ki];
        fx += s.fx[ki];
        fy += s.fy[ki];
    }
    const auto ni = static_cast<std::size_t>(n);
    s.node_mass[ni] = m;
    s.nfx[ni] = fx;
    s.nfy[ni] = fy;
}

/// Gather-based assembly: one pass over nodes, zero+accumulate fused.
/// Rows ascend by canonical corner id, so on a renumbered mesh and on a
/// subdomain alike the sums run in the serial deposition order — bitwise
/// identical to the serial run.
void assemble_gather(const Context& ctx, State& s, Index n_nodes) {
    const auto& nc = ctx.mesh->node_corners;
    par::for_each(ctx.exec, n_nodes,
                  [&](Index n) { gather_node(nc, s, n); });
}

/// The reference serial scatter assembly, for the §IV-B ablation. Cells
/// deposit in ascending canonical id (ctx.scatter_cells, or storage order
/// on a mesh without ids), the order the gather's rows replay, so the two
/// stay bitwise equal.
void assemble_scatter(const Context& ctx, State& s, Index n_nodes,
                      Index n_cells) {
    const auto& mesh = *ctx.mesh;
    util::require(ctx.scatter_cells.empty()
                      ? mesh.cell_ids.empty()
                      : ctx.scatter_cells.size() ==
                            static_cast<std::size_t>(n_cells),
                  "getacc: a renumbered mesh needs ctx.scatter_cells");
    // Zero in parallel; the scatter itself is the data dependency and
    // stays serial.
    par::for_each(ctx.exec, n_nodes, [&](Index n) {
        const auto ni = static_cast<std::size_t>(n);
        s.node_mass[ni] = 0.0;
        s.nfx[ni] = 0.0;
        s.nfy[ni] = 0.0;
    });
    if (ctx.scatter_cells.empty()) {
        for (Index c = 0; c < n_cells; ++c)
            scatter_cell(mesh, s, c, s.node_mass);
    } else {
        for (const Index c : ctx.scatter_cells)
            scatter_cell(mesh, s, c, s.node_mass);
    }
}

} // namespace

void getacc_assemble(const Context& ctx, State& s,
                     std::span<const Index> nodes) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  static_cast<long long>(nodes.size()));
    const auto& nc = ctx.mesh->node_corners;
    par::for_each(ctx.exec, static_cast<Index>(nodes.size()), [&](Index i) {
        gather_node(nc, s, nodes[static_cast<std::size_t>(i)]);
    });
}

void getacc_assemble(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  end - begin);
    const auto& nc = ctx.mesh->node_corners;
    for (Index n = begin; n < end; ++n) gather_node(nc, s, n);
}

void getacc_advance_velocity(const Context& ctx, State& s, Real dt,
                             Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  end - begin);
    for (Index n = begin; n < end; ++n) {
        const auto ni = static_cast<std::size_t>(n);
        const Real m = s.node_mass[ni];
        Real un, vn;
        if (m > tiny) {
            un = s.u0[ni] + dt * s.nfx[ni] / m;
            vn = s.v0[ni] + dt * s.nfy[ni] / m;
        } else {
            un = s.u0[ni];
            vn = s.v0[ni];
        }
        s.u[ni] = un;
        s.v[ni] = vn;
    }
}

void getacc_centered(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  end - begin);
    for (Index n = begin; n < end; ++n) {
        const auto ni = static_cast<std::size_t>(n);
        s.ubar[ni] = Real(0.5) * (s.u0[ni] + s.u[ni]);
        s.vbar[ni] = Real(0.5) * (s.v0[ni] + s.v[ni]);
    }
}

namespace {

/// Velocity advance + BCs + time-centred velocities (untimed core shared
/// by getacc and getacc_advance so the full kernel charges one profiler
/// call, not two).
void advance_nodes(const Context& ctx, State& s, Real dt) {
    const auto& mesh = *ctx.mesh;
    const Index n_nodes = mesh.n_nodes();

    // Advance velocities; form time-centred velocities.
    par::for_each(ctx.exec, n_nodes, [&](Index n) {
        const auto ni = static_cast<std::size_t>(n);
        const Real m = s.node_mass[ni];
        Real un, vn;
        if (m > tiny) {
            un = s.u0[ni] + dt * s.nfx[ni] / m;
            vn = s.v0[ni] + dt * s.nfy[ni] / m;
        } else {
            un = s.u0[ni];
            vn = s.v0[ni];
        }
        s.u[ni] = un;
        s.v[ni] = vn;
    });

    apply_velocity_bc(mesh, ctx.opts, s.u, s.v);

    par::for_each(ctx.exec, n_nodes, [&](Index n) {
        const auto ni = static_cast<std::size_t>(n);
        s.ubar[ni] = Real(0.5) * (s.u0[ni] + s.u[ni]);
        s.vbar[ni] = Real(0.5) * (s.v0[ni] + s.v[ni]);
    });
    apply_velocity_bc(mesh, ctx.opts, s.ubar, s.vbar);
}

} // namespace

void getacc_advance(const Context& ctx, State& s, Real dt) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  ctx.mesh->n_nodes());
    advance_nodes(ctx, s, dt);
}

void getacc(const Context& ctx, State& s, Real dt) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  ctx.mesh->n_nodes());
    const auto& mesh = *ctx.mesh;
    if (ctx.exec.assembly == par::Assembly::gather)
        assemble_gather(ctx, s, mesh.n_nodes());
    else
        assemble_scatter(ctx, s, mesh.n_nodes(), mesh.n_cells());
    advance_nodes(ctx, s, dt);
}

} // namespace bookleaf::hydro
