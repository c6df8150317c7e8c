/// \file getacc.cpp
/// Acceleration kernel. Assembles nodal masses and forces from corner
/// data, advances velocities by dt, and forms the time-centred velocities
/// used by the corrector's geometry and energy updates; hydro::StepGraph
/// applies the kinematic boundary conditions between the pieces.
///
/// The corner->node assembly is the data dependency the paper highlights
/// (§IV-B): written as a scatter (cells deposit into shared nodes) it
/// races under threading, so the reference OpenMP port leaves the loop
/// unparallelised. Here it is transposed into a gather over nodes using
/// the mesh's node->(cell, corner) CSR: each node sums its incident corner
/// contributions independently — embarrassingly parallel, no colouring
/// barriers, and bitwise identical to the serial scatter at any thread
/// count because CSR rows list corners in exactly the scatter's
/// deposition order. The gather also fuses the zeroing of
/// node_mass/nfx/nfy into the assembly loop. The scatter itself survives
/// only as the reference the tests and the §IV-B benches compare against.

#include "hydro/kernels.hpp"

namespace bookleaf::hydro {

void getacc_assemble(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  end - begin);
    // Rows ascend by canonical corner id, so on a renumbered mesh and on a
    // subdomain alike the sums run in the serial deposition order.
    const auto& nc = ctx.mesh->node_corners;
    for (Index n = begin; n < end; ++n) {
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
}

// The two pieces below sweep the nodes the assembly already counted, so
// they charge time but no items: one getacc item per node per step.

void getacc_advance_velocity(const Context& ctx, State& s, Real dt,
                             Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc);
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
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc);
    for (Index n = begin; n < end; ++n) {
        const auto ni = static_cast<std::size_t>(n);
        s.ubar[ni] = Real(0.5) * (s.u0[ni] + s.u[ni]);
        s.vbar[ni] = Real(0.5) * (s.v0[ni] + s.v[ni]);
    }
}

} // namespace bookleaf::hydro
