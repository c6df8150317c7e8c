#pragma once
/// \file assembly_ablation.hpp
/// The §IV-B ablation's two nodal assemblies, timed on one state: the
/// paper's serial scatter (bench-local — the library keeps only the
/// gather) and the library's gather, over node blocks dealt to a pool.
/// Shared by bench_ablation_acceleration and bench_fig2_kernels.

#include <algorithm>
#include <cstring>
#include <vector>

#include "hydro/kernels.hpp"
#include "hydro/stepgraph.hpp"
#include "par/thread_pool.hpp"
#include "setup/problems.hpp"
#include "util/timer.hpp"

namespace bookleaf::bench {

/// The serial scatter: cells deposit their corner masses and forces into
/// their nodes in storage order (canonical on a mesh without ids).
inline void serial_scatter(const mesh::Mesh& mesh, hydro::State& s) {
    std::fill(s.node_mass.begin(), s.node_mass.end(), 0.0);
    std::fill(s.nfx.begin(), s.nfx.end(), 0.0);
    std::fill(s.nfy.begin(), s.nfy.end(), 0.0);
    for (Index c = 0; c < mesh.n_cells(); ++c)
        for (int k = 0; k < corners_per_cell; ++k) {
            const auto n = static_cast<std::size_t>(mesh.cn(c, k));
            const auto ki = hydro::State::cidx(c, k);
            s.node_mass[n] += s.cnmass[ki];
            s.nfx[n] += s.fx[ki];
            s.nfy[n] += s.fy[ki];
        }
}

/// A problem advanced `steps` Lagrangian steps at the controller's dt.
struct AssemblyRig {
    setup::Problem problem;
    hydro::State s;
    util::Profiler profiler;
    hydro::Context ctx;

    AssemblyRig(setup::Problem p, int steps) : problem(std::move(p)) {
        s = hydro::allocate(problem.mesh);
        s.rho.assign(problem.rho.begin(), problem.rho.end());
        s.ein.assign(problem.ein.begin(), problem.ein.end());
        s.u.assign(problem.u.begin(), problem.u.end());
        s.v.assign(problem.v.begin(), problem.v.end());
        hydro::initialise(problem.mesh, problem.materials, s);
        ctx.mesh = &problem.mesh;
        ctx.materials = &problem.materials;
        ctx.opts = problem.hydro;
        ctx.profiler = &profiler;
        hydro::StepGraph step(ctx, s);
        Real dt = problem.hydro.dt_initial;
        for (int i = 0; i < steps; ++i) {
            if (i > 0) dt = hydro::getdt(ctx, s, dt).dt;
            step.run(dt);
        }
    }
};

struct AssemblyTimes {
    double scatter_s = 0.0; ///< `calls` serial scatters
    double gather_s = 0.0;  ///< `calls` gathers on the pool
    bool bitwise = false;   ///< node_mass, nfx and nfy equal bit for bit
};

/// Time `calls` serial scatters and `calls` gathers over `pool` (blocks of
/// 64 nodes dealt round-robin to its workers) on the rig's state.
inline AssemblyTimes time_assembly(AssemblyRig& rig, int calls,
                                   par::ThreadPool& pool) {
    auto& s = rig.s;
    const auto& mesh = rig.problem.mesh;
    AssemblyTimes t;
    util::Timer scatter;
    for (int i = 0; i < calls; ++i) serial_scatter(mesh, s);
    t.scatter_s = scatter.elapsed();
    const std::vector<Real> m(s.node_mass.begin(), s.node_mass.end()),
        fx(s.nfx.begin(), s.nfx.end()), fy(s.nfy.begin(), s.nfy.end());

    const Index n = mesh.n_nodes(), block = 64;
    const int workers = pool.size();
    util::Timer gather;
    for (int i = 0; i < calls; ++i)
        pool.run([&](int tid) {
            for (Index b = tid * block; b < n; b += workers * block)
                hydro::getacc_assemble(rig.ctx, s, b, std::min(n, b + block));
        });
    t.gather_s = gather.elapsed();
    const auto same = [](const hydro::Field& got,
                         const std::vector<Real>& want) {
        return std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(Real)) == 0;
    };
    t.bitwise = same(s.node_mass, m) && same(s.nfx, fx) && same(s.nfy, fy);
    return t;
}

} // namespace bookleaf::bench
