/// \file bench_micro_kernels.cpp
/// Google-benchmark microbenchmarks of the real hydro kernels on this
/// host — the measured counterpart of the performance model (and the
/// input to perfmodel::calibrate). Each benchmark reports per-cell cost
/// so different mesh sizes can be compared directly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>

#include "ale/advect_graph.hpp"
#include "ale/remap.hpp"
#include "assembly_ablation.hpp"
#include "hydro/kernels.hpp"
#include "hydro/stepgraph.hpp"
#include "mesh/generator.hpp"
#include "setup/problems.hpp"
#include "util/csr.hpp"

using namespace bookleaf;

namespace {

struct Rig {
    setup::Problem problem;
    hydro::State state;
    util::Profiler profiler;
    hydro::Context ctx;

    explicit Rig(Index n) : problem(setup::noh(n)) {
        state = hydro::allocate(problem.mesh);
        state.rho.assign(problem.rho.begin(), problem.rho.end());
        state.ein.assign(problem.ein.begin(), problem.ein.end());
        state.u.assign(problem.u.begin(), problem.u.end());
        state.v.assign(problem.v.begin(), problem.v.end());
        hydro::initialise(problem.mesh, problem.materials, state);
        ctx.mesh = &problem.mesh;
        ctx.materials = &problem.materials;
        ctx.opts = problem.hydro;
        ctx.profiler = &profiler;
        // A couple of steps so the state is dynamically interesting.
        hydro::StepGraph step(ctx, state);
        step.run(1e-4);
        step.run(1e-4);
    }
    [[nodiscard]] Index cells() const { return problem.mesh.n_cells(); }
    [[nodiscard]] Index nodes() const { return problem.mesh.n_nodes(); }
};

template <typename KernelFn>
void run_kernel_bench(benchmark::State& bench_state, KernelFn&& kernel) {
    Rig rig(static_cast<Index>(bench_state.range(0)));
    for (auto _ : bench_state) {
        kernel(rig);
        benchmark::ClobberMemory();
    }
    bench_state.counters["cells"] = static_cast<double>(
        rig.problem.mesh.n_cells());
    bench_state.SetItemsProcessed(bench_state.iterations() *
                                  rig.problem.mesh.n_cells());
}

} // namespace

#define KERNEL_BENCH(name, body)                                              \
    static void BM_##name(benchmark::State& s) {                              \
        run_kernel_bench(s, [](Rig& rig) { body; });                          \
    }                                                                          \
    BENCHMARK(BM_##name)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond)

KERNEL_BENCH(getq, hydro::getq(rig.ctx, rig.state, 0, rig.cells()));
KERNEL_BENCH(getforce, hydro::getforce(rig.ctx, rig.state, 0, rig.cells()));
KERNEL_BENCH(getacc, {
    hydro::getacc_assemble(rig.ctx, rig.state, 0, rig.nodes());
    hydro::getacc_advance_velocity(rig.ctx, rig.state, 1e-4, 0, rig.nodes());
    hydro::apply_velocity_bc(rig.problem.mesh, rig.ctx.opts, rig.state.u,
                             rig.state.v);
    hydro::getacc_centered(rig.ctx, rig.state, 0, rig.nodes());
    hydro::apply_velocity_bc(rig.problem.mesh, rig.ctx.opts, rig.state.ubar,
                             rig.state.vbar);
});
KERNEL_BENCH(getgeom, {
    std::atomic<Index> tangled{no_index};
    hydro::getgeom_move(rig.ctx, rig.state, rig.state.u0, rig.state.v0, 5e-5,
                        0, rig.nodes());
    hydro::getgeom_cells(rig.ctx, rig.state, 0, rig.cells(), tangled);
});
KERNEL_BENCH(getrho, hydro::getrho(rig.ctx, rig.state, 0, rig.cells()));
KERNEL_BENCH(getein, hydro::getein(rig.ctx, rig.state, rig.state.ubar,
                                   rig.state.vbar, 1e-4, 0, rig.cells()));
KERNEL_BENCH(getpc, hydro::getpc(rig.ctx, rig.state, 0, rig.cells()));
KERNEL_BENCH(getdt, benchmark::DoNotOptimize(
                        hydro::getdt(rig.ctx, rig.state, 1e-4)));

// The whole step: the serial driver's StepGraph, inline.
static void BM_lagstep(benchmark::State& s) {
    Rig rig(static_cast<Index>(s.range(0)));
    hydro::StepGraph step(rig.ctx, rig.state);
    for (auto _ : s) {
        step.run(1e-5);
        benchmark::ClobberMemory();
    }
    s.SetItemsProcessed(s.iterations() * rig.cells());
}
BENCHMARK(BM_lagstep)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Acceleration nodal assembly (the §IV-B data dependency): the paper's
// serial scatter (bench-local) vs the library's gather over node blocks
// dealt to 1 and 2 workers, on the Noh rig.
// ---------------------------------------------------------------------------

namespace {

void assembly_bench(benchmark::State& bench_state, bool scatter, int threads) {
    Rig rig(static_cast<Index>(bench_state.range(0)));
    par::ThreadPool pool(threads);
    const Index n = rig.nodes(), block = 64;
    for (auto _ : bench_state) {
        if (scatter) {
            bench::serial_scatter(rig.problem.mesh, rig.state);
        } else {
            pool.run([&](int tid) {
                for (Index b = tid * block; b < n; b += threads * block)
                    hydro::getacc_assemble(rig.ctx, rig.state, b,
                                           std::min(n, b + block));
            });
        }
        benchmark::ClobberMemory();
    }
    bench_state.counters["cells"] = static_cast<double>(rig.cells());
    bench_state.SetItemsProcessed(bench_state.iterations() * rig.cells());
}

} // namespace

#define ASSEMBLY_BENCH(name, scatter, threads)                                 \
    static void BM_getacc_##name(benchmark::State& s) {                        \
        assembly_bench(s, scatter, threads);                                   \
    }                                                                          \
    BENCHMARK(BM_getacc_##name)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond)

ASSEMBLY_BENCH(scatter_serial, true, 1);
ASSEMBLY_BENCH(gather_t1, false, 1);
ASSEMBLY_BENCH(gather_t2, false, 2);

static void BM_alestep_eulerian(benchmark::State& s) {
    Rig rig(static_cast<Index>(s.range(0)));
    ale::Options opts;
    opts.mode = ale::Mode::eulerian;
    ale::Workspace work;
    hydro::StepGraph step(rig.ctx, rig.state);
    ale::AdvectGraph advect(rig.ctx, rig.state, opts, work);
    for (auto _ : s) {
        step.run(1e-5);
        ale::alestep(rig.ctx, rig.state, opts, work, advect);
    }
    s.SetItemsProcessed(s.iterations() * rig.cells());
}
BENCHMARK(BM_alestep_eulerian)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
