/// \file bench_micro_kernels.cpp
/// Google-benchmark microbenchmarks of the real hydro kernels on this
/// host — the measured counterpart of the performance model (and the
/// input to perfmodel::calibrate). Each benchmark reports per-cell cost
/// so different mesh sizes can be compared directly.

#include <benchmark/benchmark.h>

#include "ale/remap.hpp"
#include "hydro/kernels.hpp"
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
        hydro::lagstep(ctx, state, 1e-4);
        hydro::lagstep(ctx, state, 1e-4);
    }
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

KERNEL_BENCH(getq, hydro::getq(rig.ctx, rig.state));
KERNEL_BENCH(getforce, hydro::getforce(rig.ctx, rig.state));
KERNEL_BENCH(getacc, hydro::getacc(rig.ctx, rig.state, 1e-4));
KERNEL_BENCH(getgeom, hydro::getgeom(rig.ctx, rig.state, rig.state.u0,
                                     rig.state.v0, 5e-5));
KERNEL_BENCH(getrho, hydro::getrho(rig.ctx, rig.state));
KERNEL_BENCH(getein, hydro::getein(rig.ctx, rig.state, rig.state.ubar,
                                   rig.state.vbar, 1e-4));
KERNEL_BENCH(getpc, hydro::getpc(rig.ctx, rig.state));
KERNEL_BENCH(getdt, benchmark::DoNotOptimize(
                        hydro::getdt(rig.ctx, rig.state, 1e-4)));
KERNEL_BENCH(lagstep, hydro::lagstep(rig.ctx, rig.state, 1e-5));

// ---------------------------------------------------------------------------
// Acceleration nodal-assembly strategies (the §IV-B data dependency):
// serial scatter (paper-faithful) vs the default gather, at 1 and 2
// threads on the Noh rig.
// ---------------------------------------------------------------------------

namespace {

void assembly_bench(benchmark::State& bench_state, par::Assembly mode,
                    int threads) {
    Rig rig(static_cast<Index>(bench_state.range(0)));
    par::ThreadPool pool(threads);
    par::Exec exec;
    if (threads > 1) exec.pool = &pool;
    exec.assembly = mode;
    rig.ctx.exec = exec;

    for (auto _ : bench_state) {
        hydro::getacc(rig.ctx, rig.state, 1e-4);
        benchmark::ClobberMemory();
    }
    bench_state.counters["cells"] =
        static_cast<double>(rig.problem.mesh.n_cells());
    bench_state.SetItemsProcessed(bench_state.iterations() *
                                  rig.problem.mesh.n_cells());
}

} // namespace

#define ASSEMBLY_BENCH(name, mode, threads)                                    \
    static void BM_getacc_##name(benchmark::State& s) {                        \
        assembly_bench(s, mode, threads);                                      \
    }                                                                          \
    BENCHMARK(BM_getacc_##name)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond)

ASSEMBLY_BENCH(scatter_serial_t1, par::Assembly::serial_scatter, 1);
ASSEMBLY_BENCH(scatter_serial_t2, par::Assembly::serial_scatter, 2);
ASSEMBLY_BENCH(gather_t1, par::Assembly::gather, 1);
ASSEMBLY_BENCH(gather_t2, par::Assembly::gather, 2);

static void BM_alestep_eulerian(benchmark::State& s) {
    Rig rig(static_cast<Index>(s.range(0)));
    ale::Options opts;
    opts.mode = ale::Mode::eulerian;
    ale::Workspace work;
    for (auto _ : s) {
        hydro::lagstep(rig.ctx, rig.state, 1e-5);
        ale::alestep(rig.ctx, rig.state, opts, work);
    }
    s.SetItemsProcessed(s.iterations() * rig.problem.mesh.n_cells());
}
BENCHMARK(BM_alestep_eulerian)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
