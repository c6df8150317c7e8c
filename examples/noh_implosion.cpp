/// \file noh_implosion.cpp
/// The Noh implosion — the workload of the paper's single-node study
/// (Table II, Figs 1-2). Runs the real kernels with the profiler attached
/// and prints a per-kernel breakdown in the paper's format, plus the
/// physics validation (plateau density, shock position, wall heating).
///
///   ./noh_implosion [--n 50] [--t_end 0.6] [--threads N] [--vtk out.vtk]

#include <array>
#include <cmath>
#include <cstdio>

#include "analytic/exact.hpp"
#include "core/driver.hpp"
#include "io/vtk.hpp"
#include "setup/problems.hpp"
#include "util/cli.hpp"

using namespace bookleaf;

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    const auto n = static_cast<Index>(cli.get_int("n", 50));
    const Real t_end = cli.get_real("t_end", 0.6);
    const int threads = cli.get_int("threads", 1);

    auto problem = setup::noh(n);
    problem.t_end = t_end;
    core::Hydro hydro(std::move(problem));

    par::ThreadPool pool(threads);
    if (threads > 1) {
        par::Exec exec;
        exec.pool = &pool;
        hydro.set_exec(exec); // gather assembly (the default) is race-free
    }

    const auto summary = hydro.run();
    std::printf("Noh %dx%d: %d steps to t = %.3f in %.2f s (%d thread%s)\n",
                n, n, summary.steps, summary.t_final, summary.wall_seconds,
                threads, threads == 1 ? "" : "s");

    // Per-kernel breakdown, Table II style.
    std::printf("\n%-10s %10s %7s\n", "kernel", "seconds", "share");
    const double overall = hydro.profiler().overall_s();
    for (const auto k :
         {util::Kernel::getq, util::Kernel::getacc, util::Kernel::getdt,
          util::Kernel::getgeom, util::Kernel::getforce, util::Kernel::getpc,
          util::Kernel::getrho, util::Kernel::getein}) {
        const auto s = hydro.profiler().stats(k);
        std::printf("%-10s %10.3f %6.1f%%\n",
                    std::string(util::kernel_name(k)).c_str(), s.wall_s,
                    100.0 * s.wall_s / overall);
    }

    // Physics validation against the exact solution. The shock position
    // comes from the ring-averaged density profile (0.01-wide rings): it is
    // the outermost ring whose mean exceeds half the plateau value (8).
    // Single cells along the reflective axes jet spuriously far out, so
    // the outermost single cell above 8 would overestimate it.
    constexpr int n_rings = 100;
    constexpr Real ring_width = 0.01;
    std::array<Real, n_rings> ring_sum{}, ring_count{};
    Real plateau = 0;
    int n_plateau = 0;
    for (Index c = 0; c < hydro.mesh().n_cells(); ++c) {
        Real cx = 0, cy = 0;
        for (int k = 0; k < 4; ++k) {
            const auto node = static_cast<std::size_t>(hydro.mesh().cn(c, k));
            cx += hydro.state().x[node] / 4;
            cy += hydro.state().y[node] / 4;
        }
        const Real r = std::hypot(cx, cy);
        const Real rho = hydro.state().rho[static_cast<std::size_t>(c)];
        if (r > 0.05 && r < 0.15) {
            plateau += rho;
            ++n_plateau;
        }
        const auto ring = static_cast<std::size_t>(r / ring_width);
        if (ring < ring_sum.size()) {
            ring_sum[ring] += rho;
            ring_count[ring] += 1;
        }
    }
    Real shock_r = 0;
    for (std::size_t ring = 0; ring < ring_sum.size(); ++ring)
        if (ring_count[ring] > 0 && ring_sum[ring] / ring_count[ring] > 8.0)
            shock_r = (static_cast<Real>(ring) + Real(0.5)) * ring_width;
    const auto exact = analytic::noh_exact(0.1, t_end);
    std::printf("\nplateau density: %.2f (exact %.1f)\n",
                plateau / std::max(n_plateau, 1), exact.rho);
    std::printf("shock radius:    %.3f (exact %.3f)\n", shock_r, t_end / 3.0);

    if (cli.has("vtk")) {
        const auto path = cli.get("vtk", "noh.vtk");
        io::write_vtk(path, hydro.mesh(), hydro.state(), hydro.steps(),
                      hydro.time());
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
