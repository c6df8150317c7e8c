/// \file quickstart.cpp
/// Minimal BookLeaf-CPP usage: build a problem, run it, inspect the
/// result. Runs Sod's shock tube and compares against the exact Riemann
/// solution.
///
///   ./quickstart [--nx 100] [--t_end 0.2] [--vtk out.vtk]

#include <cstdio>

#include "analytic/norms.hpp"
#include "analytic/riemann.hpp"
#include "core/driver.hpp"
#include "io/vtk.hpp"
#include "setup/problems.hpp"
#include "util/cli.hpp"

using namespace bookleaf;

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv, {"nx", "t_end", "vtk"});
    const auto nx = static_cast<Index>(cli.get_int("nx", 100));
    const Real t_end = cli.get_real("t_end", 0.2);

    // 1. Build a problem (mesh + materials + initial condition + options).
    auto problem = setup::sod(nx, 2);
    problem.t_end = t_end;

    // 2. Run it.
    core::Hydro hydro(std::move(problem));
    const auto summary = hydro.run();

    // 3. Inspect the result.
    std::printf("Sod %dx2: %d steps to t = %.3f in %.2f s\n", nx,
                summary.steps, summary.t_final, summary.wall_seconds);
    std::printf("  energy drift: %.3e (relative)\n",
                (summary.final_.total_energy() - summary.initial.total_energy()) /
                    summary.initial.total_energy());

    const analytic::Riemann exact({1.0, 0.0, 1.0}, {0.125, 0.0, 0.1}, 1.4);
    const auto norms = analytic::cell_error_norms(
        hydro.mesh(), hydro.state().x, hydro.state().y, hydro.state().volume,
        hydro.state().rho, [&](Real cx, Real) {
            return exact.sample((cx - Real(0.5)) / t_end).rho;
        });
    std::printf("  L1(rho) vs exact Riemann: %.4f (Linf %.4f)\n", norms.l1,
                norms.linf);

    if (cli.has("vtk")) {
        const auto path = cli.get("vtk", "sod.vtk");
        io::write_vtk(path, hydro.mesh(), hydro.state(), hydro.steps(),
                      hydro.time());
        std::printf("  wrote %s\n", path.c_str());
    }
    return 0;
}
