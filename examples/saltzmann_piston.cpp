/// \file saltzmann_piston.cpp
/// Saltzmann's piston on the classic skewed mesh (paper §III-B: "designed
/// to exacerbate hourglass modes"). Demonstrates the two hourglass
/// controls — the Hancock filter and Caramana-Shashkov sub-zonal
/// pressures — and validates against the strong-shock relations.
///
///   ./saltzmann_piston [--control subzonal|filter|none] [--t_end 0.6]
///                      [--vtk out.vtk]

#include <cmath>
#include <cstdio>

#include "analytic/exact.hpp"
#include "core/driver.hpp"
#include "geom/geometry.hpp"
#include "io/vtk.hpp"
#include "setup/problems.hpp"
#include "util/cli.hpp"

using namespace bookleaf;

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv, {"control", "t_end", "vtk"});
    const auto control = cli.get("control", "subzonal");
    const Real t_end = cli.get_real("t_end", 0.6);

    auto problem = setup::saltzmann();
    problem.t_end = t_end;
    if (control == "subzonal") {
        problem.hydro.hourglass.subzonal_pressures = true;
        problem.hydro.hourglass.filter_kappa = 0.0;
    } else if (control == "filter") {
        problem.hydro.hourglass.subzonal_pressures = false;
        problem.hydro.hourglass.filter_kappa = 0.5;
    } else if (control == "none") {
        problem.hydro.hourglass.subzonal_pressures = false;
        problem.hydro.hourglass.filter_kappa = 0.0;
    } else {
        std::fprintf(stderr, "unknown --control %s\n", control.c_str());
        return 1;
    }

    core::Hydro hydro(std::move(problem));
    std::printf("Saltzmann piston, hourglass control: %s\n", control.c_str());

    try {
        const auto summary = hydro.run();
        const auto exact = analytic::piston_exact(5.0 / 3.0, 1.0, 1.0);

        Real shock_x = 0, shocked_rho = 0;
        int n_shocked = 0;
        for (Index c = 0; c < hydro.mesh().n_cells(); ++c) {
            Real cx = 0;
            for (int k = 0; k < 4; ++k)
                cx += hydro.state()
                          .x[static_cast<std::size_t>(hydro.mesh().cn(c, k))] /
                      4;
            const Real rho = hydro.state().rho[static_cast<std::size_t>(c)];
            if (rho > 2.0) shock_x = std::max(shock_x, cx);
            if (cx > t_end + 0.04 && cx < exact.shock_speed * t_end - 0.04) {
                shocked_rho += rho;
                ++n_shocked;
            }
        }
        std::printf("  %d steps to t = %.2f\n", summary.steps, summary.t_final);
        std::printf("  shock position: %.3f (exact %.3f)\n", shock_x,
                    exact.shock_speed * t_end);
        if (n_shocked > 0)
            std::printf("  shocked density: %.3f (exact %.1f)\n",
                        shocked_rho / n_shocked, exact.rho_shocked);
        const auto quality = geom::mesh_quality(hydro.mesh());
        std::printf("  min cell volume: %.3e (tangled if <= 0)\n",
                    quality.min_area);

        if (cli.has("vtk")) {
            const auto path = cli.get("vtk", "saltzmann.vtk");
            io::write_vtk(path, hydro.mesh(), hydro.state(), hydro.steps(),
                          hydro.time());
            std::printf("  wrote %s\n", path.c_str());
        }
    } catch (const util::Error& e) {
        // Without hourglass control the skewed mesh can tangle — that is
        // the point of the test problem.
        std::printf("  run FAILED: %s\n", e.what());
        std::printf("  (hourglass control '%s' could not keep the mesh "
                    "untangled)\n",
                    control.c_str());
    }
    return 0;
}
