/// \file bench_ablation_remap_limiter.cpp
/// Ablation of the remap limiter (§III-A: the swept-volume remap "uses
/// limiters [30] to enforce monotonicity"): Eulerian Sod with the van
/// Leer / Barth-Jespersen limiting on vs off — accuracy against the exact
/// Riemann solution and the overshoot the limiter exists to prevent.
///
/// Plus a distributed section: the ghost-aware remap (dist::remap) driven
/// directly at several rank counts, reporting per-rank remap-halo time
/// (the pre-remap state refresh, gradient and result exchanges — the
/// util::Kernel::halo slot) against the advection kernel time (the
/// alegetmesh/alegetfvol/aleadvect/aleupdate slots), i.e. what fraction
/// of a distributed remap is communication at strong-scaled sizes.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "analytic/norms.hpp"
#include "analytic/riemann.hpp"
#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "setup/problems.hpp"

using namespace bookleaf;

namespace {

/// Drive dist::remap directly for `iters` Eulerian remaps of a displaced
/// nonuniform state at `n_ranks`, returning the per-rank profiles.
std::vector<std::array<util::KernelStats, util::kernel_count>>
bench_dist_remap(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
                 const std::vector<Real>& rho, const std::vector<Real>& ein,
                 int n_ranks, int iters) {
    const auto part = part::rcb(mesh, n_ranks);
    const auto subs = part::decompose(mesh, part, n_ranks);
    std::vector<util::Profiler> profilers(static_cast<std::size_t>(n_ranks));

    typhon::run(n_ranks, [&](typhon::Comm& comm) {
        const auto& sub = subs[static_cast<std::size_t>(comm.rank())];
        hydro::State s = hydro::allocate(sub.local);
        for (std::size_t lc = 0; lc < sub.local.cell_ids.size(); ++lc) {
            const auto gc = static_cast<std::size_t>(sub.local.cell_ids[lc]);
            s.rho[lc] = rho[gc];
            s.ein[lc] = ein[gc];
        }
        hydro::initialise(sub.local, materials, s);
        hydro::Context ctx;
        ctx.mesh = &sub.local;
        ctx.materials = &materials;
        ctx.profiler = &profilers[static_cast<std::size_t>(comm.rank())];
        ctx.dt_cells = sub.n_owned_cells;

        ale::Options aopts;
        aopts.mode = ale::Mode::eulerian;
        ale::Workspace w;
        const auto& lm = sub.local;
        for (int it = 0; it < iters; ++it) {
            // Fake Lagrangian move: displace strictly-interior nodes off
            // the generation mesh (keyed on generation coordinates, so
            // every rank applies the identical move), rebuild the
            // dependent state, remap back. The Eulerian remap restores
            // the generation mesh exactly, so the loop is stationary.
            for (Index n = 0; n < lm.n_nodes(); ++n) {
                const auto ni = static_cast<std::size_t>(n);
                const Real px = lm.x[ni], py = lm.y[ni];
                if (px < 1e-9 || px > 1 - 1e-9 || py < 1e-9 || py > 1 - 1e-9)
                    continue;
                s.x[ni] += 0.2 / static_cast<Real>(96);
                s.y[ni] += 0.15 / static_cast<Real>(96);
            }
            s.x0 = s.x;
            s.y0 = s.y;
            std::atomic<Index> tangled{no_index};
            hydro::getgeom_cells(ctx, s, 0, lm.n_cells(), tangled);
            hydro::getrho(ctx, s, 0, lm.n_cells());
            hydro::getpc(ctx, s, 0, lm.n_cells());
            dist::remap(ctx, s, aopts, w, comm, sub);
        }
    });

    std::vector<std::array<util::KernelStats, util::kernel_count>> out;
    out.reserve(static_cast<std::size_t>(n_ranks));
    for (auto& p : profilers) out.push_back(p.snapshot());
    return out;
}

double slot(const std::array<util::KernelStats, util::kernel_count>& prof,
            util::Kernel k) {
    return prof[static_cast<std::size_t>(k)].wall_s;
}

} // namespace

int main() {
    std::printf("=== Ablation: remap limiter (Eulerian Sod) ===\n\n");
    std::printf("%-10s %12s %12s %14s %14s\n", "limiter", "L1(rho)",
                "Linf(rho)", "max overshoot", "min undershoot");

    const analytic::Riemann exact({1.0, 0.0, 1.0}, {0.125, 0.0, 0.1}, 1.4);
    for (const bool limit : {true, false}) {
        auto problem = setup::sod(200, 2);
        problem.ale.mode = ale::Mode::eulerian;
        problem.ale.limit = limit;
        core::Hydro h(std::move(problem));
        h.run();

        const auto norms = analytic::cell_error_norms(
            h.mesh(), h.state().x, h.state().y, h.state().volume,
            h.state().rho, [&](Real cx, Real) {
                return exact.sample((cx - Real(0.5)) / Real(0.2)).rho;
            });
        // Monotonicity: density must stay within the initial range [0.125, 1].
        Real rho_max = 0, rho_min = 1e9;
        for (const Real rho : h.state().rho) {
            rho_max = std::max(rho_max, rho);
            rho_min = std::min(rho_min, rho);
        }
        std::printf("%-10s %12.5f %12.5f %14.3e %14.3e\n",
                    limit ? "on" : "off", norms.l1, norms.linf,
                    rho_max - 1.0, rho_min - 0.125);
    }
    std::printf("\n(positive overshoot / negative undershoot = new extrema "
                "the limiter suppresses)\n");

    // --- distributed remap: halo vs advection time per rank -----------------
    std::printf("\n=== Distributed remap: halo vs advection time per rank "
                "===\n\n");
    const Index n = 96;
    const auto mesh = mesh::generate_rect({.nx = n, .ny = n});
    eos::MaterialTable materials;
    materials.materials = {eos::IdealGas{1.4}};
    std::vector<Real> rho(static_cast<std::size_t>(mesh.n_cells()));
    std::vector<Real> ein(rho.size());
    for (Index c = 0; c < mesh.n_cells(); ++c) {
        rho[static_cast<std::size_t>(c)] = 1.0 + 0.5 * std::sin(0.9 * c);
        ein[static_cast<std::size_t>(c)] = 2.0 + 0.7 * std::cos(1.7 * c);
    }
    const int iters = 40;
    std::printf("%-6s %12s %12s %12s %10s  (mesh %dx%d, %d remaps,"
                " max over ranks)\n",
                "ranks", "halo s", "advect s", "total s", "halo %",
                n, n, iters);
    for (const int ranks : {1, 2, 4, 8}) {
        const auto profiles =
            bench_dist_remap(mesh, materials, rho, ein, ranks, iters);
        double halo = 0.0, advect = 0.0;
        for (const auto& prof : profiles) {
            halo = std::max(halo, slot(prof, util::Kernel::halo));
            advect = std::max(
                advect, slot(prof, util::Kernel::alegetmesh) +
                            slot(prof, util::Kernel::alegetfvol) +
                            slot(prof, util::Kernel::aleadvect) +
                            slot(prof, util::Kernel::aleupdate));
        }
        const double total = halo + advect;
        std::printf("%-6d %12.4f %12.4f %12.4f %9.1f%%\n", ranks, halo,
                    advect, total, total > 0 ? 100.0 * halo / total : 0.0);
    }
    std::printf("\n(halo = pre-remap state refresh + gradient + fused result "
                "exchanges; advect = alegetmesh/fvol/advect/update kernels; "
                "in-process Hub, so halo time is pack/copy/wait)\n");
    return 0;
}
