/// \file getforce.cpp
/// Total corner forces for the compatible discretisation:
///   * pressure force: P times the gradient of cell volume w.r.t. the
///     corner position (exact shoelace gradient -> exact energy
///     conservation with the matching getein work term);
///   * sub-zonal pressure forces (Caramana & Shashkov [25]): each median
///     subzone evaluates its own density; the pressure *difference*
///     delta-P acts through the exact subzone-volume gradients, resisting
///     hourglass-pattern distortions that leave the cell volume unchanged;
///   * Hancock hourglass filter [24]: viscous damping of the (+,-,+,-)
///     corner velocity pattern;
///   * the viscous corner forces computed by getq.

#include <cmath>

#include "geom/geometry.hpp"
#include "hydro/kernels.hpp"

namespace bookleaf::hydro {

namespace {

/// The per-cell force computation. Writes only cell c's corner forces, so
/// any disjoint cover of the cell range is bitwise identical in any order.
inline void force_cell(const mesh::Mesh& mesh,
                       const eos::MaterialTable& materials, const Options& opts,
                       State& s, Index c) {
    const bool subzonal = opts.hourglass.subzonal_pressures;
    const Real kappa = opts.hourglass.filter_kappa;

    const auto ci = static_cast<std::size_t>(c);
    // Pressure force = P * dA/dx_i, both read straight from the
    // gathered-geometry cache getgeom filled (no per-cell re-gather).
    const std::size_t base = State::cidx(c, 0);
    const Real p = s.pre[ci];

    std::array<Real, 4> fx{}, fy{};
    for (std::size_t k = 0; k < 4; ++k) {
        fx[k] = p * s.cngx[base + k];
        fy[k] = p * s.cngy[base + k];
    }

    if (subzonal) {
        const Index region = mesh.cell_region[ci];
        std::array<Real, 4> dp{};
        for (std::size_t i = 0; i < 4; ++i) {
            const Real vsz = std::max(s.cnvol[base + i], tiny);
            const Real rho_sz = s.cnmass[base + i] / vsz;
            dp[i] = materials.pressure(region, rho_sz, s.ein[ci]) - s.pre[ci];
        }
        // A subzone with dp == 0 adds nothing, and in uniform gas (e.g.
        // Noh's cold pressure-cut inflow) all four are exactly zero, so
        // the gradients are built only when some subzone pushes.
        if (dp[0] != 0.0 || dp[1] != 0.0 || dp[2] != 0.0 || dp[3] != 0.0) {
            const auto szgrads =
                geom::corner_volume_gradients(s.cached_quad(c));
            for (std::size_t i = 0; i < 4; ++i) {
                if (dp[i] == 0.0) continue;
                for (std::size_t j = 0; j < 4; ++j) {
                    fx[j] += dp[i] * szgrads[i][j].x;
                    fy[j] += dp[i] * szgrads[i][j].y;
                }
            }
        }
    }

    if (kappa > 0.0) {
        // Hourglass mode Gamma = (+1, -1, +1, -1).
        static constexpr std::array<Real, 4> gamma = {1.0, -1.0, 1.0, -1.0};
        Real hg_u = 0.0, hg_v = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
            const auto n =
                static_cast<std::size_t>(mesh.cn(c, static_cast<int>(k)));
            hg_u += gamma[k] * s.u[n];
            hg_v += gamma[k] * s.v[n];
        }
        hg_u *= Real(0.25);
        hg_v *= Real(0.25);
        const Real cs = std::sqrt(std::max(s.csqrd[ci], Real(0.0)));
        const Real coef =
            kappa * s.rho[ci] * cs * std::sqrt(std::abs(s.volume[ci]));
        for (std::size_t k = 0; k < 4; ++k) {
            fx[k] -= coef * gamma[k] * hg_u;
            fy[k] -= coef * gamma[k] * hg_v;
        }
    }

    for (int k = 0; k < corners_per_cell; ++k) {
        const auto ki = State::cidx(c, k);
        s.fx[ki] = fx[static_cast<std::size_t>(k)] + s.qfx[ki];
        s.fy[ki] = fy[static_cast<std::size_t>(k)] + s.qfy[ki];
    }
}

} // namespace

void getforce(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getforce,
                                  end - begin);
    const auto& mesh = *ctx.mesh;
    const auto& materials = *ctx.materials;
    for (Index c = begin; c < end; ++c)
        force_cell(mesh, materials, ctx.opts, s, c);
}

} // namespace bookleaf::hydro
