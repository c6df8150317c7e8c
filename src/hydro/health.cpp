/// \file health.cpp
/// Step health guards and the shared derived-state rebuild (resilience
/// support — see resil::Guard and the driver retry loops).

#include <cmath>
#include <string>

#include "hydro/kernels.hpp"
#include "util/error.hpp"

namespace bookleaf::hydro {

void rebuild_cells(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
                   State& s, Index begin, Index end, bool with_rho, bool strict,
                   const char* who) {
    for (Index c = begin; c < end; ++c) {
        const Real vol = s.rebuild_geometry(mesh, c);
        if (strict && !(vol > 0.0))
            throw util::Error(std::string(who) +
                              ": non-positive volume in cell " +
                              std::to_string(mesh.cell_id(c)));
        const auto ci = static_cast<std::size_t>(c);
        if (with_rho) s.rho[ci] = s.cell_mass[ci] / std::max(vol, tiny);
        const Index r = mesh.cell_region[ci];
        s.pre[ci] = materials.pressure(r, s.rho[ci], s.ein[ci]);
        s.csqrd[ci] = materials.sound_speed2(r, s.rho[ci], s.ein[ci]);
    }
}

void capture_step(const State& s, StepBackup& b) {
    b.x.assign(s.x.begin(), s.x.end());
    b.y.assign(s.y.begin(), s.y.end());
    b.u.assign(s.u.begin(), s.u.end());
    b.v.assign(s.v.begin(), s.v.end());
    b.rho.assign(s.rho.begin(), s.rho.end());
    b.ein.assign(s.ein.begin(), s.ein.end());
    b.q.assign(s.q.begin(), s.q.end());
}

void restore_step(const Context& ctx, State& s, const StepBackup& b) {
    s.x.assign(b.x.begin(), b.x.end());
    s.y.assign(b.y.begin(), b.y.end());
    s.u.assign(b.u.begin(), b.u.end());
    s.v.assign(b.v.begin(), b.v.end());
    s.rho.assign(b.rho.begin(), b.rho.end());
    s.ein.assign(b.ein.begin(), b.ein.end());
    s.q.assign(b.q.begin(), b.q.end());
    // Tolerant rebuild: in the distributed driver a loop-top ghost cell
    // may hold a tangled transient (its corners evolve with incomplete
    // assemblies and are refreshed by the next halo before any kernel
    // reads its geometry), and that is not an error here. The rebuilt
    // derived bytes equal the pre-step ones: same deterministic kernels,
    // same primary inputs.
    rebuild_cells(*ctx.mesh, *ctx.materials, s, 0, s.n_cells(),
                  /*with_rho=*/false, /*strict=*/false, "retry");
}

bool step_healthy(const State& s, Index n_cells,
                  std::span<const std::uint8_t> node_owned) {
    for (Index c = 0; c < n_cells; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        // A violating step typically announces itself in several fields
        // at once (a tangled cell poisons volume, then rho, then the
        // EoS); checking them all keeps the guard robust to whichever
        // surfaces first. ein >= 0 rather than > 0: the compatible energy
        // update may legitimately draw a cold cell (ein ~ 1e-9 floor)
        // toward zero in strong expansion — negative or non-finite is
        // the instability signal.
        if (!std::isfinite(s.rho[ci]) || s.rho[ci] <= 0.0) return false;
        if (!std::isfinite(s.volume[ci]) || s.volume[ci] <= 0.0) return false;
        if (!std::isfinite(s.ein[ci]) || s.ein[ci] < 0.0) return false;
        if (!std::isfinite(s.q[ci])) return false;
    }
    const Index n_nodes = s.n_nodes();
    for (Index n = 0; n < n_nodes; ++n) {
        const auto ni = static_cast<std::size_t>(n);
        if (!node_owned.empty() && node_owned[ni] == 0) continue;
        if (!std::isfinite(s.x[ni]) || !std::isfinite(s.y[ni]) ||
            !std::isfinite(s.u[ni]) || !std::isfinite(s.v[ni]))
            return false;
    }
    return true;
}

} // namespace bookleaf::hydro
