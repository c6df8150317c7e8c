#pragma once
/// \file state.hpp
/// The staggered-mesh hydrodynamic state: thermodynamic variables on
/// cells, kinematic variables on nodes, and corner (cell x 4) work arrays
/// for the compatible discretisation.

#include <vector>

#include "eos/eos.hpp"
#include "geom/geometry.hpp"
#include "hydro/options.hpp"
#include "mesh/mesh.hpp"
#include "par/exec.hpp"
#include "util/alloc.hpp"
#include "util/types.hpp"

namespace bookleaf::hydro {

/// State field storage. The default-init allocator keeps freshly
/// allocated pages untouched until `allocate`'s explicit fill, so with a
/// pool the zero-fill's static per-worker blocks perform NUMA first-touch:
/// each page lands on the socket of the worker that will process that
/// block. Converts to std::span<(const) Real> everywhere a kernel takes
/// one; element access and iteration are identical to std::vector<Real>.
using Field = std::vector<Real, util::DefaultInitAllocator<Real>>;

struct State {
    // --- node-centred (kinematic) ----------------------------------------
    Field x, y;   ///< positions (evolve; mesh keeps originals)
    Field u, v;   ///< velocity
    Field node_mass;
    Field nfx, nfy; ///< assembled nodal forces (getacc scratch)

    // --- cell-centred (thermodynamic) -------------------------------------
    Field rho, ein, pre, csqrd;
    Field q;          ///< cell viscosity scalar (for dt + diagnostics)
    Field volume;
    Field cell_mass;  ///< constant during Lagrangian motion
    Field char_len;   ///< CFL characteristic length

    // --- corner data [cell*4 + k] ------------------------------------------
    Field fx, fy;       ///< total corner forces
    Field qfx, qfy;     ///< viscous corner forces (from getq)
    Field cnmass;       ///< corner masses (sub-zonal)
    Field cnvol;        ///< corner volumes

    // --- gathered-geometry cache [cell*4 + k] --------------------------------
    // Corner coordinates and exact area gradients, written by
    // rebuild_geometry (getgeom, initialise, aleupdate, the retry rebuild)
    // alongside the volumes it already derives from the same gather.
    // getforce, getq and getdt read these contiguously instead of
    // re-gathering node coordinates per cell per invocation — the
    // corrector hot path does no indirect coordinate loads at all. Always
    // consistent with the state's x/y: every code path that moves nodes
    // refreshes the cache before a kernel reads it.
    Field cnx, cny;     ///< corner positions (gathered)
    Field cngx, cngy;   ///< d(cell area)/d(corner position)

    // --- step scratch --------------------------------------------------------
    Field x0, y0;       ///< positions at step start
    Field u0, v0;       ///< velocities at step start
    Field ein0;         ///< energy at step start
    Field ubar, vbar;   ///< time-centred velocities (corrector)

    [[nodiscard]] Index n_nodes() const { return static_cast<Index>(x.size()); }
    [[nodiscard]] Index n_cells() const { return static_cast<Index>(rho.size()); }

    /// Corner array flat index.
    [[nodiscard]] static std::size_t cidx(Index c, int k) {
        return static_cast<std::size_t>(c) * corners_per_cell +
               static_cast<std::size_t>(k);
    }

    /// Reconstruct one cell's corner quad from the gathered-geometry
    /// cache (contiguous loads; no node indirection).
    [[nodiscard]] geom::QuadPts cached_quad(Index c) const {
        geom::QuadPts q;
        const std::size_t base = cidx(c, 0);
        for (std::size_t k = 0; k < 4; ++k) {
            q.x[k] = cnx[base + k];
            q.y[k] = cny[base + k];
        }
        return q;
    }

    /// Write one cell's gathered geometry into the cache.
    void cache_geometry(Index c, const geom::QuadPts& q) {
        const std::size_t base = cidx(c, 0);
        const auto grads = geom::area_gradients(q);
        for (std::size_t k = 0; k < 4; ++k) {
            cnx[base + k] = q.x[k];
            cny[base + k] = q.y[k];
            cngx[base + k] = grads[k].x;
            cngy[base + k] = grads[k].y;
        }
    }

    /// Rebuild cell c's geometry from the current node positions: the
    /// gathered cache, volume, characteristic length and corner volumes.
    /// Returns the signed volume; each caller applies its own volume check
    /// and derives density and the EoS from it.
    Real rebuild_geometry(const mesh::Mesh& mesh, Index c) {
        const auto quad = geom::gather(mesh, x, y, c);
        cache_geometry(c, quad);
        const auto ci = static_cast<std::size_t>(c);
        const Real vol = geom::quad_area(quad);
        volume[ci] = vol;
        char_len[ci] = geom::char_length(quad);
        const auto cv = geom::corner_volumes(quad);
        const std::size_t base = cidx(c, 0);
        for (std::size_t k = 0; k < 4; ++k) cnvol[base + k] = cv[k];
        return vol;
    }
};

/// Allocate every field for the mesh and zero-initialise.
State allocate(const mesh::Mesh& mesh);

/// As above, but the zero-fill runs as static per-worker blocks on the
/// pool (when `exec` is threaded): NUMA first-touch places each block's
/// pages on the socket of the worker that will process it. The resulting
/// bytes are identical to the serial overload.
State allocate(const mesh::Mesh& mesh, const par::Exec& exec);

/// Finish initialisation after the caller has filled rho, ein, u, v:
/// computes volumes, corner volumes, cell/corner/node masses, pressure and
/// sound speed, characteristic lengths. Throws on non-positive volumes.
void initialise(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
                State& state);

/// Conserved totals used by the diagnostics and the conservation tests.
struct Totals {
    Real mass = 0.0;
    Real momentum_x = 0.0;
    Real momentum_y = 0.0;
    Real internal_energy = 0.0;
    Real kinetic_energy = 0.0;
    [[nodiscard]] Real total_energy() const {
        return internal_energy + kinetic_energy;
    }
};

/// Compute conserved totals. Kinetic energy uses nodal masses; internal
/// energy is mass-weighted specific internal energy.
[[nodiscard]] Totals totals(const mesh::Mesh& mesh, const State& state);

} // namespace bookleaf::hydro
