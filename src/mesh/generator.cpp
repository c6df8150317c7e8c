#include "mesh/generator.hpp"

#include <cmath>
#include <numbers>
#include <numeric>

#include "util/error.hpp"

namespace bookleaf::mesh {

Mesh generate_rect(const RectSpec& spec) {
    util::require(spec.nx > 0 && spec.ny > 0, "generate_rect: nx, ny must be > 0");
    util::require(spec.x1 > spec.x0 && spec.y1 > spec.y0,
                  "generate_rect: empty extent");

    const Index nx = spec.nx;
    const Index ny = spec.ny;
    const Index nnx = nx + 1;
    const Index nny = ny + 1;

    Mesh m;
    m.x.resize(static_cast<std::size_t>(nnx) * nny);
    m.y.resize(static_cast<std::size_t>(nnx) * nny);
    m.node_bc.assign(static_cast<std::size_t>(nnx) * nny, bc::none);

    const Real dx = (spec.x1 - spec.x0) / nx;
    const Real dy = (spec.y1 - spec.y0) / ny;

    for (Index j = 0; j < nny; ++j) {
        for (Index i = 0; i < nnx; ++i) {
            const auto n = static_cast<std::size_t>(j) * nnx + i;
            Real px = spec.x0 + dx * i;
            Real py = spec.y0 + dy * j;
            if (spec.map) std::tie(px, py) = spec.map(px, py);
            m.x[n] = px;
            m.y[n] = py;
            if (spec.reflective_walls) {
                std::uint8_t mask = bc::none;
                if (i == 0 || i == nx) mask |= bc::fix_u;
                if (j == 0 || j == ny) mask |= bc::fix_v;
                m.node_bc[n] = mask;
            }
        }
    }

    m.cell_nodes.reserve(static_cast<std::size_t>(nx) * ny * corners_per_cell);
    m.cell_region.reserve(static_cast<std::size_t>(nx) * ny);
    for (Index j = 0; j < ny; ++j) {
        for (Index i = 0; i < nx; ++i) {
            const Index n0 = j * nnx + i;
            // CCW: bottom-left, bottom-right, top-right, top-left.
            m.cell_nodes.push_back(n0);
            m.cell_nodes.push_back(n0 + 1);
            m.cell_nodes.push_back(n0 + nnx + 1);
            m.cell_nodes.push_back(n0 + nnx);
            const Real cx = spec.x0 + dx * (i + Real(0.5));
            const Real cy = spec.y0 + dy * (j + Real(0.5));
            m.cell_region.push_back(spec.region_of ? spec.region_of(cx, cy) : 0);
        }
    }

    build_connectivity(m);
    return m;
}

std::pair<Real, Real> saltzmann_map(Real xi, Real eta) {
    const Real x = xi + (Real(0.1) - eta) * std::sin(std::numbers::pi_v<Real> * xi);
    return {x, eta};
}

Mesh permute(const Mesh& mesh, util::SplitMix64& rng) {
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();

    // Fisher-Yates permutations (new -> old) for cells and nodes.
    std::vector<Index> cell_perm(static_cast<std::size_t>(n_cells));
    std::vector<Index> node_perm(static_cast<std::size_t>(n_nodes));
    std::iota(cell_perm.begin(), cell_perm.end(), 0);
    std::iota(node_perm.begin(), node_perm.end(), 0);
    for (Index i = n_cells - 1; i > 0; --i)
        std::swap(cell_perm[static_cast<std::size_t>(i)],
                  cell_perm[rng.uniform_index(static_cast<std::uint64_t>(i) + 1)]);
    for (Index i = n_nodes - 1; i > 0; --i)
        std::swap(node_perm[static_cast<std::size_t>(i)],
                  node_perm[rng.uniform_index(static_cast<std::uint64_t>(i) + 1)]);

    // The permuted mesh is a fresh caller numbering: label the primary
    // storage with its new ids, so that renumbering into them composes to
    // the identity and leaves the ids empty.
    Mesh out;
    out.x = mesh.x;
    out.y = mesh.y;
    out.node_bc = mesh.node_bc;
    out.cell_nodes = mesh.cell_nodes;
    out.cell_region = mesh.cell_region;
    out.cell_ids.resize(cell_perm.size());
    out.node_ids.resize(node_perm.size());
    for (std::size_t i = 0; i < cell_perm.size(); ++i)
        out.cell_ids[static_cast<std::size_t>(cell_perm[i])] =
            static_cast<Index>(i);
    for (std::size_t i = 0; i < node_perm.size(); ++i)
        out.node_ids[static_cast<std::size_t>(node_perm[i])] =
            static_cast<Index>(i);
    renumber(out, cell_perm, node_perm);
    return out;
}

} // namespace bookleaf::mesh
