#include "geom/geometry.hpp"

#include <algorithm>
#include <limits>

namespace bookleaf::geom {

Real min_edge_length(const QuadPts& q) {
    Real mn = std::numeric_limits<Real>::max();
    for (int k = 0; k < 4; ++k) {
        const auto k1 = static_cast<std::size_t>((k + 1) % 4);
        const auto kk = static_cast<std::size_t>(k);
        mn = std::min(mn, length(q.x[k1] - q.x[kk], q.y[k1] - q.y[kk]));
    }
    return mn;
}

Quality mesh_quality(const mesh::Mesh& mesh) {
    Quality out;
    out.min_area = std::numeric_limits<Real>::max();
    for (Index c = 0; c < mesh.n_cells(); ++c) {
        const QuadPts q = gather(mesh, mesh.x, mesh.y, c);
        const Real area = quad_area(q);
        if (area < out.min_area) {
            out.min_area = area;
            out.worst_cell = c;
        }
        Real emin = std::numeric_limits<Real>::max();
        Real emax = 0.0;
        for (int k = 0; k < 4; ++k) {
            const auto k1 = static_cast<std::size_t>((k + 1) % 4);
            const auto kk = static_cast<std::size_t>(k);
            const Real e = length(q.x[k1] - q.x[kk], q.y[k1] - q.y[kk]);
            emin = std::min(emin, e);
            emax = std::max(emax, e);
        }
        out.max_aspect = std::max(out.max_aspect, emax / std::max(emin, tiny));
    }
    return out;
}

} // namespace bookleaf::geom
