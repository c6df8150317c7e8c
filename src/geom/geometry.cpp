#include "geom/geometry.hpp"

#include <algorithm>
#include <cmath>

namespace bookleaf::geom {

QuadPts gather(const mesh::Mesh& mesh, std::span<const Real> nx,
               std::span<const Real> ny, Index c) {
    QuadPts q;
    for (int k = 0; k < corners_per_cell; ++k) {
        const auto n = static_cast<std::size_t>(mesh.cn(c, k));
        q.x[static_cast<std::size_t>(k)] = nx[n];
        q.y[static_cast<std::size_t>(k)] = ny[n];
    }
    return q;
}

Real quad_area(const QuadPts& q) {
    Real a = 0.0;
    for (int k = 0; k < 4; ++k) {
        const int k1 = (k + 1) % 4;
        a += q.x[static_cast<std::size_t>(k)] * q.y[static_cast<std::size_t>(k1)] -
             q.x[static_cast<std::size_t>(k1)] * q.y[static_cast<std::size_t>(k)];
    }
    return Real(0.5) * a;
}

Vec2 quad_centroid(const QuadPts& q) {
    return {Real(0.25) * (q.x[0] + q.x[1] + q.x[2] + q.x[3]),
            Real(0.25) * (q.y[0] + q.y[1] + q.y[2] + q.y[3])};
}

std::array<Vec2, 4> area_gradients(const QuadPts& q) {
    std::array<Vec2, 4> g;
    for (int k = 0; k < 4; ++k) {
        const auto kp = static_cast<std::size_t>((k + 1) % 4);
        const auto km = static_cast<std::size_t>((k + 3) % 4);
        g[static_cast<std::size_t>(k)] = {Real(0.5) * (q.y[kp] - q.y[km]),
                                          Real(0.5) * (q.x[km] - q.x[kp])};
    }
    return g;
}

namespace {

/// Vertices of subzone i: p_i, mid(i,i+1), centroid, mid(i-1,i).
QuadPts subzone(const QuadPts& q, int i) {
    const auto ip = static_cast<std::size_t>((i + 1) % 4);
    const auto im = static_cast<std::size_t>((i + 3) % 4);
    const auto ii = static_cast<std::size_t>(i);
    QuadPts s;
    s.x = {q.x[ii], Real(0.5) * (q.x[ii] + q.x[ip]),
           Real(0.25) * (q.x[0] + q.x[1] + q.x[2] + q.x[3]),
           Real(0.5) * (q.x[im] + q.x[ii])};
    s.y = {q.y[ii], Real(0.5) * (q.y[ii] + q.y[ip]),
           Real(0.25) * (q.y[0] + q.y[1] + q.y[2] + q.y[3]),
           Real(0.5) * (q.y[im] + q.y[ii])};
    return s;
}

} // namespace

std::array<Real, 4> corner_volumes(const QuadPts& q) {
    std::array<Real, 4> v;
    for (int i = 0; i < 4; ++i)
        v[static_cast<std::size_t>(i)] = quad_area(subzone(q, i));
    return v;
}

Real char_length(const QuadPts& q) {
    const Real d1 = std::hypot(q.x[2] - q.x[0], q.y[2] - q.y[0]);
    const Real d2 = std::hypot(q.x[3] - q.x[1], q.y[3] - q.y[1]);
    const Real dmax = std::max(d1, d2);
    const Real area = std::abs(quad_area(q));
    return dmax > tiny ? area / dmax : Real(0.0);
}

Real min_edge_length(const QuadPts& q) {
    Real mn = std::numeric_limits<Real>::max();
    for (int k = 0; k < 4; ++k) {
        const auto k1 = static_cast<std::size_t>((k + 1) % 4);
        const auto kk = static_cast<std::size_t>(k);
        mn = std::min(mn, std::hypot(q.x[k1] - q.x[kk], q.y[k1] - q.y[kk]));
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
            const Real e = std::hypot(q.x[k1] - q.x[kk], q.y[k1] - q.y[kk]);
            emin = std::min(emin, e);
            emax = std::max(emax, e);
        }
        out.max_aspect = std::max(out.max_aspect, emax / std::max(emin, tiny));
    }
    return out;
}

} // namespace bookleaf::geom
