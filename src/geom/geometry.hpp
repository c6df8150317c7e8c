#pragma once
/// \file geometry.hpp
/// Pure per-quad geometry used by the hydro kernels: shoelace areas,
/// median-mesh corner (sub-zonal) volumes, and the exact gradients of
/// both with respect to node positions. The compatible discretisation
/// (Barlow [27]) takes corner forces as pressure times these gradients, so
/// getting them exactly right is what makes total-energy conservation
/// exact. The per-cell functions are defined inline: getgeom, aleupdate
/// and the state rebuilds evaluate them once per cell per call.

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "mesh/mesh.hpp"
#include "util/types.hpp"

namespace bookleaf::geom {

struct Vec2 {
    Real x = 0.0, y = 0.0;
};

/// The four corner positions of one cell, CCW.
struct QuadPts {
    std::array<Real, 4> x{}, y{};
};

/// Euclidean length of (dx, dy), as std::sqrt(dx*dx + dy*dy): the one
/// length function of geom, hydro and ale (getq's edge length,
/// char_length, the ALE clamp, the mesh-quality metrics). sqrt is
/// correctly rounded under IEEE-754, so the result is within 1 ulp of
/// libm's hypot and needs no libm call.
///
/// Range: components of magnitude 1e-150 to 1e150 (the squares stay
/// normal and finite). Unlike hypot it does not rescale, so a component
/// beyond ~1.3e154 overflows to inf and one below ~1e-154 loses precision
/// to subnormal squares; mesh coordinates are nowhere near either.
///
/// Symmetry: length(dx, dy) is bitwise equal to length(-dx, dy),
/// length(dx, -dy) and length(dy, dx) (squaring drops the sign exactly and
/// IEEE addition commutes), and length(x, 0) == |x| exactly. A rank that
/// measures an edge from its other end gets the owner's bytes; the
/// distributed ALE clamp relies on this.
[[nodiscard]] inline Real length(Real dx, Real dy) {
    return std::sqrt(dx * dx + dy * dy);
}

/// Gather corner positions of cell c from node coordinate arrays.
[[nodiscard]] inline QuadPts gather(const mesh::Mesh& mesh,
                                    std::span<const Real> nx,
                                    std::span<const Real> ny, Index c) {
    QuadPts q;
    for (int k = 0; k < corners_per_cell; ++k) {
        const auto n = static_cast<std::size_t>(mesh.cn(c, k));
        q.x[static_cast<std::size_t>(k)] = nx[n];
        q.y[static_cast<std::size_t>(k)] = ny[n];
    }
    return q;
}

/// Signed shoelace area (positive for CCW quads).
[[nodiscard]] inline Real quad_area(const QuadPts& q) {
    Real a = 0.0;
    for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t k1 = (k + 1) % 4;
        a += q.x[k] * q.y[k1] - q.x[k1] * q.y[k];
    }
    return Real(0.5) * a;
}

/// Arithmetic mean of the corners (the median-mesh cell centre).
[[nodiscard]] inline Vec2 quad_centroid(const QuadPts& q) {
    return {Real(0.25) * (q.x[0] + q.x[1] + q.x[2] + q.x[3]),
            Real(0.25) * (q.y[0] + q.y[1] + q.y[2] + q.y[3])};
}

/// Gradient of the cell area w.r.t. each corner position:
///   dA/dx_i = (y_{i+1} - y_{i-1}) / 2,  dA/dy_i = (x_{i-1} - x_{i+1}) / 2.
[[nodiscard]] inline std::array<Vec2, 4> area_gradients(const QuadPts& q) {
    std::array<Vec2, 4> g;
    for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t kp = (k + 1) % 4, km = (k + 3) % 4;
        g[k] = {Real(0.5) * (q.y[kp] - q.y[km]),
                Real(0.5) * (q.x[km] - q.x[kp])};
    }
    return g;
}

/// Median-mesh corner volumes: subzone i is the quad
/// (p_i, midpoint(i,i+1), centroid, midpoint(i-1,i)). They tile the cell:
/// sum_i corner_volume_i == quad_area exactly.
[[nodiscard]] inline std::array<Real, 4> corner_volumes(const QuadPts& q) {
    const Vec2 c = quad_centroid(q);
    std::array<Real, 4> v;
    for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t ip = (i + 1) % 4, im = (i + 3) % 4;
        const QuadPts sub{
            .x = {q.x[i], Real(0.5) * (q.x[i] + q.x[ip]), c.x,
                  Real(0.5) * (q.x[im] + q.x[i])},
            .y = {q.y[i], Real(0.5) * (q.y[i] + q.y[ip]), c.y,
                  Real(0.5) * (q.y[im] + q.y[i])}};
        v[i] = quad_area(sub);
    }
    return v;
}

/// d(subzone_volume_i)/d(corner_j) for all i, j. Satisfies
/// sum_i grad[i][j] == area_gradients()[j] (subzones tile the cell).
///
/// Subzone i has vertices (p_i, m_i, c, m_{i-1}), with m_i the midpoint of
/// edge (i, i+1) and c the centroid, so by the chain rule its gradient is
/// the shoelace vertex gradients g_v weighted by d(vertex v)/d(corner j):
///   j == i:   g_0 + g_1/2 + g_2/4 + g_3/2     j == i+1: g_1/2 + g_2/4
///   j == i-1: g_2/4 + g_3/2                   j == i+2: g_2/4
/// Each sum starts from +0.0 and adds its terms in vertex order, the
/// order of the generic chain-rule sum, so the result is the same to the
/// bit (an exactly cancelling entry is +0.0). Defined inline: getforce
/// evaluates it once per cell with a non-zero sub-zonal pressure delta.
[[nodiscard]] inline std::array<std::array<Vec2, 4>, 4>
corner_volume_gradients(const QuadPts& q) {
    const Real cx = Real(0.25) * (q.x[0] + q.x[1] + q.x[2] + q.x[3]);
    const Real cy = Real(0.25) * (q.y[0] + q.y[1] + q.y[2] + q.y[3]);
    std::array<Real, 4> mx{}, my{}; // edge midpoints m_i
    for (std::size_t i = 0; i < 4; ++i) {
        mx[i] = Real(0.5) * (q.x[i] + q.x[(i + 1) % 4]);
        my[i] = Real(0.5) * (q.y[i] + q.y[(i + 1) % 4]);
    }
    std::array<std::array<Vec2, 4>, 4> grad;
    for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t ip = (i + 1) % 4, io = (i + 2) % 4, im = (i + 3) % 4;
        // Shoelace gradients of the subzone's vertices.
        const Vec2 g0{Real(0.5) * (my[i] - my[im]),
                      Real(0.5) * (mx[im] - mx[i])};
        const Vec2 g1{Real(0.5) * (cy - q.y[i]), Real(0.5) * (q.x[i] - cx)};
        const Vec2 g2{Real(0.5) * (my[im] - my[i]),
                      Real(0.5) * (mx[i] - mx[im])};
        const Vec2 g3{Real(0.5) * (q.y[i] - cy), Real(0.5) * (cx - q.x[i])};
        grad[i][i] = {Real(0.0) + g0.x + Real(0.5) * g1.x + Real(0.25) * g2.x +
                          Real(0.5) * g3.x,
                      Real(0.0) + g0.y + Real(0.5) * g1.y + Real(0.25) * g2.y +
                          Real(0.5) * g3.y};
        grad[i][ip] = {Real(0.0) + Real(0.5) * g1.x + Real(0.25) * g2.x,
                       Real(0.0) + Real(0.5) * g1.y + Real(0.25) * g2.y};
        grad[i][im] = {Real(0.0) + Real(0.25) * g2.x + Real(0.5) * g3.x,
                       Real(0.0) + Real(0.25) * g2.y + Real(0.5) * g3.y};
        grad[i][io] = {Real(0.0) + Real(0.25) * g2.x,
                       Real(0.0) + Real(0.25) * g2.y};
    }
    return grad;
}

/// Characteristic length for the CFL condition. BookLeaf-style: cell area
/// divided by the longest diagonal — reduces to ~h/sqrt(2) on squares and
/// shrinks for needle-like cells.
[[nodiscard]] inline Real char_length(const QuadPts& q) {
    const Real d1 = length(q.x[2] - q.x[0], q.y[2] - q.y[0]);
    const Real d2 = length(q.x[3] - q.x[1], q.y[3] - q.y[1]);
    const Real dmax = std::max(d1, d2);
    const Real area = std::abs(quad_area(q));
    return dmax > tiny ? area / dmax : Real(0.0);
}

/// Shortest edge length.
[[nodiscard]] Real min_edge_length(const QuadPts& q);

/// Mesh-quality metrics for diagnostics and generator tests.
struct Quality {
    Real min_area = 0.0;    ///< most negative/smallest signed cell area
    Real max_aspect = 0.0;  ///< max edge / min edge within any cell
    Index worst_cell = no_index;
};
[[nodiscard]] Quality mesh_quality(const mesh::Mesh& mesh);

} // namespace bookleaf::geom
