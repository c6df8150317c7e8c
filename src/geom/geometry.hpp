#pragma once
/// \file geometry.hpp
/// Pure per-quad geometry used by the hydro kernels: shoelace areas,
/// median-mesh corner (sub-zonal) volumes, and the exact gradients of
/// both with respect to node positions. The compatible discretisation
/// (Barlow [27]) takes corner forces as pressure times these gradients, so
/// getting them exactly right is what makes total-energy conservation
/// exact.

#include <array>
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

/// Gather corner positions of cell c from node coordinate arrays.
[[nodiscard]] QuadPts gather(const mesh::Mesh& mesh, std::span<const Real> nx,
                             std::span<const Real> ny, Index c);

/// Signed shoelace area (positive for CCW quads).
[[nodiscard]] Real quad_area(const QuadPts& q);

/// Arithmetic mean of the corners (the median-mesh cell centre).
[[nodiscard]] Vec2 quad_centroid(const QuadPts& q);

/// Gradient of the cell area w.r.t. each corner position:
///   dA/dx_i = (y_{i+1} - y_{i-1}) / 2,  dA/dy_i = (x_{i-1} - x_{i+1}) / 2.
[[nodiscard]] std::array<Vec2, 4> area_gradients(const QuadPts& q);

/// Median-mesh corner volumes: subzone i is the quad
/// (p_i, midpoint(i,i+1), centroid, midpoint(i-1,i)). They tile the cell:
/// sum_i corner_volume_i == quad_area exactly.
[[nodiscard]] std::array<Real, 4> corner_volumes(const QuadPts& q);

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
[[nodiscard]] Real char_length(const QuadPts& q);

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
