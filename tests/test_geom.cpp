// Tests for per-quad geometry: areas, gradients (checked against finite
// differences), corner-volume tiling, characteristic lengths, quality.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "geom/geometry.hpp"
#include "mesh/generator.hpp"
#include "util/random.hpp"

namespace bg = bookleaf::geom;
namespace bm = bookleaf::mesh;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

namespace {

bg::QuadPts unit_square() {
    return {.x = {0, 1, 1, 0}, .y = {0, 0, 1, 1}};
}

bg::QuadPts random_convexish_quad(bu::SplitMix64& rng) {
    // Perturbed unit square: stays simple (non-self-intersecting) for
    // perturbations < 0.3.
    bg::QuadPts q = unit_square();
    for (int k = 0; k < 4; ++k) {
        q.x[static_cast<std::size_t>(k)] += rng.uniform(-0.25, 0.25);
        q.y[static_cast<std::size_t>(k)] += rng.uniform(-0.25, 0.25);
    }
    return q;
}

} // namespace

TEST(QuadArea, UnitSquare) { EXPECT_DOUBLE_EQ(bg::quad_area(unit_square()), 1.0); }

TEST(QuadArea, OrientationSign) {
    bg::QuadPts cw = {.x = {0, 0, 1, 1}, .y = {0, 1, 1, 0}};
    EXPECT_DOUBLE_EQ(bg::quad_area(cw), -1.0);
}

TEST(QuadArea, TranslationInvariant) {
    bu::SplitMix64 rng(5);
    auto q = random_convexish_quad(rng);
    const Real a0 = bg::quad_area(q);
    for (auto& v : q.x) v += 17.5;
    for (auto& v : q.y) v -= 3.25;
    EXPECT_NEAR(bg::quad_area(q), a0, 1e-12);
}

TEST(QuadCentroid, UnitSquareCentre) {
    const auto c = bg::quad_centroid(unit_square());
    EXPECT_DOUBLE_EQ(c.x, 0.5);
    EXPECT_DOUBLE_EQ(c.y, 0.5);
}

TEST(CornerVolumes, TileTheCell) {
    bu::SplitMix64 rng(42);
    for (int rep = 0; rep < 50; ++rep) {
        const auto q = random_convexish_quad(rng);
        const auto cv = bg::corner_volumes(q);
        const Real sum = cv[0] + cv[1] + cv[2] + cv[3];
        EXPECT_NEAR(sum, bg::quad_area(q), 1e-12) << "rep " << rep;
    }
}

TEST(CornerVolumes, EqualOnSquare) {
    const auto cv = bg::corner_volumes(unit_square());
    for (const Real v : cv) EXPECT_NEAR(v, 0.25, 1e-14);
}

TEST(AreaGradients, MatchFiniteDifferences) {
    bu::SplitMix64 rng(7);
    const Real h = 1e-6;
    for (int rep = 0; rep < 20; ++rep) {
        const auto q = random_convexish_quad(rng);
        const auto g = bg::area_gradients(q);
        for (int k = 0; k < 4; ++k) {
            auto qp = q;
            qp.x[static_cast<std::size_t>(k)] += h;
            auto qm = q;
            qm.x[static_cast<std::size_t>(k)] -= h;
            const Real fd_x = (bg::quad_area(qp) - bg::quad_area(qm)) / (2 * h);
            EXPECT_NEAR(g[static_cast<std::size_t>(k)].x, fd_x, 1e-7);

            qp = q;
            qp.y[static_cast<std::size_t>(k)] += h;
            qm = q;
            qm.y[static_cast<std::size_t>(k)] -= h;
            const Real fd_y = (bg::quad_area(qp) - bg::quad_area(qm)) / (2 * h);
            EXPECT_NEAR(g[static_cast<std::size_t>(k)].y, fd_y, 1e-7);
        }
    }
}

TEST(CornerVolumeGradients, MatchFiniteDifferences) {
    bu::SplitMix64 rng(11);
    const Real h = 1e-6;
    const auto q = random_convexish_quad(rng);
    const auto g = bg::corner_volume_gradients(q);
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            auto qp = q;
            qp.x[static_cast<std::size_t>(j)] += h;
            auto qm = q;
            qm.x[static_cast<std::size_t>(j)] -= h;
            const Real fd_x = (bg::corner_volumes(qp)[static_cast<std::size_t>(i)] -
                               bg::corner_volumes(qm)[static_cast<std::size_t>(i)]) /
                              (2 * h);
            EXPECT_NEAR(g[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].x,
                        fd_x, 1e-7)
                << "i=" << i << " j=" << j;
        }
    }
}

TEST(CornerVolumeGradients, SumToAreaGradients) {
    // Because subzones tile the cell, sum_i d(Vsz_i)/dp_j == dA/dp_j — the
    // identity that keeps sub-zonal forces momentum-conserving.
    bu::SplitMix64 rng(13);
    for (int rep = 0; rep < 20; ++rep) {
        const auto q = random_convexish_quad(rng);
        const auto g = bg::corner_volume_gradients(q);
        const auto ga = bg::area_gradients(q);
        for (std::size_t j = 0; j < 4; ++j) {
            Real sx = 0, sy = 0;
            for (std::size_t i = 0; i < 4; ++i) {
                sx += g[i][j].x;
                sy += g[i][j].y;
            }
            EXPECT_NEAR(sx, ga[j].x, 1e-12);
            EXPECT_NEAR(sy, ga[j].y, 1e-12);
        }
    }
}

namespace {

/// Reference for corner_volume_gradients in its generic chain-rule form:
/// each subzone's shoelace vertex gradients, chained through a table of
/// d(vertex)/d(corner) weights and summed from 0.0 in vertex order,
/// skipping zero weights. The library's straight-line form must match it
/// byte for byte.
std::array<std::array<bg::Vec2, 4>, 4> reference_corner_volume_gradients(
    const bg::QuadPts& q) {
    std::array<std::array<bg::Vec2, 4>, 4> grad{};
    for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t ip = (i + 1) % 4, im = (i + 3) % 4;
        bg::QuadPts pts;
        pts.x = {q.x[i], Real(0.5) * (q.x[i] + q.x[ip]),
                 Real(0.25) * (q.x[0] + q.x[1] + q.x[2] + q.x[3]),
                 Real(0.5) * (q.x[im] + q.x[i])};
        pts.y = {q.y[i], Real(0.5) * (q.y[i] + q.y[ip]),
                 Real(0.25) * (q.y[0] + q.y[1] + q.y[2] + q.y[3]),
                 Real(0.5) * (q.y[im] + q.y[i])};
        std::array<std::array<Real, 4>, 4> w{};
        w[0][i] = 1.0;
        w[1][i] = 0.5;
        w[1][ip] = 0.5;
        for (auto& wj : w[2]) wj = 0.25;
        w[3][im] = 0.5;
        w[3][i] = 0.5;
        const auto vertex_grads = bg::area_gradients(pts);
        for (std::size_t v = 0; v < 4; ++v)
            for (std::size_t j = 0; j < 4; ++j) {
                if (w[v][j] == 0.0) continue;
                grad[i][j].x += w[v][j] * vertex_grads[v].x;
                grad[i][j].y += w[v][j] * vertex_grads[v].y;
            }
    }
    return grad;
}

/// Byte-for-byte comparison (so +0.0 and -0.0 differ).
void expect_same_bytes(const bg::QuadPts& q, const std::string& what) {
    const auto got = bg::corner_volume_gradients(q);
    const auto want = reference_corner_volume_gradients(q);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i][j].x),
                      std::bit_cast<std::uint64_t>(want[i][j].x))
                << what << " i=" << i << " j=" << j << " x: " << got[i][j].x
                << " vs " << want[i][j].x;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i][j].y),
                      std::bit_cast<std::uint64_t>(want[i][j].y))
                << what << " i=" << i << " j=" << j << " y: " << got[i][j].y
                << " vs " << want[i][j].y;
        }
}

} // namespace

TEST(CornerVolumeGradients, BitwiseEqualToTheWeightedSumReference) {
    bu::SplitMix64 rng(17);
    // Random perturbed squares, at unit scale and far from the origin.
    for (int rep = 0; rep < 200; ++rep) {
        auto q = random_convexish_quad(rng);
        const Real scale = rng.uniform(1e-6, 1e6);
        const Real shift = rng.uniform(-1e3, 1e3);
        for (std::size_t k = 0; k < 4; ++k) {
            q.x[k] = q.x[k] * scale + shift;
            q.y[k] = q.y[k] * scale - shift;
        }
        expect_same_bytes(q, "random " + std::to_string(rep));
    }
    // Sheared and stretched parallelograms (Saltzmann-like skew).
    for (int rep = 0; rep < 50; ++rep) {
        const Real shear = rng.uniform(-5.0, 5.0);
        const Real stretch = rng.uniform(1e-3, 1e3);
        bg::QuadPts q = unit_square();
        for (std::size_t k = 0; k < 4; ++k) {
            q.x[k] = q.x[k] * stretch + shear * q.y[k];
        }
        expect_same_bytes(q, "sheared " + std::to_string(rep));
    }
    // Near-degenerate: collapsed edges, needles, a point-like quad, and
    // bow-ties.
    for (int rep = 0; rep < 50; ++rep) {
        bg::QuadPts q = random_convexish_quad(rng);
        const auto k = static_cast<std::size_t>(rep % 4);
        q.x[(k + 1) % 4] = q.x[k] + rng.uniform(-1e-14, 1e-14);
        q.y[(k + 1) % 4] = q.y[k];
        expect_same_bytes(q, "collapsed edge " + std::to_string(rep));
        for (auto& y : q.y) y *= 1e-12;
        expect_same_bytes(q, "needle " + std::to_string(rep));
        std::swap(q.x[0], q.x[1]);
        expect_same_bytes(q, "bow-tie " + std::to_string(rep));
    }
    expect_same_bytes({.x = {1, 1, 1, 1}, .y = {2, 2, 2, 2}}, "point");
}

TEST(CornerVolumeGradients, BitwiseEqualToTheReferenceOnSignedZeros) {
    // Coordinates drawn from {+0, -0, +1, -1}: many gradient entries are
    // exact zeros, whose sign depends on the summation order and on the
    // leading +0.0 of every sum.
    constexpr std::array<Real, 4> values = {0.0, -0.0, 1.0, -1.0};
    bu::SplitMix64 rng(19);
    for (int rep = 0; rep < 2000; ++rep) {
        bg::QuadPts q;
        for (std::size_t k = 0; k < 4; ++k) {
            q.x[k] = values[rng.next_u64() % 4];
            q.y[k] = values[rng.next_u64() % 4];
        }
        expect_same_bytes(q, "signed zeros " + std::to_string(rep));
    }
    expect_same_bytes(
        {.x = {-0.0, -0.0, -0.0, -0.0}, .y = {-0.0, -0.0, -0.0, -0.0}},
        "all -0");
}

namespace {

std::uint64_t bits(Real x) { return std::bit_cast<std::uint64_t>(x); }

} // namespace

TEST(Length, SymmetricExactOnAxesAndWithinOneUlpOfHypot) {
    // Magnitudes log-uniform over the documented range [1e-150, 1e150],
    // both signs. Every other pair draws dy within three decades of dx,
    // where neither square is negligible next to the other.
    bu::SplitMix64 rng(20261017);
    const auto signed_pow10 = [&](Real exponent) {
        const Real mag = std::pow(10.0, exponent);
        return (rng.next_u64() & 1) != 0 ? -mag : mag;
    };
    std::uint64_t worst_ulps = 0;
    for (int i = 0; i < 200000; ++i) {
        const Real ex = rng.uniform(-150.0, 150.0);
        const Real ey = i % 2 == 0
                            ? rng.uniform(-150.0, 150.0)
                            : rng.uniform(std::max(ex - 3.0, -150.0),
                                          std::min(ex + 3.0, 150.0));
        const Real dx = signed_pow10(ex);
        const Real dy = signed_pow10(ey);
        const Real len = bg::length(dx, dy);
        // A ghost rank measures an edge from its other end: the bytes must
        // not depend on the sign or the order of the components.
        ASSERT_EQ(bits(len), bits(bg::length(-dx, dy))) << dx << " " << dy;
        ASSERT_EQ(bits(len), bits(bg::length(dx, -dy))) << dx << " " << dy;
        ASSERT_EQ(bits(len), bits(bg::length(dy, dx))) << dx << " " << dy;
        const Real ref = std::hypot(dx, dy);
        const std::uint64_t ulps =
            bits(len) > bits(ref) ? bits(len) - bits(ref) : bits(ref) - bits(len);
        ASSERT_LE(ulps, 1u) << dx << " " << dy << ": " << len << " vs " << ref;
        worst_ulps = std::max(worst_ulps, ulps);
        // Axis-aligned edges are exact.
        ASSERT_EQ(bits(bg::length(dx, 0.0)), bits(std::abs(dx))) << dx;
        ASSERT_EQ(bits(bg::length(0.0, dy)), bits(std::abs(dy))) << dy;
    }
    // The sqrt form is not hypot: some inputs must land one ulp away, or
    // the sample missed the regime where the two differ.
    EXPECT_EQ(worst_ulps, 1u);
    EXPECT_EQ(bg::length(0.0, 0.0), 0.0);
    EXPECT_EQ(bg::length(3.0, -4.0), 5.0);
}

TEST(CharLength, SquareAndNeedle) {
    // Square of side h: diagonals h*sqrt(2), area h^2 -> L = h/sqrt(2).
    const Real L = bg::char_length(unit_square());
    EXPECT_NEAR(L, 1.0 / std::sqrt(2.0), 1e-12);
    // Needle 1 x 0.01: area 0.01, diag ~1 -> L ~ 0.01 (shrinks correctly).
    bg::QuadPts needle = {.x = {0, 1, 1, 0}, .y = {0, 0, 0.01, 0.01}};
    EXPECT_LT(bg::char_length(needle), 0.02);
}

TEST(MinEdge, UnitSquare) {
    EXPECT_DOUBLE_EQ(bg::min_edge_length(unit_square()), 1.0);
}

TEST(Quality, UniformGridIsPerfect) {
    const auto m = bm::generate_rect({.nx = 8, .ny = 8});
    const auto q = bg::mesh_quality(m);
    EXPECT_NEAR(q.min_area, 1.0 / 64.0, 1e-12);
    EXPECT_NEAR(q.max_aspect, 1.0, 1e-12);
}

TEST(Quality, SaltzmannIsSkewedButValid) {
    bm::RectSpec spec{.x0 = 0, .x1 = 1, .y0 = 0, .y1 = 0.1, .nx = 100, .ny = 10};
    spec.map = bm::saltzmann_map;
    const auto m = bm::generate_rect(spec);
    const auto q = bg::mesh_quality(m);
    EXPECT_GT(q.min_area, 0.0);     // no inverted cells
    EXPECT_GT(q.max_aspect, 1.5);   // visibly distorted
}

TEST(Gather, ReadsCellCorners) {
    const auto m = bm::generate_rect({.nx = 2, .ny = 1});
    const auto q = bg::gather(m, m.x, m.y, 1);
    EXPECT_DOUBLE_EQ(q.x[0], 0.5);
    EXPECT_DOUBLE_EQ(q.x[1], 1.0);
    EXPECT_DOUBLE_EQ(q.y[2], 1.0);
    EXPECT_NEAR(bg::quad_area(q), 0.5, 1e-14);
}
