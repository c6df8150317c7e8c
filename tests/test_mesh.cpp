// Unit and property tests for the unstructured mesh: generation,
// connectivity discovery, consistency checking, permutation invariance.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "mesh/generator.hpp"
#include "mesh/mesh.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "util/random.hpp"

namespace bm = bookleaf::mesh;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

TEST(MeshGenerate, CountsAreCorrect) {
    const auto m = bm::generate_rect({.nx = 7, .ny = 5});
    EXPECT_EQ(m.n_cells(), 35);
    EXPECT_EQ(m.n_nodes(), 8 * 6);
    // Faces: nx*(ny+1) horizontal + (nx+1)*ny vertical.
    EXPECT_EQ(m.n_faces(), 7 * 6 + 8 * 5);
    EXPECT_EQ(check_consistency(m), "");
}

TEST(MeshGenerate, SingleCell) {
    const auto m = bm::generate_rect({.nx = 1, .ny = 1});
    EXPECT_EQ(m.n_cells(), 1);
    EXPECT_EQ(m.n_nodes(), 4);
    EXPECT_EQ(m.n_faces(), 4);
    for (int k = 0; k < 4; ++k) EXPECT_EQ(m.neighbor(0, k), bookleaf::no_index);
}

TEST(MeshGenerate, RejectsBadSpecs) {
    EXPECT_THROW(bm::generate_rect({.nx = 0, .ny = 3}), bu::Error);
    EXPECT_THROW(bm::generate_rect({.x0 = 1.0, .x1 = 0.0}), bu::Error);
}

TEST(MeshGenerate, InteriorCellHasFourNeighbors) {
    const auto m = bm::generate_rect({.nx = 5, .ny = 5});
    // Cell 12 (centre of a 5x5 block in generation order) is interior.
    int n_neighbors = 0;
    for (int k = 0; k < 4; ++k)
        if (m.neighbor(12, k) != bookleaf::no_index) ++n_neighbors;
    EXPECT_EQ(n_neighbors, 4);
}

TEST(MeshGenerate, BoundaryMasksAreReflectiveWalls) {
    const auto m = bm::generate_rect({.x0 = 0, .x1 = 2, .y0 = 0, .y1 = 1,
                                      .nx = 4, .ny = 2});
    int fix_u = 0, fix_v = 0, both = 0, interior = 0;
    for (Index n = 0; n < m.n_nodes(); ++n) {
        const auto mask = m.node_bc[static_cast<std::size_t>(n)];
        const bool u = mask & bm::bc::fix_u;
        const bool v = mask & bm::bc::fix_v;
        if (u && v) ++both;
        else if (u) ++fix_u;
        else if (v) ++fix_v;
        else ++interior;
    }
    EXPECT_EQ(both, 4);            // the four domain corners
    EXPECT_EQ(fix_u, 2 * (3 - 2)); // x-walls minus corners: 2*(ny+1-2)
    EXPECT_EQ(fix_v, 2 * (5 - 2)); // y-walls minus corners: 2*(nx+1-2)
    EXPECT_EQ(interior, (5 - 2) * (3 - 2));
}

TEST(MeshGenerate, RegionCallbackAssignsMaterials) {
    bm::RectSpec spec{.nx = 10, .ny = 2};
    spec.region_of = [](Real cx, Real) { return cx < 0.5 ? 0 : 1; };
    const auto m = bm::generate_rect(spec);
    int r0 = 0, r1 = 0;
    for (const Index r : m.cell_region) (r == 0 ? r0 : r1)++;
    EXPECT_EQ(r0, 10);
    EXPECT_EQ(r1, 10);
    EXPECT_EQ(m.n_regions(), 2);
}

TEST(MeshGenerate, SaltzmannMapSkewsInterior) {
    bm::RectSpec spec{.x0 = 0, .x1 = 1, .y0 = 0, .y1 = 0.1, .nx = 20, .ny = 10};
    spec.map = bm::saltzmann_map;
    const auto m = bm::generate_rect(spec);
    EXPECT_EQ(check_consistency(m), "");
    // The map moves interior columns in +x; find a node strictly inside.
    bool skewed = false;
    for (Index n = 0; n < m.n_nodes(); ++n) {
        const Real x = m.x[static_cast<std::size_t>(n)];
        if (x > 0.01 && x < 0.99 &&
            std::abs(x - std::round(x * 20) / 20) > 1e-6)
            skewed = true;
    }
    EXPECT_TRUE(skewed);
}

TEST(MeshConnectivity, NeighborsAreReciprocal) {
    const auto m = bm::generate_rect({.nx = 6, .ny = 4});
    for (Index c = 0; c < m.n_cells(); ++c)
        for (int k = 0; k < 4; ++k) {
            const Index nb = m.neighbor(c, k);
            if (nb == bookleaf::no_index) continue;
            bool back = false;
            for (int kk = 0; kk < 4; ++kk)
                if (m.neighbor(nb, kk) == c) back = true;
            EXPECT_TRUE(back) << "cell " << c << " face " << k;
        }
}

TEST(MeshConnectivity, NodeCellsValence) {
    const auto m = bm::generate_rect({.nx = 3, .ny = 3});
    // Corner nodes touch 1 cell, edge nodes 2, interior nodes 4.
    std::multiset<std::size_t> valences;
    for (Index n = 0; n < m.n_nodes(); ++n)
        valences.insert(m.node_cells.row(n).size());
    EXPECT_EQ(valences.count(1), 4u);
    EXPECT_EQ(valences.count(2), 8u);
    EXPECT_EQ(valences.count(4), 4u);
}

TEST(MeshConnectivity, NodeCornersCoverEveryCornerExactlyOnce) {
    // The gather-based nodal assembly depends on this invariant: every
    // (cell, corner) pair appears in node_corners exactly once, under the
    // node that corner references, and rows ascend in flat-id order (the
    // serial-scatter deposition order).
    const auto m = bm::generate_rect({.nx = 7, .ny = 5});
    std::vector<int> seen(static_cast<std::size_t>(m.n_cells()) * 4, 0);
    for (Index n = 0; n < m.n_nodes(); ++n) {
        Index prev = bookleaf::no_index;
        for (const Index ck : m.node_corners.row(n)) {
            EXPECT_GT(ck, prev) << "row of node " << n << " not ascending";
            prev = ck;
            seen[static_cast<std::size_t>(ck)]++;
            EXPECT_EQ(m.cn(ck / 4, ck % 4), n) << "flat corner " << ck;
        }
    }
    for (std::size_t ck = 0; ck < seen.size(); ++ck)
        EXPECT_EQ(seen[ck], 1) << "flat corner " << ck;
    // Rows agree with node_cells (same cells, same valence).
    for (Index n = 0; n < m.n_nodes(); ++n) {
        ASSERT_EQ(m.node_corners.row(n).size(), m.node_cells.row(n).size());
        for (std::size_t i = 0; i < m.node_corners.row(n).size(); ++i)
            EXPECT_EQ(m.node_corners.row(n)[i] / 4, m.node_cells.row(n)[i]);
    }
}

TEST(MeshConsistency, DetectsCorruptNodeCorners) {
    auto m = bm::generate_rect({.nx = 3, .ny = 2});
    ASSERT_EQ(check_consistency(m), "");
    std::swap(m.node_corners.items[0], m.node_corners.items[1]);
    EXPECT_NE(check_consistency(m), "");
}

TEST(MeshConnectivity, FacesHaveConsistentEndpoints) {
    const auto m = bm::generate_rect({.nx = 4, .ny = 3});
    for (const auto& f : m.faces) {
        ASSERT_NE(f.left, bookleaf::no_index);
        const Index la = m.cn(f.left, f.k_left);
        const Index lb = m.cn(f.left, (f.k_left + 1) % 4);
        EXPECT_TRUE((f.a == la && f.b == lb));
        if (f.right != bookleaf::no_index) {
            const Index ra = m.cn(f.right, f.k_right);
            const Index rb = m.cn(f.right, (f.k_right + 1) % 4);
            // Opposite orientation seen from the right cell.
            EXPECT_EQ(ra, lb);
            EXPECT_EQ(rb, la);
        }
    }
}

TEST(MeshConnectivity, RejectsNonManifoldInput) {
    // Three cells stacked on the same face.
    bm::Mesh m;
    m.x = {0, 1, 1, 0, 2, 2, 3};
    m.y = {0, 0, 1, 1, 0.5, 1.5, 0};
    m.cell_nodes = {0, 1, 2, 3,   // quad A, face 1-2 shared
                    1, 4, 5, 2,   // quad B uses face 1-2? no: uses 1-2 via corner order
                    1, 6, 4, 2};  // quad C also contains edge 2-1
    m.cell_region = {0, 0, 0};
    EXPECT_THROW(bm::build_connectivity(m), bu::Error);
}

TEST(MeshConsistency, DetectsCorruptNeighbor) {
    auto m = bm::generate_rect({.nx = 3, .ny = 2});
    m.cell_neigh[0] = 99; // out of range
    EXPECT_NE(check_consistency(m), "");
}

namespace {

/// Brute-force expectation for continuation `side` of edge k of cell c,
/// phrased independently of the table builder's search: the pivot node
/// (cn(c, k) for the previous side, cn(c, k+1) for the next) has two
/// neighbours around the face neighbour; one is its partner on the shared
/// face, the other is the far node. Returns the far node's corner in the
/// neighbour, or -1 without a neighbour.
int expected_continuation(const bm::Mesh& m, Index c, int k, int side) {
    const int face = side == 0 ? (k + 3) % 4 : (k + 1) % 4;
    const Index nb = m.neighbor(c, face);
    if (nb == bookleaf::no_index) return -1;
    const Index pivot = m.cn(c, side == 0 ? k : (k + 1) % 4);
    const Index partner = m.cn(c, side == 0 ? (k + 3) % 4 : (k + 2) % 4);
    for (int i = 0; i < 4; ++i) {
        if (m.cn(nb, i) != pivot) continue;
        const int before = (i + 3) % 4;
        const int after = (i + 1) % 4;
        if (m.cn(nb, before) == partner) return after;
        if (m.cn(nb, after) == partner) return before;
    }
    ADD_FAILURE() << "cell " << c << " face " << face
                  << ": neighbour does not share the face";
    return -2;
}

/// Checks every entry of m's continuation table (and its accessor)
/// against the brute-force expectation; returns the number of "none"
/// entries.
int check_continuations(const bm::Mesh& m, const std::string& what) {
    EXPECT_EQ(m.continuation.size(), static_cast<std::size_t>(m.n_cells()) * 8)
        << what;
    int none = 0;
    for (Index c = 0; c < m.n_cells(); ++c)
        for (int k = 0; k < 4; ++k)
            for (int side = 0; side < 2; ++side) {
                const int want = expected_continuation(m, c, k, side);
                const int got =
                    m.continuation[bm::Mesh::continuation_slot(c, k, side)];
                EXPECT_EQ(got, want) << what << ": cell " << c << " edge " << k
                                     << " side " << side;
                if (want < 0) {
                    ++none;
                    EXPECT_EQ(m.continuation_node(c, k, side),
                              bookleaf::no_index);
                } else {
                    const int face = side == 0 ? (k + 3) % 4 : (k + 1) % 4;
                    EXPECT_EQ(m.continuation_node(c, k, side),
                              m.cn(m.neighbor(c, face), want));
                }
            }
    return none;
}

} // namespace

TEST(MeshContinuation, TableMatchesBruteForceOnGridPermutedAndSkewedMeshes) {
    const Index nx = 9, ny = 7;
    const auto grid = bm::generate_rect({.nx = nx, .ny = ny});
    // Each of the 2(nx + ny) boundary faces ends one continuation of each
    // of the two cell edges that meet it.
    EXPECT_EQ(check_continuations(grid, "grid"), 4 * (nx + ny));

    bu::SplitMix64 rng(2024);
    const auto permuted = bm::permute(grid, rng);
    EXPECT_EQ(check_continuations(permuted, "permuted"), 4 * (nx + ny));

    bm::RectSpec spec{.x0 = 0, .x1 = 1, .y0 = 0, .y1 = 0.1, .nx = 20, .ny = 10};
    spec.map = bm::saltzmann_map;
    EXPECT_EQ(check_continuations(bm::generate_rect(spec), "saltzmann"),
              4 * (20 + 10));
}

TEST(MeshContinuation, SubdomainHaloEdgesHaveNoContinuation) {
    // Every subdomain of a 4-way RCB split. A ghost cell on the outer edge
    // of the halo has faces whose global neighbour is not present locally;
    // the local table must say "none" there, exactly as a search of the
    // local mesh would.
    const auto global = bm::generate_rect({.nx = 16, .ny = 12});
    const auto subs = bookleaf::part::decompose(
        global, bookleaf::part::rcb(global, 4), 4);
    ASSERT_EQ(subs.size(), 4u);
    for (const auto& sub : subs) {
        const auto& m = sub.local;
        const std::string what = "rank " + std::to_string(sub.rank);
        EXPECT_EQ(check_consistency(m), "") << what;
        check_continuations(m, what);
        // Count the halo-edge entries: locally no neighbour, globally one.
        int halo_edge = 0;
        for (Index c = sub.n_owned_cells; c < m.n_cells(); ++c) {
            const Index gc = sub.local_cells[static_cast<std::size_t>(c)];
            for (int f = 0; f < 4; ++f) {
                if (m.neighbor(c, f) != bookleaf::no_index) continue;
                const Index ga =
                    sub.local_nodes[static_cast<std::size_t>(m.cn(c, f))];
                for (int gf = 0; gf < 4; ++gf)
                    if (global.cn(gc, gf) == ga &&
                        global.neighbor(gc, gf) != bookleaf::no_index) {
                        // Both edges meeting face f end a continuation
                        // here.
                        EXPECT_EQ(m.continuation[bm::Mesh::continuation_slot(
                                      c, (f + 1) % 4, 0)],
                                  -1)
                            << what;
                        EXPECT_EQ(m.continuation[bm::Mesh::continuation_slot(
                                      c, (f + 3) % 4, 1)],
                                  -1)
                            << what;
                        ++halo_edge;
                    }
            }
        }
        EXPECT_GT(halo_edge, 0) << what;
        // Owned cells see their full global stencil: an owned cell's
        // continuation is "none" exactly where the global mesh's is.
        for (Index c = 0; c < sub.n_owned_cells; ++c) {
            const Index gc = sub.local_cells[static_cast<std::size_t>(c)];
            for (int k = 0; k < 4; ++k)
                for (int side = 0; side < 2; ++side) {
                    const Index local = m.continuation_node(c, k, side);
                    const Index as_global =
                        local == bookleaf::no_index
                            ? bookleaf::no_index
                            : sub.local_nodes[static_cast<std::size_t>(local)];
                    EXPECT_EQ(as_global, global.continuation_node(gc, k, side))
                        << what << ": owned cell " << c;
                }
        }
    }
}

TEST(MeshConsistency, DetectsCorruptContinuationTable) {
    auto m = bm::generate_rect({.nx = 3, .ny = 2});
    ASSERT_EQ(check_consistency(m), "");
    auto wrong_entry = m;
    auto& e = wrong_entry.continuation[bm::Mesh::continuation_slot(4, 0, 0)];
    ASSERT_GE(e, 0); // cell 4 is interior on the left: a real continuation
    e = static_cast<std::int8_t>((e + 2) % 4);
    EXPECT_NE(check_consistency(wrong_entry), "");
    auto boundary = m;
    boundary.continuation[bm::Mesh::continuation_slot(0, 0, 0)] = 0;
    EXPECT_NE(check_consistency(boundary), "");
    m.continuation.pop_back();
    EXPECT_NE(check_consistency(m), "");
}

class MeshPermuteProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeshPermuteProperty, PermutationPreservesTopology) {
    bu::SplitMix64 rng(GetParam());
    const auto m = bm::generate_rect({.nx = 6, .ny = 5});
    const auto p = bm::permute(m, rng);
    EXPECT_EQ(p.n_cells(), m.n_cells());
    EXPECT_EQ(p.n_nodes(), m.n_nodes());
    EXPECT_EQ(p.n_faces(), m.n_faces());
    EXPECT_EQ(check_consistency(p), "");
    // Geometry multiset is preserved (total coordinate sums).
    Real sx = 0, sy = 0, px = 0, py = 0;
    for (const Real v : m.x) sx += v;
    for (const Real v : m.y) sy += v;
    for (const Real v : p.x) px += v;
    for (const Real v : p.y) py += v;
    EXPECT_NEAR(sx, px, 1e-12);
    EXPECT_NEAR(sy, py, 1e-12);
    // Boundary mask census preserved.
    std::multiset<int> mm, pm;
    for (const auto b : m.node_bc) mm.insert(b);
    for (const auto b : p.node_bc) pm.insert(b);
    EXPECT_EQ(mm, pm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshPermuteProperty,
                         ::testing::Values(3, 17, 29, 101, 997));
