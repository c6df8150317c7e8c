// Tests for the partitioners (RCB, multilevel) and subdomain extraction.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "mesh/generator.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"

namespace bm = bookleaf::mesh;
namespace bp = bookleaf::part;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

namespace {

void check_partition_is_valid(const std::vector<Index>& part, Index n_cells,
                              int n_parts) {
    ASSERT_EQ(part.size(), static_cast<std::size_t>(n_cells));
    std::vector<int> counts(static_cast<std::size_t>(n_parts), 0);
    for (const Index p : part) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, n_parts);
        counts[static_cast<std::size_t>(p)]++;
    }
    for (const int c : counts) EXPECT_GT(c, 0) << "empty part";
}

} // namespace

TEST(DualGraph, StructuredGridDegrees) {
    const auto m = bm::generate_rect({.nx = 4, .ny = 4});
    const auto g = bp::dual_graph(m);
    EXPECT_EQ(g.n_vertices(), 16);
    // Degree census: 4 corners (2), 8 edges (3), 4 interior (4).
    std::multiset<Index> degrees;
    for (Index v = 0; v < 16; ++v)
        degrees.insert(g.xadj[static_cast<std::size_t>(v) + 1] -
                       g.xadj[static_cast<std::size_t>(v)]);
    EXPECT_EQ(degrees.count(2), 4u);
    EXPECT_EQ(degrees.count(3), 8u);
    EXPECT_EQ(degrees.count(4), 4u);
}

class PartitionerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PartitionerProperty, RcbBalancedAndComplete) {
    const auto& [nx, ny, n_parts] = GetParam();
    const auto m = bm::generate_rect(
        {.nx = static_cast<Index>(nx), .ny = static_cast<Index>(ny)});
    const auto part = bp::rcb(m, n_parts);
    check_partition_is_valid(part, m.n_cells(), n_parts);
    const auto q = bp::quality(m, part, n_parts);
    EXPECT_LE(q.imbalance, 1.34) << "RCB proportional split bound";
}

TEST_P(PartitionerProperty, MultilevelBalancedAndComplete) {
    const auto& [nx, ny, n_parts] = GetParam();
    const auto m = bm::generate_rect(
        {.nx = static_cast<Index>(nx), .ny = static_cast<Index>(ny)});
    const auto part = bp::multilevel(m, n_parts);
    check_partition_is_valid(part, m.n_cells(), n_parts);
    const auto q = bp::quality(m, part, n_parts);
    EXPECT_LE(q.imbalance, 1.5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PartitionerProperty,
                         ::testing::Values(std::make_tuple(8, 8, 2),
                                           std::make_tuple(16, 16, 4),
                                           std::make_tuple(16, 16, 7),
                                           std::make_tuple(32, 8, 8),
                                           std::make_tuple(20, 20, 3),
                                           std::make_tuple(12, 40, 6)));

TEST(Rcb, SinglePartTrivial) {
    const auto m = bm::generate_rect({.nx = 4, .ny = 4});
    const auto part = bp::rcb(m, 1);
    for (const Index p : part) EXPECT_EQ(p, 0);
}

TEST(Rcb, TwoPartsSplitLongestAxis) {
    // A 16x2 strip must split in x.
    const auto m = bm::generate_rect({.x0 = 0, .x1 = 8, .y0 = 0, .y1 = 1,
                                      .nx = 16, .ny = 2});
    const auto part = bp::rcb(m, 2);
    for (Index c = 0; c < m.n_cells(); ++c) {
        Real cx = 0;
        for (int k = 0; k < 4; ++k)
            cx += m.x[static_cast<std::size_t>(m.cn(c, k))] / 4;
        EXPECT_EQ(part[static_cast<std::size_t>(c)], cx < 4.0 ? 0 : 1);
    }
}

TEST(Rcb, EdgeCutNearOptimalOnGrid) {
    // Optimal 2-way cut of a 16x16 grid is a straight line: 16 faces.
    const auto m = bm::generate_rect({.nx = 16, .ny = 16});
    const auto q = bp::quality(m, bp::rcb(m, 2), 2);
    EXPECT_EQ(q.edge_cut, 16);
}

TEST(Multilevel, EdgeCutCompetitiveWithRcb) {
    const auto m = bm::generate_rect({.nx = 24, .ny = 24});
    const auto q_ml = bp::quality(m, bp::multilevel(m, 4), 4);
    const auto q_rcb = bp::quality(m, bp::rcb(m, 4), 4);
    // The multilevel partitioner should be within 2x of RCB's cut on a
    // uniform grid (typically it matches or beats it).
    EXPECT_LE(q_ml.edge_cut, 2 * q_rcb.edge_cut);
}

TEST(Partitioners, RejectBadInput) {
    const auto m = bm::generate_rect({.nx = 2, .ny = 2});
    EXPECT_THROW((void)bp::rcb(m, 0), bu::Error);
    EXPECT_THROW((void)bp::rcb(m, 5), bu::Error);
    EXPECT_THROW((void)bp::multilevel(m, 0), bu::Error);
}

// ---------------------------------------------------------------------------
// Subdomain extraction
// ---------------------------------------------------------------------------

TEST(Subdomain, OwnedCellsPartitionGlobalMesh) {
    const auto m = bm::generate_rect({.nx = 8, .ny = 8});
    const auto part = bp::rcb(m, 4);
    const auto subs = bp::decompose(m, part, 4);
    std::vector<int> owned_count(static_cast<std::size_t>(m.n_cells()), 0);
    for (const auto& sub : subs)
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
            owned_count[static_cast<std::size_t>(
                sub.local.cell_ids[static_cast<std::size_t>(lc)])]++;
    for (const int c : owned_count) EXPECT_EQ(c, 1);
}

TEST(Subdomain, LocalMeshesAreConsistent) {
    const auto m = bm::generate_rect({.nx = 10, .ny = 6});
    const auto part = bp::multilevel(m, 3);
    const auto subs = bp::decompose(m, part, 3);
    for (const auto& sub : subs) {
        EXPECT_EQ(bm::check_consistency(sub.local), "");
        EXPECT_GT(sub.n_owned_cells, 0);
        // Ghosts exist for any multi-part decomposition of a connected mesh.
        EXPECT_GT(sub.local.cell_ids.size(),
                  static_cast<std::size_t>(sub.n_owned_cells));
    }
}

TEST(Subdomain, GhostLayerIsNodeComplete) {
    // Every node of an owned cell must have ALL its global incident cells
    // present locally (needed for exact force assembly).
    const auto m = bm::generate_rect({.nx = 9, .ny = 9});
    const auto part = bp::rcb(m, 4);
    const auto subs = bp::decompose(m, part, 4);
    for (const auto& sub : subs) {
        std::set<Index> local_cell_set(sub.local.cell_ids.begin(),
                                       sub.local.cell_ids.end());
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
            for (int k = 0; k < 4; ++k) {
                const Index ln = sub.local.cn(lc, k);
                const Index gn = sub.local.node_id(ln);
                for (const Index gc : m.node_cells.row(gn))
                    EXPECT_TRUE(local_cell_set.count(gc))
                        << "rank " << sub.rank << " missing ghost " << gc;
            }
        }
    }
}

TEST(Subdomain, NodeOwnershipIsExclusiveAndComplete) {
    const auto m = bm::generate_rect({.nx = 8, .ny = 8});
    const auto part = bp::rcb(m, 4);
    const auto subs = bp::decompose(m, part, 4);
    std::vector<int> owners(static_cast<std::size_t>(m.n_nodes()), 0);
    for (const auto& sub : subs)
        for (std::size_t ln = 0; ln < sub.local.node_ids.size(); ++ln)
            if (sub.node_owned[ln])
                owners[static_cast<std::size_t>(sub.local.node_ids[ln])]++;
    for (const int o : owners) EXPECT_EQ(o, 1);
}

TEST(Subdomain, OwnedNodeCountsSumToTheGlobalMesh) {
    // n_owned_nodes is the checkpoint gather's slice size: across ranks
    // the owned slices must tile the global node set exactly.
    const auto m = bm::generate_rect({.nx = 8, .ny = 8});
    for (const int n_parts : {1, 2, 4, 5}) {
        const auto subs = bp::decompose(m, bp::rcb(m, n_parts), n_parts);
        Index total = 0;
        for (const auto& sub : subs) {
            EXPECT_GT(sub.n_owned_nodes(), 0);
            total += sub.n_owned_nodes();
        }
        EXPECT_EQ(total, m.n_nodes()) << n_parts << " parts";
    }
}

TEST(Subdomain, SchedulesAreMutuallyConsistent) {
    // For each (sender, receiver) pair the flattened send list must map to
    // the same global entities as the receiver's recv list.
    const auto m = bm::generate_rect({.nx = 8, .ny = 8});
    const auto part = bp::rcb(m, 4);
    const auto subs = bp::decompose(m, part, 4);

    for (const auto& sub : subs) {
        for (const auto& peer : sub.cell_schedule.peers) {
            if (peer.recv_items.empty()) continue;
            // Find the matching send entry on the peer rank.
            const auto& other = subs[static_cast<std::size_t>(peer.rank)];
            const bookleaf::typhon::ExchangeSchedule::Peer* match = nullptr;
            for (const auto& p : other.cell_schedule.peers)
                if (p.rank == sub.rank && !p.send_items.empty()) match = &p;
            ASSERT_NE(match, nullptr);
            ASSERT_EQ(match->send_items.size(), peer.recv_items.size());
            for (std::size_t i = 0; i < peer.recv_items.size(); ++i) {
                const Index g_recv = sub.local.cell_id(peer.recv_items[i]);
                const Index g_send = other.local.cell_id(match->send_items[i]);
                EXPECT_EQ(g_recv, g_send);
            }
        }
    }
}

TEST(Subdomain, BcMasksSurviveExtraction) {
    const auto m = bm::generate_rect({.nx = 6, .ny = 6});
    const auto part = bp::rcb(m, 2);
    const auto subs = bp::decompose(m, part, 2);
    for (const auto& sub : subs)
        for (Index ln = 0; ln < sub.local.n_nodes(); ++ln) {
            const auto g = static_cast<std::size_t>(sub.local.node_id(ln));
            EXPECT_EQ(sub.local.node_bc[static_cast<std::size_t>(ln)],
                      m.node_bc[g]);
        }
}

// ---------------------------------------------------------------------------
// Halo layout
// ---------------------------------------------------------------------------

TEST(SubdomainOverlapSets, SingleRankIsAllInterior) {
    // One rank has nothing on a halo: no ghost cell, every node owned and
    // no peer in any schedule, so its step graph gates no task.
    const auto m = bm::generate_rect({.nx = 6, .ny = 6});
    const auto subs = bp::decompose(
        m, std::vector<Index>(static_cast<std::size_t>(m.n_cells()), 0), 1);
    EXPECT_EQ(subs[0].n_owned_cells, m.n_cells());
    EXPECT_EQ(subs[0].local.n_cells(), m.n_cells());
    EXPECT_EQ(subs[0].n_owned_nodes(), m.n_nodes());
    EXPECT_TRUE(subs[0].node_schedule.peers.empty());
    EXPECT_TRUE(subs[0].cell_schedule.peers.empty());
    EXPECT_TRUE(subs[0].corner_schedule.peers.empty());
}
