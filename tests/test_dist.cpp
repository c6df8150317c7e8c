// Integration tests for the distributed (flat-MPI analogue) driver:
// rank-count invariance of the physics, both partitioners, conservation,
// and the distributed ALE/Eulerian remap (bitwise == serial core::Hydro).
#include <gtest/gtest.h>

#include <cmath>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "setup/problems.hpp"
#include "step_records.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace bd = bookleaf::dist;
namespace bh = bookleaf::hydro;
namespace bm = bookleaf::mesh;
namespace be = bookleaf::eos;
namespace bp = bookleaf::part;
using bookleaf::Index;
using bookleaf::Real;

namespace {

struct Problem {
    bm::Mesh mesh;
    be::MaterialTable materials;
    std::vector<Real> rho, ein, u, v;
};

/// A miniature Sod-like two-state problem on a strip.
Problem sod_like(Index nx, Index ny) {
    Problem p;
    bm::RectSpec spec{.x0 = 0, .x1 = 1, .y0 = 0, .y1 = 0.1,
                      .nx = nx, .ny = ny};
    spec.region_of = [](Real cx, Real) { return cx < 0.5 ? 0 : 1; };
    p.mesh = bm::generate_rect(spec);
    p.materials.materials = {be::IdealGas{1.4}, be::IdealGas{1.4}};
    p.rho.resize(static_cast<std::size_t>(p.mesh.n_cells()));
    p.ein.resize(p.rho.size());
    for (Index c = 0; c < p.mesh.n_cells(); ++c) {
        const bool left = p.mesh.cell_region[static_cast<std::size_t>(c)] == 0;
        p.rho[static_cast<std::size_t>(c)] = left ? 1.0 : 0.125;
        // e = P / ((gamma-1) rho): left P=1, right P=0.1.
        p.ein[static_cast<std::size_t>(c)] = left ? 2.5 : 2.0;
    }
    p.u.assign(static_cast<std::size_t>(p.mesh.n_nodes()), 0.0);
    p.v.assign(p.u.size(), 0.0);
    return p;
}

bd::Result run_ranks(const Problem& p, int n_ranks, Real t_end,
                     bool use_multilevel = false) {
    bd::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = t_end;
    opts.hydro.dt_initial = 1e-4;
    if (use_multilevel)
        opts.partitioner = [](const bm::Mesh& m, int n) {
            return bp::multilevel(m, n);
        };
    return bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);
}

} // namespace

TEST(Distributed, SingleRankRuns) {
    const auto p = sod_like(32, 2);
    const auto r = run_ranks(p, 1, 0.02);
    EXPECT_GT(r.steps, 0);
    EXPECT_NEAR(r.t_final, 0.02, 1e-12);
    // The shock tube has begun to evolve: density between states appears.
    Real rho_min = 1e9, rho_max = 0;
    for (const Real rho : r.rho) {
        rho_min = std::min(rho_min, rho);
        rho_max = std::max(rho_max, rho);
    }
    EXPECT_LT(rho_min, 0.13);
    EXPECT_GT(rho_max, 0.9);
}

TEST(Distributed, FourRanksMatchOneRank) {
    const auto p = sod_like(48, 2);
    const auto r1 = run_ranks(p, 1, 0.05);
    const auto r4 = run_ranks(p, 4, 0.05);
    ASSERT_EQ(r1.steps, r4.steps);
    ASSERT_EQ(r1.rho.size(), r4.rho.size());
    for (std::size_t c = 0; c < r1.rho.size(); ++c) {
        EXPECT_NEAR(r4.rho[c], r1.rho[c], 1e-10) << "cell " << c;
        EXPECT_NEAR(r4.ein[c], r1.ein[c], 1e-10) << "cell " << c;
    }
    for (std::size_t n = 0; n < r1.u.size(); ++n)
        EXPECT_NEAR(r4.u[n], r1.u[n], 1e-10) << "node " << n;
}

TEST(Distributed, RankCountSweepIsInvariant) {
    const auto p = sod_like(40, 4);
    const auto ref = run_ranks(p, 1, 0.03);
    for (const int n_ranks : {2, 3, 5, 8}) {
        const auto r = run_ranks(p, n_ranks, 0.03);
        ASSERT_EQ(r.steps, ref.steps) << n_ranks << " ranks";
        Real max_err = 0;
        for (std::size_t c = 0; c < ref.rho.size(); ++c)
            max_err = std::max(max_err, std::abs(r.rho[c] - ref.rho[c]));
        EXPECT_LT(max_err, 1e-9) << n_ranks << " ranks";
    }
}

TEST(Distributed, MultilevelPartitionGivesSamePhysics) {
    const auto p = sod_like(40, 4);
    const auto r_rcb = run_ranks(p, 4, 0.03, false);
    const auto r_ml = run_ranks(p, 4, 0.03, true);
    ASSERT_EQ(r_rcb.steps, r_ml.steps);
    for (std::size_t c = 0; c < r_rcb.rho.size(); ++c)
        EXPECT_NEAR(r_ml.rho[c], r_rcb.rho[c], 1e-9);
}

TEST(Distributed, ConservationAcrossRanks) {
    // Total mass and energy from gathered fields must match the initial
    // totals (reflective box, no piston).
    const auto p = sod_like(32, 4);
    // Initial totals on the global mesh:
    bh::State s0 = bh::allocate(p.mesh);
    s0.rho.assign(p.rho.begin(), p.rho.end());
    s0.ein.assign(p.ein.begin(), p.ein.end());
    bh::initialise(p.mesh, p.materials, s0);
    const auto before = bh::totals(p.mesh, s0);

    const auto r = run_ranks(p, 4, 0.04);
    // Rebuild totals: mass = sum rho*V is unavailable without volumes, so
    // use the dist internal energy directly via mass-weighted e: masses are
    // Lagrangian-constant, equal to the initial cell masses.
    Real internal = 0.0;
    for (std::size_t c = 0; c < r.ein.size(); ++c)
        internal += s0.cell_mass[c] * r.ein[c];
    Real kinetic = 0.0;
    for (std::size_t n = 0; n < r.u.size(); ++n)
        kinetic += Real(0.5) * s0.node_mass[n] *
                   (r.u[n] * r.u[n] + r.v[n] * r.v[n]);
    EXPECT_NEAR(internal + kinetic, before.total_energy(),
                1e-9 * std::abs(before.total_energy()));
}

TEST(Distributed, ProfilerSeesHaloAndReduce) {
    const auto p = sod_like(24, 2);
    const auto r = run_ranks(p, 2, 0.01);
    for (const auto& prof : r.profiles) {
        EXPECT_GT(prof[static_cast<std::size_t>(bookleaf::util::Kernel::halo)]
                      .calls,
                  0);
        EXPECT_GT(prof[static_cast<std::size_t>(bookleaf::util::Kernel::getq)]
                      .calls,
                  0);
    }
}

// ---------------------------------------------------------------------------
// Halo/compute overlap (nonblocking typhon path)
// ---------------------------------------------------------------------------

namespace {

namespace bt = bookleaf::typhon;

bd::Result run_mode(const bm::Mesh& mesh, const be::MaterialTable& materials,
                    const std::vector<Real>& rho, const std::vector<Real>& ein,
                    const std::vector<Real>& u, const std::vector<Real>& v,
                    int n_ranks, Real t_end, bool overlap,
                    bt::Packing packing = bt::Packing::coalesced) {
    bd::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = t_end;
    opts.hydro.dt_initial = 1e-4;
    opts.overlap = overlap;
    opts.packing = packing;
    return bd::run(mesh, materials, rho, ein, u, v, opts);
}

/// Bitwise comparison of two gathered results (the overlap contract:
/// ghost inputs are identical bytes, only the kernel schedule changes).
void expect_bitwise_equal(const bd::Result& a, const bd::Result& b,
                          const std::string& label) {
    ASSERT_EQ(a.steps, b.steps) << label;
    ASSERT_EQ(a.rho.size(), b.rho.size());
    for (std::size_t c = 0; c < a.rho.size(); ++c) {
        EXPECT_EQ(a.rho[c], b.rho[c]) << label << ": cell " << c;
        EXPECT_EQ(a.ein[c], b.ein[c]) << label << ": cell " << c;
    }
    for (std::size_t n = 0; n < a.u.size(); ++n) {
        EXPECT_EQ(a.u[n], b.u[n]) << label << ": node " << n;
        EXPECT_EQ(a.v[n], b.v[n]) << label << ": node " << n;
        EXPECT_EQ(a.x[n], b.x[n]) << label << ": node " << n;
        EXPECT_EQ(a.y[n], b.y[n]) << label << ": node " << n;
    }
    // The shared contract predicate must agree with the element-wise
    // expectations above (it is what the bench and example use).
    EXPECT_TRUE(bd::bitwise_equal(a, b)) << label;
}

} // namespace

TEST(DistOverlap, BitwiseIdenticalToBlockingOnSod) {
    const auto p = sod_like(48, 4);
    for (const int n_ranks : {1, 2, 4}) {
        const auto blocking = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u,
                                       p.v, n_ranks, 0.04, false);
        const auto overlap = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u,
                                      p.v, n_ranks, 0.04, true);
        expect_bitwise_equal(blocking, overlap,
                             "sod " + std::to_string(n_ranks) + " ranks");
    }
}

TEST(DistOverlap, BitwiseIdenticalToBlockingOnNoh) {
    // Noh exercises the subzonal/hourglass force terms and a 2-D front
    // crossing the partition boundaries.
    auto p = bookleaf::setup::noh(20);
    for (const int n_ranks : {1, 2, 4}) {
        const auto blocking = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u,
                                       p.v, n_ranks, 0.05, false);
        const auto overlap = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u,
                                      p.v, n_ranks, 0.05, true);
        expect_bitwise_equal(blocking, overlap,
                             "noh " + std::to_string(n_ranks) + " ranks");
    }
}

TEST(DistOverlap, OverlapMatchesSingleRankToRoundoff) {
    // Rank-count invariance (round-off class, as for the blocking path):
    // the overlapped run at any rank count stays within summation-order
    // round-off of the 1-rank run.
    const auto p = sod_like(40, 4);
    const auto ref = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, 1,
                              0.03, true);
    for (const int n_ranks : {2, 4}) {
        const auto r = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u, p.v,
                                n_ranks, 0.03, true);
        ASSERT_EQ(r.steps, ref.steps);
        for (std::size_t c = 0; c < ref.rho.size(); ++c)
            EXPECT_NEAR(r.rho[c], ref.rho[c], 1e-9) << n_ranks << " ranks";
    }
}

TEST(DistOverlap, HaloProfileStillPopulated) {
    const auto p = sod_like(24, 2);
    const auto r = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, 2,
                            0.01, true);
    for (const auto& prof : r.profiles) {
        EXPECT_GT(prof[static_cast<std::size_t>(bookleaf::util::Kernel::halo)]
                      .calls,
                  0);
        EXPECT_GT(prof[static_cast<std::size_t>(bookleaf::util::Kernel::getacc)]
                      .calls,
                  0);
    }
}

// ---------------------------------------------------------------------------
// Coalesced per-peer halo packing (Packing ablation + message counts)
// ---------------------------------------------------------------------------

TEST(DistPacking, CoalescedEqualsPerFieldEqualsBlockingOnSod) {
    // The full matrix at every rank count: the wire format and the
    // schedule are orthogonal knobs, and all four combinations must land
    // bitwise-identical fields.
    const auto p = sod_like(48, 4);
    for (const int n_ranks : {1, 2, 4}) {
        const auto label = "sod " + std::to_string(n_ranks) + " ranks";
        const auto coalesced =
            run_mode(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, n_ranks,
                     0.04, true, bt::Packing::coalesced);
        const auto per_field =
            run_mode(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, n_ranks,
                     0.04, true, bt::Packing::per_field);
        const auto blocking_coalesced =
            run_mode(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, n_ranks,
                     0.04, false, bt::Packing::coalesced);
        const auto blocking_per_field =
            run_mode(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, n_ranks,
                     0.04, false, bt::Packing::per_field);
        expect_bitwise_equal(coalesced, per_field, label + " (per-field)");
        expect_bitwise_equal(coalesced, blocking_coalesced,
                             label + " (blocking)");
        expect_bitwise_equal(coalesced, blocking_per_field,
                             label + " (blocking per-field)");
    }
}

TEST(DistPacking, CoalescedEqualsPerFieldEqualsBlockingOnNoh) {
    auto p = bookleaf::setup::noh(20);
    for (const int n_ranks : {1, 2, 4}) {
        const auto label = "noh " + std::to_string(n_ranks) + " ranks";
        const auto coalesced = run_mode(p.mesh, p.materials, p.rho, p.ein,
                                        p.u, p.v, n_ranks, 0.05, true,
                                        bt::Packing::coalesced);
        const auto per_field = run_mode(p.mesh, p.materials, p.rho, p.ein,
                                        p.u, p.v, n_ranks, 0.05, true,
                                        bt::Packing::per_field);
        const auto blocking = run_mode(p.mesh, p.materials, p.rho, p.ein,
                                       p.u, p.v, n_ranks, 0.05, false,
                                       bt::Packing::coalesced);
        expect_bitwise_equal(coalesced, per_field, label + " (per-field)");
        expect_bitwise_equal(coalesced, blocking, label + " (blocking)");
    }
}

TEST(DistPacking, MessageCountIsPeersNotFieldsTimesPeers) {
    // The tentpole's accounting: with coalescing the per-step message
    // count collapses from fields x peers to peers on every exchange.
    // Subdomain::messages_per_step is the single written-down statement
    // of that wire format; the Hub's traffic counter must agree exactly.
    const auto p = sod_like(40, 4);
    const int n_ranks = 4;
    const auto part = bp::rcb(p.mesh, n_ranks);
    const auto subs = bp::decompose(p.mesh, part, n_ranks);
    for (const auto packing :
         {bt::Packing::coalesced, bt::Packing::per_field}) {
        long per_step = 0;
        for (const auto& sub : subs) per_step += sub.messages_per_step(packing);
        for (const bool overlap : {true, false}) {
            const auto r = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u,
                                    p.v, n_ranks, 0.02, overlap, packing);
            ASSERT_GT(r.steps, 0);
            EXPECT_EQ(r.traffic.messages,
                      static_cast<long>(r.steps) * per_step)
                << (packing == bt::Packing::coalesced ? "coalesced"
                                                      : "per_field")
                << (overlap ? " overlap" : " blocking");
        }
    }
    // And coalescing strictly reduces messages while moving the same
    // payload (ghost reals are identical bytes in both formats).
    const auto coalesced = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u,
                                    p.v, n_ranks, 0.02, true,
                                    bt::Packing::coalesced);
    const auto per_field = run_mode(p.mesh, p.materials, p.rho, p.ein, p.u,
                                    p.v, n_ranks, 0.02, true,
                                    bt::Packing::per_field);
    EXPECT_LT(coalesced.traffic.messages, per_field.traffic.messages);
    EXPECT_EQ(coalesced.traffic.reals, per_field.traffic.reals);
}

// ---------------------------------------------------------------------------
// Distributed ALE/Eulerian remap (bitwise == serial core::Hydro contract)
// ---------------------------------------------------------------------------

namespace {

namespace ba = bookleaf::ale;

/// Run the serial reference driver on a problem and collect the fields
/// the distributed result gathers, plus its per-step records. The
/// distributed remap's contract is bitwise equality against exactly this.
struct SerialFields {
    int steps = 0;
    std::vector<Real> rho, ein, u, v, x, y;
    std::vector<bookleaf::obs::StepRecord> records;
};

SerialFields serial_reference(bookleaf::setup::Problem problem, Real t_end) {
    problem.telemetry.enabled = true;
    bookleaf::core::Hydro h(std::move(problem));
    const auto summary = h.run(t_end);
    SerialFields f;
    f.steps = summary.steps;
    f.rho.assign(h.state().rho.begin(), h.state().rho.end());
    f.ein.assign(h.state().ein.begin(), h.state().ein.end());
    f.u.assign(h.state().u.begin(), h.state().u.end());
    f.v.assign(h.state().v.begin(), h.state().v.end());
    f.x.assign(h.state().x.begin(), h.state().x.end());
    f.y.assign(h.state().y.begin(), h.state().y.end());
    f.records = h.telemetry_report().ranks.at(0).steps;
    return f;
}

/// Every gathered field must equal the serial driver's bit for bit (every
/// global entity is owned by exactly one rank), and every rank must
/// record the serial step clock.
void expect_bitwise_serial(const bd::Result& r, const SerialFields& ref,
                           const std::string& label) {
    ASSERT_EQ(r.steps, ref.steps) << label;
    ASSERT_EQ(r.rho.size(), ref.rho.size()) << label;
    for (std::size_t c = 0; c < ref.rho.size(); ++c) {
        EXPECT_EQ(r.rho[c], ref.rho[c]) << label << ": cell " << c;
        EXPECT_EQ(r.ein[c], ref.ein[c]) << label << ": cell " << c;
    }
    for (std::size_t n = 0; n < ref.u.size(); ++n) {
        EXPECT_EQ(r.u[n], ref.u[n]) << label << ": node " << n;
        EXPECT_EQ(r.v[n], ref.v[n]) << label << ": node " << n;
        EXPECT_EQ(r.x[n], ref.x[n]) << label << ": node " << n;
        EXPECT_EQ(r.y[n], ref.y[n]) << label << ": node " << n;
    }
    const auto& ranks = r.telemetry.ranks;
    ASSERT_FALSE(ranks.empty()) << label;
    for (const auto& rank : ranks)
        bookleaf::test::expect_same_steps(
            rank.steps, ref.records, ranks.size() == 1,
            label + ", rank " + std::to_string(rank.rank));
}

bd::Result run_deck(const bookleaf::setup::Problem& p, int n_ranks, Real t_end,
                    bool overlap, bt::Packing packing) {
    bd::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = t_end;
    opts.hydro = p.hydro;
    opts.ale = p.ale;
    opts.overlap = overlap;
    opts.packing = packing;
    opts.telemetry.enabled = true;
    return bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);
}

} // namespace

TEST(DistRemap, EulerianSodBitwiseMatchesSerialDriver) {
    // The sod_eulerian.in configuration at test scale: remap back to the
    // generation mesh every step. Gathered rho/ein/u/v/x/y must be
    // bitwise identical to the serial core::Hydro run on owned entities
    // at every rank count, for every (overlap x packing) combination.
    const Real t_end = 0.03;
    auto problem = bookleaf::setup::sod(48, 4);
    problem.ale.mode = ba::Mode::eulerian;
    const auto ref = serial_reference(bookleaf::setup::sod(48, 4), t_end);
    // (serial_reference consumed a fresh copy; re-apply the mode there)
    auto eul = bookleaf::setup::sod(48, 4);
    eul.ale.mode = ba::Mode::eulerian;
    const auto ref_eul = serial_reference(std::move(eul), t_end);
    ASSERT_GT(ref_eul.steps, 0);
    // The final step lands on t_end, so the clamp is compared too.
    EXPECT_EQ(bookleaf::obs::dt_reason_name(ref_eul.records.back().dt_reason),
              "t_end");
    // Sanity: the remap changes the answer (otherwise the contract below
    // would be vacuous).
    EXPECT_NE(ref.rho, ref_eul.rho);

    for (const int n_ranks : {1, 2, 4})
        for (const bool overlap : {true, false})
            for (const auto packing :
                 {bt::Packing::coalesced, bt::Packing::per_field}) {
                const auto label =
                    "eulerian sod " + std::to_string(n_ranks) + " ranks " +
                    (overlap ? "overlap" : "blocking") +
                    (packing == bt::Packing::coalesced ? " coalesced"
                                                       : " per-field");
                const auto r =
                    run_deck(problem, n_ranks, t_end, overlap, packing);
                expect_bitwise_serial(r, ref_eul, label);
            }
}

TEST(DistRemap, AleNohBitwiseMatchesSerialDriver) {
    // An ALE Noh deck: Jacobi-smoothed target mesh every third step. The
    // smoothing adds the per-pass node-position halo; the contract is the
    // same bitwise identity.
    const Real t_end = 0.04;
    auto problem = bookleaf::setup::noh(16);
    problem.ale.mode = ba::Mode::ale;
    problem.ale.frequency = 3;
    problem.ale.smoothing_passes = 2;
    auto serial_problem = bookleaf::setup::noh(16);
    serial_problem.ale = problem.ale;
    const auto ref = serial_reference(std::move(serial_problem), t_end);
    ASSERT_GT(ref.steps, 0);

    for (const int n_ranks : {1, 2, 4})
        for (const bool overlap : {true, false}) {
            const auto label = "ale noh " + std::to_string(n_ranks) +
                               " ranks " + (overlap ? "overlap" : "blocking");
            const auto r = run_deck(problem, n_ranks, t_end, overlap,
                                    bt::Packing::coalesced);
            expect_bitwise_serial(r, ref, label);
        }
    // And the packing ablation at the largest rank count.
    const auto r = run_deck(problem, 4, t_end, true, bt::Packing::per_field);
    expect_bitwise_serial(r, ref, "ale noh 4 ranks per-field");
}

TEST(DistRemap, LagrangeIsNowBitwiseRankInvariantToo) {
    // The globally-ordered assembly gather makes even the pure-Lagrange
    // distributed driver bitwise identical to core::Hydro — the remap
    // contract rests on this, so pin it.
    const Real t_end = 0.03;
    const auto problem = bookleaf::setup::sod(40, 4);
    const auto ref = serial_reference(bookleaf::setup::sod(40, 4), t_end);
    for (const int n_ranks : {2, 4}) {
        const auto r = run_deck(problem, n_ranks, t_end, true,
                                bt::Packing::coalesced);
        expect_bitwise_serial(r, ref,
                              "lagrange sod " + std::to_string(n_ranks));
    }
}

namespace {

/// Harness for driving dist::remap directly: a consistent global state
/// with nonuniform fields, randomized velocities and a fake Lagrangian
/// interior displacement, plus the machinery to build the matching
/// per-rank subdomain states.
struct RemapRig {
    bm::Mesh mesh;
    be::MaterialTable materials;
    std::vector<Real> rho, ein, u, v;

    explicit RemapRig(Index nx, Index ny) {
        mesh = bm::generate_rect({.nx = nx, .ny = ny,
                                  .reflective_walls = false});
        materials.materials = {be::IdealGas{1.4}};
        rho.resize(static_cast<std::size_t>(mesh.n_cells()));
        ein.resize(rho.size());
        for (Index c = 0; c < mesh.n_cells(); ++c) {
            rho[static_cast<std::size_t>(c)] = 1.0 + 0.5 * std::sin(0.9 * c);
            ein[static_cast<std::size_t>(c)] = 2.0 + 0.7 * std::cos(1.7 * c);
        }
        bookleaf::util::SplitMix64 rng(7);
        u.resize(static_cast<std::size_t>(mesh.n_nodes()));
        v.resize(u.size());
        for (auto& w : u) w = rng.uniform(-0.3, 0.3);
        for (auto& w : v) w = rng.uniform(-0.3, 0.3);
    }

    /// Displace strictly-interior nodes (keyed on the generation-time
    /// coordinates so every rank applies the identical move), rebuild the
    /// dependent state, and re-derive node masses through the assembly
    /// gather (initialise's node-mass loop sums in mesh-local order; the
    /// gather is what both drivers use from the first step on).
    void prepare(const bh::Context& ctx, bh::State& s,
                 std::span<const Index> to_global) const {
        for (Index n = 0; n < ctx.mesh->n_nodes(); ++n) {
            const auto gi = static_cast<std::size_t>(
                to_global.empty() ? n : to_global[static_cast<std::size_t>(n)]);
            const auto ni = static_cast<std::size_t>(n);
            const Real px = mesh.x[gi], py = mesh.y[gi];
            if (px < 1e-9 || px > 1 - 1e-9 || py < 1e-9 || py > 1 - 1e-9)
                continue;
            s.x[ni] += 0.008;
            s.y[ni] += 0.006;
        }
        s.x0 = s.x;
        s.y0 = s.y;
        bh::getgeom(ctx, s, s.u, s.v, 0.0);
        bh::getrho(ctx, s);
        bh::getpc(ctx, s);
        std::vector<Index> all(static_cast<std::size_t>(ctx.mesh->n_nodes()));
        for (Index n = 0; n < ctx.mesh->n_nodes(); ++n)
            all[static_cast<std::size_t>(n)] = n;
        bh::getacc_assemble(ctx, s, all);
    }
};

struct RemapTotals {
    Real mass = 0, internal = 0, px = 0, py = 0;
};

RemapTotals remap_totals(std::span<const Real> cell_mass,
                         std::span<const Real> ein,
                         std::span<const Real> node_mass,
                         std::span<const Real> u,
                         std::span<const Real> v) {
    RemapTotals t;
    for (std::size_t c = 0; c < cell_mass.size(); ++c) {
        t.mass += cell_mass[c];
        t.internal += cell_mass[c] * ein[c];
    }
    for (std::size_t n = 0; n < u.size(); ++n) {
        t.px += node_mass[n] * u[n];
        t.py += node_mass[n] * v[n];
    }
    return t;
}

} // namespace

TEST(DistRemap, ConservationPerRemapExactAtEveryRankCount) {
    // One Eulerian remap of a displaced nonuniform state, limiter on and
    // off: mass, internal energy and momentum are conserved to
    // near-machine precision, and the distributed remap's gathered fields
    // (hence its conserved totals, summed in global order) are bitwise
    // identical to the serial ale::alestep.
    const RemapRig rig(8, 8);
    bookleaf::util::Profiler profiler;

    for (const bool limit : {true, false}) {
        ba::Options aopts;
        aopts.mode = ba::Mode::eulerian;
        aopts.limit = limit;

        // --- serial reference remap ----------------------------------------
        bh::State serial = bh::allocate(rig.mesh);
        serial.rho.assign(rig.rho.begin(), rig.rho.end());
        serial.ein.assign(rig.ein.begin(), rig.ein.end());
        serial.u.assign(rig.u.begin(), rig.u.end());
        serial.v.assign(rig.v.begin(), rig.v.end());
        bh::initialise(rig.mesh, rig.materials, serial);
        bh::Context ctx;
        ctx.mesh = &rig.mesh;
        ctx.materials = &rig.materials;
        ctx.profiler = &profiler;
        rig.prepare(ctx, serial, {});
        const auto before =
            remap_totals(serial.cell_mass, serial.ein, serial.node_mass,
                         serial.u, serial.v);
        ba::Workspace w;
        ba::alestep(ctx, serial, aopts, w);
        const auto after =
            remap_totals(serial.cell_mass, serial.ein, serial.node_mass,
                         serial.u, serial.v);

        EXPECT_NEAR(after.mass, before.mass, 1e-13 * before.mass) << limit;
        EXPECT_NEAR(after.internal, before.internal,
                    1e-12 * std::abs(before.internal))
            << limit;
        EXPECT_NEAR(after.px, before.px, 1e-12) << limit;
        EXPECT_NEAR(after.py, before.py, 1e-12) << limit;

        // --- distributed remap at 2 and 4 ranks -----------------------------
        for (const int n_ranks : {2, 4}) {
            const auto part = bp::rcb(rig.mesh, n_ranks);
            const auto subs = bp::decompose(rig.mesh, part, n_ranks);
            std::vector<Real> g_mass(rig.rho.size()), g_ein(rig.rho.size());
            std::vector<Real> g_nmass(rig.u.size()), g_u(rig.u.size()),
                g_v(rig.u.size()), g_x(rig.u.size()), g_y(rig.u.size());
            std::vector<bookleaf::util::Profiler> profs(
                static_cast<std::size_t>(n_ranks));

            bt::run(n_ranks, [&](bt::Comm& comm) {
                const auto& sub = subs[static_cast<std::size_t>(comm.rank())];
                bh::State s = bh::allocate(sub.local);
                for (std::size_t lc = 0; lc < sub.local_cells.size(); ++lc) {
                    const auto gc =
                        static_cast<std::size_t>(sub.local_cells[lc]);
                    s.rho[lc] = rig.rho[gc];
                    s.ein[lc] = rig.ein[gc];
                }
                for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln) {
                    const auto gn =
                        static_cast<std::size_t>(sub.local_nodes[ln]);
                    s.u[ln] = rig.u[gn];
                    s.v[ln] = rig.v[gn];
                }
                bh::initialise(sub.local, rig.materials, s);
                bh::Context lctx;
                lctx.mesh = &sub.local;
                lctx.materials = &rig.materials;
                lctx.profiler =
                    &profs[static_cast<std::size_t>(comm.rank())];
                lctx.dt_cells = sub.n_owned_cells;
                lctx.assembly_corners = &sub.assembly_corners;
                rig.prepare(lctx, s, sub.local_nodes);

                ba::Workspace lw;
                bd::remap(lctx, s, aopts, lw, comm, sub,
                          bt::Packing::coalesced);

                for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
                    const auto gc = static_cast<std::size_t>(
                        sub.local_cells[static_cast<std::size_t>(lc)]);
                    g_mass[gc] = s.cell_mass[static_cast<std::size_t>(lc)];
                    g_ein[gc] = s.ein[static_cast<std::size_t>(lc)];
                }
                for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln) {
                    if (!sub.node_owned[ln]) continue;
                    const auto gn =
                        static_cast<std::size_t>(sub.local_nodes[ln]);
                    g_nmass[gn] = s.node_mass[ln];
                    g_u[gn] = s.u[ln];
                    g_v[gn] = s.v[ln];
                    g_x[gn] = s.x[ln];
                    g_y[gn] = s.y[ln];
                }
            });

            const auto label = std::string(limit ? "limit" : "no-limit") +
                               " " + std::to_string(n_ranks) + " ranks";
            // Bitwise identity with the serial remap on every owned field
            // — which makes the distributed conserved totals (global
            // summation order) bit-identical to the serial ones checked
            // above.
            for (std::size_t c = 0; c < g_mass.size(); ++c) {
                EXPECT_EQ(g_mass[c], serial.cell_mass[c])
                    << label << " cell " << c;
                EXPECT_EQ(g_ein[c], serial.ein[c]) << label << " cell " << c;
            }
            for (std::size_t n = 0; n < g_u.size(); ++n) {
                EXPECT_EQ(g_nmass[n], serial.node_mass[n])
                    << label << " node " << n;
                EXPECT_EQ(g_u[n], serial.u[n]) << label << " node " << n;
                EXPECT_EQ(g_v[n], serial.v[n]) << label << " node " << n;
                EXPECT_EQ(g_x[n], serial.x[n]) << label << " node " << n;
                EXPECT_EQ(g_y[n], serial.y[n]) << label << " node " << n;
            }
            const auto dist_after =
                remap_totals(g_mass, g_ein, g_nmass, g_u, g_v);
            EXPECT_EQ(dist_after.mass, after.mass) << label;
            EXPECT_EQ(dist_after.internal, after.internal) << label;
            EXPECT_EQ(dist_after.px, after.px) << label;
            EXPECT_EQ(dist_after.py, after.py) << label;
        }
    }
}

TEST(DistRemap, GhostGradientExchangeMatchesSerial) {
    // Unit test of the ghost-gradient exchange on a hand-built 2-rank
    // split: after aleadvect_gradients(owned) + the remap_cell_schedule
    // exchange, every face-adjacent ghost cell holds bitwise the gradient
    // its owner computed — which is bitwise the serial gradient.
    const auto m = bm::generate_rect({.nx = 6, .ny = 3});
    be::MaterialTable mats;
    mats.materials = {be::IdealGas{1.4}};
    std::vector<Real> rho(static_cast<std::size_t>(m.n_cells()));
    std::vector<Real> ein(rho.size());
    for (Index c = 0; c < m.n_cells(); ++c) {
        rho[static_cast<std::size_t>(c)] = 1.0 + 0.3 * std::sin(1.3 * c);
        ein[static_cast<std::size_t>(c)] = 2.0 + 0.2 * std::cos(0.7 * c);
    }
    // Hand partition with a corner in the cut (rank 1 owns the upper-right
    // block): corners make some ghosts node-only-adjacent, which is what
    // distinguishes the gradient schedule from the full cell schedule.
    std::vector<Index> part(static_cast<std::size_t>(m.n_cells()));
    for (Index c = 0; c < m.n_cells(); ++c) {
        const Index col = c % 6, row = c / 6;
        part[static_cast<std::size_t>(c)] = (col >= 3 && row >= 1) ? 1 : 0;
    }
    const auto subs = bp::decompose(m, part, 2);

    // The gradient schedule must be a strict, non-empty subset of the
    // ghost-cell schedule: node-only-adjacent ghosts (e.g. the cell
    // diagonally below the cut's corner) receive no gradients.
    std::size_t grad_items = 0, cell_items = 0;
    for (const auto& sub : subs) {
        for (const auto& peer : sub.remap_cell_schedule.peers)
            grad_items += peer.recv_items.size();
        for (const auto& peer : sub.cell_schedule.peers)
            cell_items += peer.recv_items.size();
    }
    EXPECT_GT(grad_items, 0u);
    EXPECT_LT(grad_items, cell_items);

    // Serial gradients.
    bookleaf::util::Profiler prof;
    bh::State serial = bh::allocate(m);
    serial.rho.assign(rho.begin(), rho.end());
    serial.ein.assign(ein.begin(), ein.end());
    bh::initialise(m, mats, serial);
    bh::Context ctx;
    ctx.mesh = &m;
    ctx.materials = &mats;
    ctx.profiler = &prof;
    ba::Workspace sw;
    ba::Options aopts;
    ba::aleadvect_centroids(ctx, serial, sw);
    ba::aleadvect_gradients(ctx, serial, aopts, sw, m.n_cells());

    std::array<bookleaf::util::Profiler, 2> profs;
    bt::run(2, [&](bt::Comm& comm) {
        const auto& sub = subs[static_cast<std::size_t>(comm.rank())];
        bh::State s = bh::allocate(sub.local);
        for (std::size_t lc = 0; lc < sub.local_cells.size(); ++lc) {
            const auto gc = static_cast<std::size_t>(sub.local_cells[lc]);
            s.rho[lc] = rho[gc];
            s.ein[lc] = ein[gc];
        }
        bh::initialise(sub.local, mats, s);
        bh::Context lctx;
        lctx.mesh = &sub.local;
        lctx.materials = &mats;
        lctx.profiler = &profs[static_cast<std::size_t>(comm.rank())];
        ba::Workspace lw;
        ba::aleadvect_centroids(lctx, s, lw);
        ba::aleadvect_gradients(lctx, s, aopts, lw, sub.n_owned_cells);
        bt::exchange_all(comm, sub.remap_cell_schedule,
                         {lw.grad_rho_x, lw.grad_rho_y, lw.grad_e_x,
                          lw.grad_e_y},
                         320);

        // Every owned cell matches serial outright; every face-adjacent
        // ghost matches through the exchange.
        const auto n_local = static_cast<Index>(sub.local_cells.size());
        std::vector<std::uint8_t> got(static_cast<std::size_t>(n_local), 0);
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
            got[static_cast<std::size_t>(lc)] = 1;
        for (const auto& peer : sub.remap_cell_schedule.peers)
            for (const Index lc : peer.recv_items)
                got[static_cast<std::size_t>(lc)] = 1;
        for (Index lc = 0; lc < n_local; ++lc) {
            if (!got[static_cast<std::size_t>(lc)]) continue;
            const auto gc = static_cast<std::size_t>(
                sub.local_cells[static_cast<std::size_t>(lc)]);
            const auto li = static_cast<std::size_t>(lc);
            EXPECT_EQ(lw.grad_rho_x[li], sw.grad_rho_x[gc])
                << "rank " << comm.rank() << " cell " << gc;
            EXPECT_EQ(lw.grad_rho_y[li], sw.grad_rho_y[gc])
                << "rank " << comm.rank() << " cell " << gc;
            EXPECT_EQ(lw.grad_e_x[li], sw.grad_e_x[gc])
                << "rank " << comm.rank() << " cell " << gc;
            EXPECT_EQ(lw.grad_e_y[li], sw.grad_e_y[gc])
                << "rank " << comm.rank() << " cell " << gc;
        }
    });
}

TEST(DistRemap, MessageCountMatchesMetadata) {
    // The remap wire format written down in Subdomain::messages_per_remap
    // must agree exactly with the Hub's measured traffic: per step the
    // fused state halo + corner halo, per remap the pre-remap refresh,
    // the smoothing syncs (ALE only), the gradient halo and the fused
    // result exchange.
    const auto p = sod_like(40, 4);
    const int n_ranks = 4;
    const auto part = bp::rcb(p.mesh, n_ranks);
    const auto subs = bp::decompose(p.mesh, part, n_ranks);

    struct Case {
        ba::Mode mode;
        int frequency;
        int smoothing_passes;
    };
    for (const auto& cs : {Case{ba::Mode::eulerian, 1, 0},
                           Case{ba::Mode::ale, 2, 3}}) {
        for (const auto packing :
             {bt::Packing::coalesced, bt::Packing::per_field}) {
            bd::Options opts;
            opts.n_ranks = n_ranks;
            opts.t_end = 0.01;
            opts.hydro.dt_initial = 1e-4;
            opts.packing = packing;
            opts.ale.mode = cs.mode;
            opts.ale.frequency = cs.frequency;
            opts.ale.smoothing_passes = cs.smoothing_passes;
            const auto r = bd::run(p.mesh, p.materials, p.rho, p.ein, p.u,
                                   p.v, opts);
            ASSERT_GT(r.steps, 0);
            const int n_mesh_exchanges =
                cs.mode == ba::Mode::ale ? cs.smoothing_passes + 1 : 0;
            const long remaps =
                cs.mode == ba::Mode::eulerian
                    ? r.steps
                    : r.steps / cs.frequency; // steps where (k+1) % f == 0
            long expected = 0;
            for (const auto& sub : subs)
                expected +=
                    static_cast<long>(r.steps) * sub.messages_per_step(packing) +
                    remaps * sub.messages_per_remap(packing, n_mesh_exchanges);
            EXPECT_EQ(r.traffic.messages, expected)
                << (cs.mode == ba::Mode::eulerian ? "eulerian" : "ale")
                << (packing == bt::Packing::coalesced ? " coalesced"
                                                      : " per_field");
        }
    }
}
