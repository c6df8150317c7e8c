// Fault-tolerance tests: deterministic fault injection (FaultPlan),
// the step health guards with dt-backoff retry (ResilGuard), and the
// supervised in-flight rank-failure recovery (ResilRecovery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "setup/deck.hpp"
#include "setup/problems.hpp"
#include "step_records.hpp"
#include "typhon/fault.hpp"
#include "util/error.hpp"

namespace bc = bookleaf::core;
namespace bck = bookleaf::ckpt;
namespace bd = bookleaf::dist;
namespace be = bookleaf::eos;
namespace bm = bookleaf::mesh;
namespace bs = bookleaf::setup;
namespace bt = bookleaf::typhon;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

namespace {

struct Problem {
    bm::Mesh mesh;
    be::MaterialTable materials;
    std::vector<Real> rho, ein, u, v;
};

/// A miniature Sod-like two-state problem on a strip (same setup as the
/// dist driver tests).
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
        p.ein[static_cast<std::size_t>(c)] = left ? 2.5 : 2.0;
    }
    p.u.assign(static_cast<std::size_t>(p.mesh.n_nodes()), 0.0);
    p.v.assign(p.u.size(), 0.0);
    return p;
}

bd::Options base_opts(int n_ranks, Real t_end) {
    bd::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = t_end;
    opts.hydro.dt_initial = 1e-4;
    return opts;
}

bd::Result run_dist(const Problem& p, const bd::Options& opts) {
    return bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);
}

} // namespace

// ---------------------------------------------------------------------------
// FaultPlan: deterministic injection at the transport layer
// ---------------------------------------------------------------------------

TEST(FaultPlan, DelaysAndSlowsDoNotChangeResultsOrTraffic) {
    // Held-back (reordered) deliveries and a slowed rank perturb timing
    // only: every byte and even the message count must be unchanged —
    // the zero-cost-when-empty / perturbation-free contract.
    const auto p = sod_like(40, 2);
    const auto clean = run_dist(p, base_opts(4, 0.02));

    auto opts = base_opts(4, 0.02);
    opts.faults.delays.push_back({.rank = 1, .every = 3});
    opts.faults.slows.push_back({.rank = 2, .microseconds = 20});
    opts.faults.seed = 7;
    const auto faulty = run_dist(p, opts);
    EXPECT_TRUE(bd::bitwise_equal(clean, faulty));
    EXPECT_EQ(clean.traffic.messages, faulty.traffic.messages);
    EXPECT_EQ(clean.traffic.reals, faulty.traffic.reals);
}

TEST(FaultPlan, KillAtStepReportsRankAndStep) {
    // Unsupervised, the failure must surface as a RankFailure naming the
    // failed rank and the step — not a masked generic abort.
    const auto p = sod_like(40, 2);
    auto opts = base_opts(4, 0.05);
    opts.faults.kills.push_back({.rank = 2, .at_step = 5});
    try {
        run_dist(p, opts);
        FAIL() << "expected typhon::RankFailure";
    } catch (const bt::RankFailure& f) {
        EXPECT_EQ(f.rank, 2);
        EXPECT_EQ(f.step, 5);
        EXPECT_NE(std::string(f.what()).find("rank 2"), std::string::npos)
            << f.what();
        EXPECT_NE(std::string(f.what()).find("step 5"), std::string::npos)
            << f.what();
    }
}

TEST(FaultPlan, KillAtMessageReportsRank) {
    const auto p = sod_like(40, 2);
    auto opts = base_opts(4, 0.05);
    opts.faults.kills.push_back({.rank = 1, .at_message = 50});
    try {
        run_dist(p, opts);
        FAIL() << "expected typhon::RankFailure";
    } catch (const bt::RankFailure& f) {
        EXPECT_EQ(f.rank, 1);
        EXPECT_NE(std::string(f.what()).find("rank 1"), std::string::npos)
            << f.what();
    }
    // RankFailure derives from util::Error, so existing catch sites hold.
    auto opts2 = base_opts(4, 0.05);
    opts2.faults.kills.push_back({.rank = 1, .at_message = 50});
    EXPECT_THROW(run_dist(p, opts2), bu::Error);
}

TEST(FaultPlan, KillIsDeterministic) {
    // The same plan fails at exactly the same point every time.
    const auto p = sod_like(32, 2);
    for (int repeat = 0; repeat < 2; ++repeat) {
        auto opts = base_opts(3, 0.05);
        opts.faults.kills.push_back({.rank = 1, .at_message = 33});
        try {
            run_dist(p, opts);
            FAIL() << "expected typhon::RankFailure";
        } catch (const bt::RankFailure& f) {
            EXPECT_EQ(f.rank, 1) << "repeat " << repeat;
        }
    }
}

// ---------------------------------------------------------------------------
// ResilGuard: step health guards + dt-backoff retry
// ---------------------------------------------------------------------------

TEST(ResilGuard, HealthyRunUnperturbedByGuardsSerial) {
    // Guards on a healthy trajectory must not change a single byte.
    bc::Hydro plain(bs::sod(32, 2));
    auto guarded_problem = bs::sod(32, 2);
    guarded_problem.hydro.guard.enabled = true;
    bc::Hydro guarded(std::move(guarded_problem));
    plain.run(0.1);
    guarded.run(0.1);
    ASSERT_EQ(plain.steps(), guarded.steps());
    EXPECT_EQ(plain.state().rho, guarded.state().rho);
    EXPECT_EQ(plain.state().ein, guarded.state().ein);
    EXPECT_EQ(plain.state().u, guarded.state().u);
    EXPECT_EQ(plain.state().x, guarded.state().x);
}

TEST(ResilGuard, HealthyRunUnperturbedByGuardsDistributed) {
    // ... and in the distributed driver the per-step point-to-point
    // message count must be unchanged too (the health vote is a
    // collective, which the traffic accounting deliberately excludes).
    const auto p = sod_like(40, 2);
    const auto plain_opts = base_opts(4, 0.02);
    const auto plain = run_dist(p, plain_opts);
    auto guarded_opts = plain_opts;
    guarded_opts.hydro.guard.enabled = true;
    const auto guarded = run_dist(p, guarded_opts);
    EXPECT_TRUE(bd::bitwise_equal(plain, guarded));
    EXPECT_EQ(plain.traffic.messages, guarded.traffic.messages);
    EXPECT_EQ(plain.traffic.reals, guarded.traffic.reals);
}

TEST(ResilGuard, OversizedInitialDtRecoversSerial) {
    // An absurd dt_initial tangles the mesh. Without guards that is a
    // hard error; with guards the step is rolled back and replayed with a
    // backed-off dt until healthy, the run completes, and conservation
    // holds: mass exactly (Lagrangian cell masses never change), total
    // energy to round-off accumulation (the compatible-hydro property is
    // per-step, whatever the dt sequence).
    auto reckless = bs::sod(48, 2);
    reckless.hydro.dt_initial = 0.5;
    EXPECT_THROW(
        {
            bc::Hydro h(std::move(reckless));
            h.run(0.05);
        },
        bu::Error);

    auto guarded_problem = bs::sod(48, 2);
    guarded_problem.hydro.dt_initial = 0.5;
    guarded_problem.hydro.guard.enabled = true;
    bc::Hydro guarded(std::move(guarded_problem));
    const auto summary = guarded.run(0.05);
    EXPECT_GT(summary.steps, 0);
    EXPECT_NEAR(summary.t_final, 0.05, 1e-12);

    bc::Hydro reference(bs::sod(48, 2));
    reference.run(0.05);
    const auto tg = guarded.totals();
    const auto tr = reference.totals();
    EXPECT_EQ(tg.mass, tr.mass);
    const Real eg = tg.internal_energy + tg.kinetic_energy;
    const Real er = tr.internal_energy + tr.kinetic_energy;
    EXPECT_NEAR(eg, er, 1e-9 * std::abs(er));
}

TEST(ResilGuard, RegrowCeilingSurvivesCheckpointRoundTrip) {
    // A snapshot taken right after a health retry carries the armed
    // re-growth ceiling; the restored run must continue bitwise.
    auto problem = bs::sod(48, 2);
    problem.hydro.dt_initial = 0.5;
    problem.hydro.guard.enabled = true;
    auto restored_problem = problem;

    bc::Hydro a(std::move(problem));
    a.step(); // the retried first step arms the ceiling
    const auto snap = a.snapshot();
    EXPECT_GT(snap.regrow, 0.0);
    a.run(0.05);

    bc::Hydro b(std::move(restored_problem), snap);
    b.run(0.05);
    ASSERT_EQ(a.steps(), b.steps());
    EXPECT_EQ(a.state().rho, b.state().rho);
    EXPECT_EQ(a.state().u, b.state().u);
    EXPECT_EQ(a.state().x, b.state().x);
}

TEST(ResilGuard, RetryDecisionBitwiseAgreedAcrossRanks) {
    // The oversized-dt recovery in the distributed driver: the health
    // verdict is a collective min-reduction over owned entities and the
    // backoff sequence evolves from globally-agreed values only, so every
    // rank count — with or without a per-rank pool — lands the serial
    // driver's fields and step clock bit for bit, retries (each a replay
    // of the rank's step through its advance hook) and re-growth ceiling
    // included.
    const auto p = sod_like(40, 2);
    auto opts = base_opts(1, 0.05);
    opts.hydro.dt_initial = 0.5;
    opts.hydro.guard.enabled = true;
    // Back off below the CFL limit and re-grow slower than the controller
    // may, so the ceiling binds for a stretch of steps after the retry.
    opts.hydro.guard.backoff = 0.1;
    opts.hydro.guard.regrow_cap = 1.01;
    opts.telemetry.enabled = true;

    bs::Problem serial_problem;
    serial_problem.name = "sod_like";
    serial_problem.mesh = p.mesh;
    serial_problem.materials = p.materials;
    serial_problem.rho = p.rho;
    serial_problem.ein = p.ein;
    serial_problem.u = p.u;
    serial_problem.v = p.v;
    serial_problem.hydro = opts.hydro;
    serial_problem.t_end = opts.t_end;
    serial_problem.telemetry.enabled = true;
    bc::Hydro serial(std::move(serial_problem));
    serial.run();
    bd::Result reference;
    reference.steps = serial.steps();
    const auto& s = serial.state();
    reference.rho.assign(s.rho.begin(), s.rho.end());
    reference.ein.assign(s.ein.begin(), s.ein.end());
    reference.u.assign(s.u.begin(), s.u.end());
    reference.v.assign(s.v.begin(), s.v.end());
    reference.x.assign(s.x.begin(), s.x.end());
    reference.y.assign(s.y.begin(), s.y.end());
    const auto records = serial.telemetry_report().ranks.at(0).steps;
    ASSERT_FALSE(records.empty());
    EXPECT_GT(records.front().retries, 0);
    EXPECT_TRUE(std::any_of(records.begin(), records.end(), [](const auto& r) {
        return bookleaf::obs::dt_reason_name(r.dt_reason) == "regrow";
    }));

    struct Shape {
        int ranks, threads;
    };
    for (const auto shape : {Shape{1, 1}, Shape{2, 1}, Shape{4, 1},
                             Shape{2, 2}}) {
        opts.n_ranks = shape.ranks;
        opts.n_threads = shape.threads;
        const auto r = run_dist(p, opts);
        const std::string label = std::to_string(shape.ranks) + " ranks x " +
                                  std::to_string(shape.threads) + " threads";
        EXPECT_TRUE(bd::bitwise_equal(reference, r)) << label;
        for (const auto& rank : r.telemetry.ranks)
            bookleaf::test::expect_same_steps(
                rank.steps, records, shape.ranks == 1,
                label + ", rank " + std::to_string(rank.rank));
    }
}

// ---------------------------------------------------------------------------
// ResilRecovery: supervised in-flight rank-failure recovery
// ---------------------------------------------------------------------------

TEST(ResilRecovery, KillAtStepRecoversOnSurvivorsBitwise) {
    // The tentpole contract: a 4-rank run loses rank 2 mid-flight, rolls
    // back to the newest ring snapshot, resumes on 3 survivors — and the
    // gathered result is bitwise identical to the uninterrupted run.
    const auto p = sod_like(40, 2);
    const auto reference = run_dist(p, base_opts(4, 0.03));

    auto opts = base_opts(4, 0.03);
    opts.supervise.enabled = true;
    opts.supervise.snapshot_every = 5;
    opts.faults.kills.push_back({.rank = 2, .at_step = 12});
    const auto r = run_dist(p, opts);
    ASSERT_EQ(r.recoveries.size(), 1u);
    EXPECT_EQ(r.recoveries[0].failed_rank, 2);
    EXPECT_EQ(r.recoveries[0].failed_step, 12);
    EXPECT_EQ(r.recoveries[0].survivors, 3);
    EXPECT_EQ(r.recoveries[0].resumed_step, 10);
    EXPECT_TRUE(bd::bitwise_equal(reference, r));
}

TEST(ResilRecovery, ThreadedEulerianRecoveryRebuildsTheAdvectGraph) {
    // Hybrid ranks build their advection graph on an attempt's first
    // remap and re-run it after. The recovery attempt runs on new
    // subdomains, so the survivors must build new graphs (a graph kept
    // from the failed attempt would advect the old face order and ghost
    // layout) and still land on the uninterrupted run's bytes.
    const auto p = sod_like(40, 2);
    auto opts = base_opts(4, 0.03);
    opts.ale.mode = bookleaf::ale::Mode::eulerian;
    opts.n_threads = 2; // a pool per rank: the graphs run on it
    const auto reference = run_dist(p, opts);

    opts.supervise.enabled = true;
    opts.supervise.snapshot_every = 5;
    opts.faults.kills.push_back({.rank = 2, .at_step = 12});
    const auto r = run_dist(p, opts);
    ASSERT_EQ(r.recoveries.size(), 1u);
    EXPECT_EQ(r.recoveries[0].failed_rank, 2);
    EXPECT_EQ(r.recoveries[0].failed_step, 12);
    EXPECT_EQ(r.recoveries[0].survivors, 3);
    EXPECT_EQ(r.recoveries[0].resumed_step, 10);
    EXPECT_TRUE(bd::bitwise_equal(reference, r));
}

TEST(ResilRecovery, KillBeforeFirstSnapshotRestartsFromBeginning) {
    // Nothing in the ring yet: the recovery replays the run from the
    // initial conditions on the survivors — still bitwise.
    const auto p = sod_like(40, 2);
    const auto reference = run_dist(p, base_opts(4, 0.02));

    auto opts = base_opts(4, 0.02);
    opts.supervise.enabled = true;
    opts.supervise.snapshot_every = 50; // never reached before the kill
    opts.faults.kills.push_back({.rank = 1, .at_step = 3});
    const auto r = run_dist(p, opts);
    ASSERT_EQ(r.recoveries.size(), 1u);
    EXPECT_EQ(r.recoveries[0].resumed_step, 0);
    EXPECT_EQ(r.recoveries[0].survivors, 3);
    EXPECT_TRUE(bd::bitwise_equal(reference, r));
}

TEST(ResilRecovery, TwoFailuresRecoverTwice) {
    // Attempt 0 loses rank 2, attempt 1 loses rank 1: the run shrinks
    // 4 -> 3 -> 2 ranks and still finishes bitwise.
    const auto p = sod_like(40, 2);
    const auto reference = run_dist(p, base_opts(4, 0.03));

    auto opts = base_opts(4, 0.03);
    opts.supervise.enabled = true;
    opts.supervise.snapshot_every = 5;
    opts.faults.kills.push_back({.rank = 2, .at_step = 12, .attempt = 0});
    opts.faults.kills.push_back({.rank = 1, .at_step = 20, .attempt = 1});
    const auto r = run_dist(p, opts);
    ASSERT_EQ(r.recoveries.size(), 2u);
    EXPECT_EQ(r.recoveries[0].survivors, 3);
    EXPECT_EQ(r.recoveries[1].survivors, 2);
    EXPECT_EQ(r.profiles.size(), 2u);
    EXPECT_TRUE(bd::bitwise_equal(reference, r));
}

TEST(ResilRecovery, ExhaustedRecoveriesRethrow) {
    // max_recoveries bounds the attempts; a failure past the budget
    // surfaces as the RankFailure it is.
    const auto p = sod_like(40, 2);
    auto opts = base_opts(4, 0.03);
    opts.supervise.enabled = true;
    opts.supervise.max_recoveries = 1;
    opts.supervise.snapshot_every = 5;
    opts.faults.kills.push_back({.rank = 2, .at_step = 12, .attempt = 0});
    opts.faults.kills.push_back({.rank = 1, .at_step = 20, .attempt = 1});
    EXPECT_THROW(run_dist(p, opts), bt::RankFailure);
}

TEST(ResilRecovery, RestartedRunRollsBackToTheRestartSnapshot) {
    // A supervised restart that fails before any new ring snapshot rolls
    // back to the snapshot it restarted from, not to the beginning.
    const auto p = sod_like(40, 2);

    // Produce a mid-run snapshot via the dist checkpoint cadence.
    auto save_opts = base_opts(2, 0.03);
    save_opts.checkpoint.every_steps = 10;
    save_opts.checkpoint.prefix = "/tmp/bookleaf_resil_restart";
    save_opts.checkpoint.halt_after = true;
    const auto saver = run_dist(p, save_opts);
    ASSERT_EQ(saver.checkpoints.size(), 1u);
    const auto snap = bck::read(saver.checkpoints[0]);
    EXPECT_EQ(snap.steps, 10);

    auto restart_opts = base_opts(4, 0.03);
    const auto reference = bd::run(p.mesh, p.materials, snap, restart_opts);

    auto opts = restart_opts;
    opts.supervise.enabled = true;
    opts.supervise.snapshot_every = 0; // no ring: rollback = the snapshot
    opts.faults.kills.push_back({.rank = 3, .at_step = 14});
    const auto r = bd::run(p.mesh, p.materials, snap, opts);
    ASSERT_EQ(r.recoveries.size(), 1u);
    EXPECT_EQ(r.recoveries[0].resumed_step, 10);
    EXPECT_EQ(r.recoveries[0].survivors, 3);
    EXPECT_TRUE(bd::bitwise_equal(reference, r));
    std::remove(saver.checkpoints[0].c_str());
}

TEST(ResilRecovery, DeckConfiguresResilienceAndFaults) {
    const auto deck = bs::Deck::parse_string(R"(
[problem]
name = sod
[resilience]
guards = on
backoff = 0.25
max_retries = 5
regrow_cap = 1.1
supervise = on
max_recoveries = 3
snapshot_every = 7
ring = 4
recovery_backoff_ms = 1
[faults]
kill_rank = 2
kill_step = 12
fault_seed = 42
)");
    const auto problem = bs::make_problem(deck);
    EXPECT_TRUE(problem.hydro.guard.enabled);
    EXPECT_EQ(problem.hydro.guard.backoff, 0.25);
    EXPECT_EQ(problem.hydro.guard.max_retries, 5);
    EXPECT_EQ(problem.hydro.guard.regrow_cap, 1.1);
    EXPECT_TRUE(problem.supervision.enabled);
    EXPECT_EQ(problem.supervision.max_recoveries, 3);
    EXPECT_EQ(problem.supervision.snapshot_every, 7);
    EXPECT_EQ(problem.supervision.ring_capacity, 4);
    EXPECT_EQ(problem.supervision.backoff_ms, 1);
    ASSERT_EQ(problem.faults.kills.size(), 1u);
    EXPECT_EQ(problem.faults.kills[0].rank, 2);
    EXPECT_EQ(problem.faults.kills[0].at_step, 12);
    EXPECT_EQ(problem.faults.seed, 42u);

    // Range violations are loud deck errors.
    EXPECT_THROW(bs::make_problem(bs::Deck::parse_string(
                     "[resilience]\nbackoff = 1.5\n")),
                 bu::Error);
    EXPECT_THROW(bs::make_problem(bs::Deck::parse_string(
                     "[resilience]\nring = 0\n")),
                 bu::Error);
    EXPECT_THROW(bs::make_problem(bs::Deck::parse_string(
                     "[faults]\nkill_rank = 1\n")),
                 bu::Error);
}
