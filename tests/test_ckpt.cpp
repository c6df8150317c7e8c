// Checkpoint/restart subsystem tests: on-disk format validation, bitwise
// save/restore continuation for the serial driver (Driver.Continuation*
// family), rank-elastic distributed restarts (CkptDist), and the
// restart-aware history CSV.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "ckpt/checkpoint.hpp"
#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "setup/deck.hpp"
#include "setup/problems.hpp"
#include "util/error.hpp"

namespace bc = bookleaf::core;
namespace bck = bookleaf::ckpt;
namespace bd = bookleaf::dist;
namespace bs = bookleaf::setup;
namespace ba = bookleaf::ale;
namespace bt = bookleaf::typhon;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void spew(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Step a driver past `t_min` on natural steps only (no t_end clamp), so
/// the reached state lies ON the uninterrupted trajectory.
void step_past(bc::Hydro& h, Real t_min) {
    while (h.time() < t_min) h.step();
}

void expect_state_bitwise(bc::Hydro& a, bc::Hydro& b,
                          const std::string& label) {
    ASSERT_EQ(a.steps(), b.steps()) << label;
    EXPECT_EQ(a.time(), b.time()) << label;
    const auto& sa = a.state();
    const auto& sb = b.state();
    for (std::size_t c = 0; c < sa.rho.size(); ++c) {
        ASSERT_EQ(sa.rho[c], sb.rho[c]) << label << ": cell " << c;
        ASSERT_EQ(sa.ein[c], sb.ein[c]) << label << ": cell " << c;
    }
    for (std::size_t n = 0; n < sa.u.size(); ++n) {
        ASSERT_EQ(sa.u[n], sb.u[n]) << label << ": node " << n;
        ASSERT_EQ(sa.v[n], sb.v[n]) << label << ": node " << n;
        ASSERT_EQ(sa.x[n], sb.x[n]) << label << ": node " << n;
        ASSERT_EQ(sa.y[n], sb.y[n]) << label << ": node " << n;
    }
    // Conservation totals are part of the contract too.
    const auto ta = a.totals();
    const auto tb = b.totals();
    EXPECT_EQ(ta.mass, tb.mass) << label;
    EXPECT_EQ(ta.internal_energy, tb.internal_energy) << label;
    EXPECT_EQ(ta.kinetic_energy, tb.kinetic_energy) << label;
}

/// The serial save/restore continuation contract: run A uninterrupted to
/// t_end, snapshotting at the first natural step past t_save; restore B
/// from the snapshot and run it to t_end. A and B must agree bitwise.
void roundtrip_problem(bs::Problem problem, Real t_save, Real t_end,
                       const std::string& label) {
    const std::string path = "/tmp/bookleaf_ckpt_" + label + ".ckpt";
    auto restored_problem = problem; // same deck for the restore

    bc::Hydro a(std::move(problem));
    step_past(a, t_save);
    a.save(path);
    a.run(t_end);

    bc::Hydro b(std::move(restored_problem), bck::read(path));
    EXPECT_GT(b.steps(), 0) << label;
    b.run(t_end);
    expect_state_bitwise(a, b, label);
    std::remove(path.c_str());
}

} // namespace

// ---------------------------------------------------------------------------
// Format round trip and validation (util::Error on every malformation)
// ---------------------------------------------------------------------------

TEST(Ckpt, WriteReadRoundTripsEverything) {
    bc::Hydro h(bs::sod(16, 2));
    h.run(std::nullopt, 10);
    const auto snap = h.snapshot();
    const std::string path = "/tmp/bookleaf_ckpt_roundtrip.ckpt";
    bck::write(path, snap);
    const auto back = bck::read(path);

    EXPECT_EQ(back.mesh_hash, snap.mesh_hash);
    EXPECT_EQ(back.steps, snap.steps);
    EXPECT_EQ(back.t, snap.t);
    EXPECT_EQ(back.dt, snap.dt);
    EXPECT_EQ(back.x, snap.x);
    EXPECT_EQ(back.y, snap.y);
    EXPECT_EQ(back.u, snap.u);
    EXPECT_EQ(back.v, snap.v);
    EXPECT_EQ(back.node_mass, snap.node_mass);
    EXPECT_EQ(back.rho, snap.rho);
    EXPECT_EQ(back.ein, snap.ein);
    EXPECT_EQ(back.q, snap.q);
    EXPECT_EQ(back.cell_mass, snap.cell_mass);
    EXPECT_EQ(back.cnmass, snap.cnmass);
    std::remove(path.c_str());
}

TEST(Ckpt, SnapshotCarriesTheUnclampedDtGrowthReference) {
    // The PR-3 continuation fix must survive a round trip: a snapshot
    // taken right after a clamped run(t1) must carry the *unclamped*
    // controller dt, so the restored run's next step is not growth-limited
    // from the tiny clamped step.
    bc::Hydro probe(bs::sod(32, 2));
    while (probe.time() < 0.03) probe.step();
    const Real t1 = probe.time() + 1e-7;

    bc::Hydro a(bs::sod(32, 2));
    a.run(t1); // final step clamped to ~1e-7
    const auto snap = a.snapshot();
    EXPECT_GT(snap.dt, 100.0 * 1e-7); // the growth reference, not the clamp

    bc::Hydro b(bs::sod(32, 2), snap);
    const auto resumed = b.step();
    EXPECT_GT(resumed.dt, 100.0 * 1e-7);
}

TEST(Ckpt, ReadRejectsMissingAndMalformedFiles) {
    EXPECT_THROW(bck::read("/tmp/bookleaf_no_such_file.ckpt"), bu::Error);

    bc::Hydro h(bs::sod(8, 2));
    h.run(std::nullopt, 3);
    const std::string path = "/tmp/bookleaf_ckpt_corrupt.ckpt";
    bck::write(path, h.snapshot());
    const auto good = slurp(path);
    ASSERT_GT(good.size(), 64u);

    // Bad magic.
    auto bad = good;
    bad[0] = 'X';
    spew(path, bad);
    EXPECT_THROW(bck::read(path), bu::Error);

    // Unsupported format version (the u32 right after the 8-byte magic).
    bad = good;
    bad[8] = static_cast<char>(bck::format_version + 1);
    spew(path, bad);
    EXPECT_THROW(bck::read(path), bu::Error);

    // Truncations: mid-header, mid-field-header, mid-payload.
    for (const std::size_t keep :
         {std::size_t{12}, std::size_t{40}, good.size() / 2, good.size() - 3}) {
        spew(path, good.substr(0, keep));
        EXPECT_THROW(bck::read(path), bu::Error) << "kept " << keep;
    }

    // A flipped payload byte fails the per-field checksum.
    bad = good;
    bad[good.size() - 9] ^= 0x40;
    spew(path, bad);
    EXPECT_THROW(bck::read(path), bu::Error);

    // Pristine bytes still read fine (the mutations above were the cause).
    spew(path, good);
    EXPECT_NO_THROW(bck::read(path));
    std::remove(path.c_str());
}

TEST(Ckpt, WriteIsAtomicAndLeavesNoTemporary) {
    bc::Hydro h(bs::sod(8, 2));
    h.run(std::nullopt, 3);
    const std::string path = "/tmp/bookleaf_ckpt_atomic.ckpt";
    bck::write(path, h.snapshot());
    // The temporary staging file must be gone (renamed into place).
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(static_cast<bool>(tmp));
    EXPECT_NO_THROW(bck::read(path));
    std::remove(path.c_str());
}

TEST(Ckpt, StrayTruncatedTmpFromACrashIsHarmless) {
    // A crash mid-write leaves `<path>.tmp`, never a truncated `<path>`:
    // the real file (if any) still reads, and a later write replaces the
    // stray temporary cleanly.
    bc::Hydro h(bs::sod(8, 2));
    h.run(std::nullopt, 3);
    const std::string path = "/tmp/bookleaf_ckpt_stray.ckpt";
    bck::write(path, h.snapshot());
    const auto good = slurp(path);
    spew(path + ".tmp", good.substr(0, good.size() / 3)); // crashed write
    EXPECT_NO_THROW(bck::read(path));
    EXPECT_THROW(bck::read(path + ".tmp"), bu::Error);
    h.run(std::nullopt, 5);
    EXPECT_NO_THROW(bck::write(path, h.snapshot())); // replaces the tmp
    EXPECT_NO_THROW(bck::read(path));
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(Ckpt, TortureEveryTruncationAndHeaderBitFlipThrows) {
    // Hostile-bytes hardening: truncate the file at EVERY byte position
    // and flip every bit of the header — each mutation must be a clean
    // util::Error, never UB, a crash or an attempted huge allocation.
    bc::Hydro h(bs::sod(4, 2));
    h.run(std::nullopt, 2);
    const std::string path = "/tmp/bookleaf_ckpt_torture.ckpt";
    bck::write(path, h.snapshot());
    const auto good = slurp(path);
    ASSERT_GT(good.size(), 80u);

    for (std::size_t keep = 0; keep < good.size(); ++keep) {
        spew(path, good.substr(0, keep));
        EXPECT_THROW(bck::read(path), bu::Error) << "kept " << keep;
    }

    // Header = 72 payload bytes + the 8-byte header checksum.
    for (std::size_t byte = 0; byte < 80; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto bad = good;
            bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
            spew(path, bad);
            EXPECT_THROW(bck::read(path), bu::Error)
                << "byte " << byte << " bit " << bit;
        }
    }

    // Pristine bytes still read (the mutations were the cause).
    spew(path, good);
    EXPECT_NO_THROW(bck::read(path));
    std::remove(path.c_str());
}

TEST(Ckpt, ForgedHugeEntityCountThrowsWithoutAllocating) {
    // An attacker (or cosmic ray burst) who fixes up the header checksum
    // can present any entity count; the reader must bound allocations by
    // the actual on-disk size and throw — never OOM.
    bc::Hydro h(bs::sod(4, 2));
    h.run(std::nullopt, 2);
    const std::string path = "/tmp/bookleaf_ckpt_forged.ckpt";
    bck::write(path, h.snapshot());
    auto bytes = slurp(path);
    ASSERT_GT(bytes.size(), 80u);

    const auto forge_n_nodes = [&](std::int64_t n_nodes) {
        auto bad = bytes;
        std::memcpy(bad.data() + 56, &n_nodes, sizeof n_nodes);
        // Recompute the header checksum over the 72 preceding bytes so
        // only the count is "wrong".
        const std::uint64_t hsum = bck::checksum(bad.data(), 72);
        std::memcpy(bad.data() + 72, &hsum, sizeof hsum);
        spew(path, bad);
    };
    // Plausible-looking but enormous: caught by the exact file-size check.
    forge_n_nodes(1'000'000'000);
    EXPECT_THROW(bck::read(path), bu::Error);
    // Beyond any index range: caught by the plausibility bound.
    forge_n_nodes(std::int64_t{1} << 61);
    EXPECT_THROW(bck::read(path), bu::Error);
    // Negative: same.
    forge_n_nodes(-1);
    EXPECT_THROW(bck::read(path), bu::Error);
    std::remove(path.c_str());
}

TEST(Ckpt, RestoreRejectsDeckMismatch) {
    bc::Hydro h(bs::sod(16, 2));
    h.run(std::nullopt, 5);
    const auto snap = h.snapshot();
    // Different resolution and different problem: both are a different
    // mesh, so the global entity order would be wrong — rejected.
    EXPECT_THROW(bc::Hydro(bs::sod(20, 2), snap), bu::Error);
    EXPECT_THROW(bc::Hydro(bs::noh(16), snap), bu::Error);
    // The matching deck restores fine.
    EXPECT_NO_THROW(bc::Hydro(bs::sod(16, 2), snap));
}

TEST(Ckpt, DistRunRejectsMismatchedSnapshot) {
    bc::Hydro h(bs::sod(16, 2));
    h.run(std::nullopt, 5);
    const auto snap = h.snapshot();
    const auto wrong = bs::sod(24, 2);
    bd::Options opts;
    opts.n_ranks = 2;
    opts.t_end = 0.05;
    opts.hydro = wrong.hydro;
    EXPECT_THROW(bd::run(wrong.mesh, wrong.materials, snap, opts), bu::Error);
}

// ---------------------------------------------------------------------------
// Serial save/restore continuation (the Driver.Continuation* family)
// ---------------------------------------------------------------------------

TEST(Driver, ContinuationSaveRestoreSodBitwise) {
    roundtrip_problem(bs::sod(48, 2), 0.1, 0.2, "sod");
}

TEST(Driver, ContinuationSaveRestoreNohBitwise) {
    roundtrip_problem(bs::noh(20), 0.3, 0.6, "noh");
}

TEST(Driver, ContinuationSaveRestoreSedovBitwise) {
    roundtrip_problem(bs::sedov(16), 0.2, 0.4, "sedov");
}

TEST(Driver, ContinuationSaveRestoreEulerianSodBitwise) {
    auto p = bs::sod(32, 2);
    p.ale.mode = ba::Mode::eulerian;
    roundtrip_problem(std::move(p), 0.1, 0.2, "sod_eulerian");
}

TEST(Driver, ContinuationSaveRestoreAleNohBitwise) {
    // The remap-cadence state must survive the round trip: with
    // frequency 3, the restored run must remap on the same global steps
    // as the uninterrupted one (the step count seeds the cadence).
    auto p = bs::noh(16);
    p.ale.mode = ba::Mode::ale;
    p.ale.frequency = 3;
    roundtrip_problem(std::move(p), 0.05, 0.1, "noh_ale");
}

TEST(Driver, DeckCheckpointCadenceWritesAndRestores) {
    const std::string prefix = "/tmp/bookleaf_ckpt_cadence";
    auto p = bs::sod(24, 2);
    p.checkpoint.every_steps = 4;
    p.checkpoint.prefix = prefix;
    auto p_restore = bs::sod(24, 2); // restart deck: no cadence

    bc::Hydro a(std::move(p));
    a.run(std::nullopt, 10);
    // Due after steps 4 and 8; never after a non-multiple.
    EXPECT_NO_THROW(bck::read(prefix + "_4.ckpt"));
    std::ifstream missing(prefix + "_10.ckpt");
    EXPECT_FALSE(static_cast<bool>(missing));

    bc::Hydro b(std::move(p_restore), bck::read(prefix + "_8.ckpt"));
    EXPECT_EQ(b.steps(), 8);
    b.run(std::nullopt, 10);
    expect_state_bitwise(a, b, "every_steps cadence");
    std::remove((prefix + "_4.ckpt").c_str());
    std::remove((prefix + "_8.ckpt").c_str());
}

TEST(Driver, DeckCheckpointAtTimeFiresOnceAndHalts) {
    const std::string prefix = "/tmp/bookleaf_ckpt_attime";
    auto p = bs::sod(24, 2);
    p.checkpoint.at_time = 0.05;
    p.checkpoint.prefix = prefix;
    p.checkpoint.halt_after = true;

    bc::Hydro h(std::move(p));
    const auto summary = h.run(0.2);
    // Halted at the first natural step past at_time, well short of t_end.
    EXPECT_TRUE(h.halted());
    EXPECT_GE(h.time(), 0.05);
    EXPECT_LT(h.time(), 0.1);
    const auto path = "/tmp/bookleaf_ckpt_attime_" +
                      std::to_string(summary.steps) + ".ckpt";
    const auto snap = bck::read(path);
    EXPECT_EQ(snap.steps, summary.steps);
    EXPECT_EQ(snap.t, h.time());
    // A further run() continues (the halt is per-run()); the one-shot
    // trigger does not re-fire and re-halt.
    h.run(0.07);
    EXPECT_FALSE(h.halted());
    EXPECT_NEAR(h.time(), 0.07, 1e-12);
    std::remove(path.c_str());
}

TEST(Driver, DeckParsesCheckpointSection) {
    const auto deck = bs::Deck::parse_string("[problem]\n"
                                             "name = sod\n"
                                             "resolution = 16\n"
                                             "[checkpoint]\n"
                                             "every_steps = 7\n"
                                             "at_time = 0.125\n"
                                             "prefix = /tmp/ck\n"
                                             "restart_from = /tmp/a.ckpt\n"
                                             "halt_after = yes\n");
    const auto p = bs::make_problem(deck);
    EXPECT_EQ(p.checkpoint.every_steps, 7);
    EXPECT_EQ(p.checkpoint.at_time, 0.125);
    EXPECT_EQ(p.checkpoint.prefix, "/tmp/ck");
    EXPECT_EQ(p.checkpoint.restart_from, "/tmp/a.ckpt");
    EXPECT_TRUE(p.checkpoint.halt_after);
    EXPECT_THROW(bs::make_problem(bs::Deck::parse_string(
                     "[checkpoint]\nevery_steps = -1\n")),
                 bu::Error);
}

// ---------------------------------------------------------------------------
// Restart-aware history CSV
// ---------------------------------------------------------------------------

TEST(Driver, RestartContinuesHistoryWithoutDuplicateRows) {
    const std::string hist_a = "/tmp/bookleaf_hist_uninterrupted.csv";
    const std::string hist_b = "/tmp/bookleaf_hist_restarted.csv";
    const std::string ck = "/tmp/bookleaf_hist.ckpt";

    // Uninterrupted run with history; snapshot at a mid-run natural step.
    bck::Snapshot snap;
    {
        auto p = bs::sod(24, 2);
        p.history = hist_a;
        bc::Hydro a(std::move(p));
        step_past(a, 0.05);
        snap = a.snapshot();
        a.save(ck);
        // hist_b gets the file as it stood at the checkpoint PLUS rows a
        // crashed run would have written past it (they must be dropped).
        a.run(0.1);
    }
    {
        std::ofstream copy(hist_b, std::ios::trunc);
        copy << slurp(hist_a);
        // ... and a partial final line, as a crash mid-row-write leaves
        // (the stream buffer cut off at an arbitrary byte).
        copy << "191,0.105";
    }

    // Restore with the history pointing at the copied file: rows past the
    // checkpointed step are dropped, then appending resumes. (Scoped so
    // the CSV flushes before the files are compared.)
    {
        auto p = bs::sod(24, 2);
        p.history = hist_b;
        bc::Hydro b(std::move(p), bck::read(ck));
        b.run(0.1);
    }

    // The restarted file must be byte-identical to the uninterrupted one:
    // one header, no duplicated or missing steps, same formatting.
    EXPECT_EQ(slurp(hist_b), slurp(hist_a));

    // Handshake: a history that never reached the checkpointed step is
    // stale/mismatched and must be rejected.
    {
        std::ofstream stale(hist_b, std::ios::trunc);
        stale << "step,t,dt,mass,internal_energy,kinetic_energy\n"
              << "0,0,0,1,2,3\n";
    }
    auto p_stale = bs::sod(24, 2);
    p_stale.history = hist_b;
    EXPECT_THROW(bc::Hydro(std::move(p_stale), bck::read(ck)), bu::Error);

    std::remove(hist_a.c_str());
    std::remove(hist_b.c_str());
    std::remove(ck.c_str());
}

// ---------------------------------------------------------------------------
// Rank-elastic distributed restart (CkptDist — also run under TSan)
// ---------------------------------------------------------------------------

namespace {

struct GatheredRef {
    int steps = 0;
    std::vector<Real> rho, ein, u, v, x, y;
};

GatheredRef serial_reference(bs::Problem problem, Real t_end) {
    bc::Hydro h(std::move(problem));
    h.run(t_end);
    const auto& s = h.state();
    const auto vec = [](const auto& f) {
        return std::vector<Real>(f.begin(), f.end());
    };
    return {h.steps(), vec(s.rho), vec(s.ein), vec(s.u),
            vec(s.v),  vec(s.x),   vec(s.y)};
}

void expect_bitwise(const bd::Result& r, const GatheredRef& ref,
                    const std::string& label) {
    ASSERT_EQ(r.steps, ref.steps) << label;
    for (std::size_t c = 0; c < ref.rho.size(); ++c) {
        ASSERT_EQ(r.rho[c], ref.rho[c]) << label << ": cell " << c;
        ASSERT_EQ(r.ein[c], ref.ein[c]) << label << ": cell " << c;
    }
    for (std::size_t n = 0; n < ref.u.size(); ++n) {
        ASSERT_EQ(r.u[n], ref.u[n]) << label << ": node " << n;
        ASSERT_EQ(r.v[n], ref.v[n]) << label << ": node " << n;
        ASSERT_EQ(r.x[n], ref.x[n]) << label << ": node " << n;
        ASSERT_EQ(r.y[n], ref.y[n]) << label << ": node " << n;
    }
}

bd::Options dist_options(const bs::Problem& p, int n_ranks, Real t_end) {
    bd::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = t_end;
    opts.hydro = p.hydro;
    opts.ale = p.ale;
    return opts;
}

/// Checkpoint a distributed run at `save_ranks` (halting there), then
/// restart at several rank counts; everything must land bitwise on the
/// uninterrupted serial run.
void rank_elastic_roundtrip(const bs::Problem& problem, Real t_save,
                            Real t_end, int save_ranks,
                            const std::string& label) {
    auto ref_problem = problem;
    const auto ref = serial_reference(std::move(ref_problem), t_end);

    auto save_opts = dist_options(problem, save_ranks, t_end);
    save_opts.checkpoint.at_time = t_save;
    save_opts.checkpoint.prefix = "/tmp/bookleaf_ckdist_" + label;
    save_opts.checkpoint.halt_after = true;
    const auto saver = bd::run(problem.mesh, problem.materials, problem.rho,
                               problem.ein, problem.u, problem.v, save_opts);
    ASSERT_EQ(saver.checkpoints.size(), 1u) << label;
    const auto snap = bck::read(saver.checkpoints.front());
    EXPECT_EQ(snap.steps, saver.steps) << label;
    EXPECT_LT(saver.steps, ref.steps) << label; // genuinely halted mid-run

    // Rank-elastic restarts: N -> 1, N -> N, N -> 2N.
    for (const int restart_ranks : {1, save_ranks, 2 * save_ranks}) {
        const auto tag = label + ": " + std::to_string(save_ranks) + " -> " +
                         std::to_string(restart_ranks);
        const auto r = bd::run(problem.mesh, problem.materials, snap,
                               dist_options(problem, restart_ranks, t_end));
        expect_bitwise(r, ref, tag);
    }

    // The serial driver restores the distributed snapshot too.
    auto serial_problem = problem;
    bc::Hydro h(std::move(serial_problem), snap);
    h.run(t_end);
    ASSERT_EQ(h.steps(), ref.steps) << label;
    EXPECT_TRUE(std::equal(h.state().rho.begin(), h.state().rho.end(),
                           ref.rho.begin(), ref.rho.end()))
        << label;
    EXPECT_TRUE(std::equal(h.state().u.begin(), h.state().u.end(),
                           ref.u.begin(), ref.u.end()))
        << label;

    std::remove(saver.checkpoints.front().c_str());
}

} // namespace

TEST(CkptDist, EulerianSodRankElasticRestart) {
    auto problem = bs::sod(48, 4);
    problem.ale.mode = ba::Mode::eulerian;
    rank_elastic_roundtrip(problem, 0.015, 0.03, 2, "eulerian_sod");
}

TEST(CkptDist, AleNohRankElasticRestart) {
    auto problem = bs::noh(16);
    problem.ale.mode = ba::Mode::ale;
    problem.ale.frequency = 3;
    problem.ale.smoothing_passes = 2;
    rank_elastic_roundtrip(problem, 0.02, 0.04, 2, "ale_noh");
}

TEST(CkptDist, LagrangeSodRankElasticRestart) {
    const auto problem = bs::sod(40, 4);
    rank_elastic_roundtrip(problem, 0.015, 0.03, 2, "lagrange_sod");
}

TEST(CkptDist, CheckpointBytesAreRankCountInvariant) {
    // The strongest format statement: the snapshot a 2- or 4-rank run
    // gathers to its writer rank is byte-identical to the one the serial
    // driver writes at the same step — fields in ascending global order,
    // owned values bitwise-serial, same clock, same growth reference.
    auto problem = bs::sod(32, 4);
    problem.ale.mode = ba::Mode::eulerian;

    auto serial_problem = problem;
    serial_problem.checkpoint.every_steps = 25;
    serial_problem.checkpoint.prefix = "/tmp/bookleaf_ckbytes_serial";
    serial_problem.checkpoint.halt_after = true;
    bc::Hydro h(std::move(serial_problem));
    h.run(0.2);
    ASSERT_TRUE(h.halted());
    const auto serial_bytes =
        slurp("/tmp/bookleaf_ckbytes_serial_25.ckpt");
    ASSERT_FALSE(serial_bytes.empty());

    for (const int n_ranks : {2, 4}) {
        auto opts = dist_options(problem, n_ranks, 0.2);
        opts.checkpoint.every_steps = 25;
        opts.checkpoint.prefix =
            "/tmp/bookleaf_ckbytes_r" + std::to_string(n_ranks);
        opts.checkpoint.halt_after = true;
        const auto r = bd::run(problem.mesh, problem.materials, problem.rho,
                               problem.ein, problem.u, problem.v, opts);
        ASSERT_EQ(r.checkpoints.size(), 1u);
        EXPECT_EQ(slurp(r.checkpoints.front()), serial_bytes)
            << n_ranks << " ranks";
        std::remove(r.checkpoints.front().c_str());
    }
    std::remove("/tmp/bookleaf_ckbytes_serial_25.ckpt");
}
