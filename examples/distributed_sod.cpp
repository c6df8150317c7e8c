/// \file distributed_sod.cpp
/// Sod's shock tube through the distributed (flat-MPI analogue) driver:
/// the mesh is partitioned (RCB or the multilevel METIS-substitute),
/// each rank runs the kernel sequence with the paper's two halo
/// exchanges per step and one global dt reduction, and the gathered
/// result is compared bitwise against a serial core::Hydro run. The halo
/// exchanges overlap with interior kernels (nonblocking typhon).
///
///   ./distributed_sod [--ranks 4] [--nx 100] [--partitioner rcb|multilevel]
///                     [--threads 1] [--mode lagrange|eulerian|ale]
///                     [--dump fields.csv]
///                     [--save-prefix ck --save-at 0.1 [--halt-after-save]]
///                     [--restart ck_<step>.ckpt]
///                     [--supervise [--ring-every 10]]
///                     [--kill-rank 2 --kill-step 25]
///                     [--telemetry-report run.json] [--telemetry-trace t.json]
///                     [--telemetry-summary]
///                     [--telemetry-window N] [--telemetry-live run.ndjson]
///                     [--watchdog-factor F] [--watchdog-grace-ms MS]
///                     [--watchdog-escalate]
///                     [--delay-rank R [--delay-every N]] [--slow-all-us US]
///
/// Exits nonzero unless the gathered fields (x, y, u, v, rho, ein) and the
/// step count are bitwise those of a serial core::Hydro run of the same
/// problem — which makes it a self-checking smoke test for CI. With
/// --mode eulerian the run exercises the distributed remap (the
/// sod_eulerian.in configuration).
///
/// Checkpoint/restart smoke: --save-at T writes a checkpoint at the first
/// natural step past T (--halt-after-save stops the run there);
/// --restart continues a saved snapshot at the requested rank count —
/// the serial reference then restarts from the same snapshot, so the
/// bitwise gate also holds the rank-elastic restart contract.
///
/// Fault-injection smoke: --supervise arms in-flight recovery (with
/// --ring-every N feeding the in-memory rollback ring every N steps) and
/// --kill-rank R --kill-step S scripts rank R to die when it begins step
/// S. The run rolls back to the newest ring snapshot, re-decomposes over
/// the survivors and finishes — and its fields are still bitwise the
/// serial reference's.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "io/csv.hpp"
#include "part/partition.hpp"
#include "setup/problems.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

using namespace bookleaf;

namespace {

int run(const util::Cli& cli) {
    const int ranks = cli.get_int("ranks", 4);
    const auto nx = static_cast<Index>(cli.get_int("nx", 100));
    const auto partitioner = cli.get("partitioner", "rcb");
    const auto mode_arg = cli.get("mode", "lagrange");
    const int threads = cli.get_int("threads", 1);

    auto problem = setup::sod(nx, 4);
    if (mode_arg == "eulerian") {
        problem.ale.mode = ale::Mode::eulerian;
    } else if (mode_arg == "ale") {
        problem.ale.mode = ale::Mode::ale;
        problem.ale.frequency = 3;
    } else if (mode_arg != "lagrange") {
        std::fprintf(stderr,
                     "distributed_sod: unknown --mode '%s' (expected "
                     "lagrange, eulerian or ale)\n",
                     mode_arg.c_str());
        return 2;
    }

    dist::Options opts;
    opts.n_ranks = ranks;
    opts.t_end = 0.2;
    opts.hydro = problem.hydro;
    opts.ale = problem.ale;
    opts.n_threads = threads;
    if (partitioner == "multilevel")
        opts.partitioner = [](const mesh::Mesh& m, int n) {
            return part::multilevel(m, n);
        };
    if (cli.has("save-at")) {
        opts.checkpoint.at_time = cli.get_real("save-at", 0.1);
        opts.checkpoint.prefix = cli.get("save-prefix", "bookleaf_ck");
        opts.checkpoint.halt_after = cli.has("halt-after-save");
    }
    if (cli.has("supervise")) {
        opts.supervise.enabled = true;
        opts.supervise.snapshot_every = cli.get_int("ring-every", 10);
    }
    if (cli.has("kill-rank")) {
        typhon::FaultPlan::Kill kill;
        kill.rank = cli.get_int("kill-rank", 2);
        kill.at_step = cli.get_int("kill-step", 25);
        opts.faults.kills.push_back(kill);
    }
    // Live-monitor smoke levers: --delay-rank holds a rank's messages
    // back (the silent-hang driver the watchdog must flag); --slow-all-us
    // pads every rank's sends so the run's wall time dwarfs the watchdog
    // threshold, keeping the stall detection timing-robust in CI.
    if (cli.has("delay-rank")) {
        typhon::FaultPlan::Delay delay;
        delay.rank = cli.get_int("delay-rank", ranks - 1);
        delay.every = cli.get_int("delay-every", 3);
        opts.faults.delays.push_back(delay);
    }
    if (cli.has("slow-all-us")) {
        const int us = cli.get_int("slow-all-us", 400);
        for (int r = 0; r < ranks; ++r) {
            typhon::FaultPlan::Slow slow;
            slow.rank = r;
            slow.microseconds = us;
            opts.faults.slows.push_back(slow);
        }
    }
    // Telemetry sinks apply to the distributed run (the serial reference
    // below runs without them).
    opts.telemetry.report = cli.get("telemetry-report", "");
    opts.telemetry.trace = cli.get("telemetry-trace", "");
    opts.telemetry.summary = cli.has("telemetry-summary");
    // Live monitoring (obs/live): window cadence, NDJSON stream and the
    // hang-detection watchdog — mirrors of the `[telemetry]` deck keys.
    opts.telemetry.window_steps = cli.get_int("telemetry-window", 0);
    opts.telemetry.live = cli.get("telemetry-live", "");
    opts.telemetry.watchdog_factor = cli.get_real("watchdog-factor", 0.0);
    opts.telemetry.watchdog_grace_ms = cli.get_int("watchdog-grace-ms", 250);
    opts.telemetry.watchdog_escalate = cli.has("watchdog-escalate");
    opts.telemetry.label = "sod_" + mode_arg;
    // Restart source: every run below (the distributed run and the
    // serial reference) starts from this snapshot.
    ckpt::Snapshot snapshot;
    const bool restarting = cli.has("restart");
    if (restarting) {
        snapshot = ckpt::read(cli.get("restart", ""));
        std::printf("restarting from step %ld, t %.6e\n",
                    static_cast<long>(snapshot.steps), snapshot.t);
    }
    // Partition diagnostics.
    const auto part = opts.partitioner ? opts.partitioner(problem.mesh, ranks)
                                       : part::rcb(problem.mesh, ranks);
    const auto quality = part::quality(problem.mesh, part, ranks);
    std::printf("Sod %dx4 (%s) on %d ranks x %d threads (%s): edge cut %d, "
                "imbalance %.3f\n",
                nx, mode_arg.c_str(), ranks, threads, partitioner.c_str(),
                quality.edge_cut, quality.imbalance);

    const auto distributed =
        restarting ? dist::run(problem.mesh, problem.materials, snapshot, opts)
                   : dist::run(problem.mesh, problem.materials, problem.rho,
                               problem.ein, problem.u, problem.v, opts);
    for (const auto& rec : distributed.recoveries)
        std::printf("recovered: rank %d failed at step %d, resumed from "
                    "step %ld on %d survivors (%s)\n",
                    rec.failed_rank, rec.failed_step,
                    static_cast<long>(rec.resumed_step), rec.survivors,
                    rec.error.c_str());
    for (const auto& path : distributed.checkpoints)
        std::printf("wrote checkpoint %s (t >= %.4g)\n", path.c_str(),
                    opts.checkpoint.at_time);
    if (!distributed.windows.empty()) {
        const auto& last = distributed.windows.back();
        std::printf("live: %ld windows completed, last imbalance "
                    "max/mean %.3f (slowest rank %d)\n",
                    static_cast<long>(distributed.windows.size()),
                    last.imbalance.max_over_mean,
                    last.imbalance.slowest_rank);
    }

    std::printf("steps: %d, final t: %.3f\n", distributed.steps,
                distributed.t_final);

    // Halo traffic per rank (a recovery shrinks the rank count, so the
    // profile set, not --ranks, is the bound).
    for (std::size_t r = 0; r < distributed.profiles.size(); ++r) {
        const auto& prof = distributed.profiles[r];
        std::printf("rank %d: halo %.3fs over %ld exchanges, reduce %ld calls\n",
                    static_cast<int>(r),
                    prof[static_cast<std::size_t>(util::Kernel::halo)].wall_s,
                    prof[static_cast<std::size_t>(util::Kernel::halo)].calls,
                    prof[static_cast<std::size_t>(util::Kernel::reduce)].calls);
    }
    if (opts.telemetry.active() && !distributed.telemetry.ranks.empty())
        std::printf("imbalance max/mean = %.3f (slowest rank %d), wire %s\n",
                    distributed.telemetry.imbalance.max_over_mean,
                    distributed.telemetry.imbalance.slowest_rank,
                    !distributed.telemetry.wire.checked ? "unchecked"
                    : distributed.telemetry.wire.match  ? "ok"
                                                        : "MISMATCH");

    // The gathered fields must be bitwise the serial core::Hydro run in
    // every mode (the distributed contract: every owned entity sees serial
    // inputs in serial order).
    auto serial_problem = setup::sod(nx, 4);
    serial_problem.ale = opts.ale;
    // Mirror the checkpoint cadence (with a distinct prefix) so a
    // --halt-after-save run halts the serial reference at the same natural
    // step — and the serial driver's snapshot of the same trajectory lands
    // on disk next to the distributed one.
    serial_problem.checkpoint = opts.checkpoint;
    serial_problem.checkpoint.prefix += "_serial";
    const auto h_ptr =
        restarting
            ? std::make_unique<core::Hydro>(std::move(serial_problem), snapshot)
            : std::make_unique<core::Hydro>(std::move(serial_problem));
    core::Hydro& h = *h_ptr;
    h.run(opts.t_end);
    const auto eq = [](const auto& a, const auto& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    const bool bitwise_serial = h.steps() == distributed.steps &&
                                eq(h.state().rho, distributed.rho) &&
                                eq(h.state().ein, distributed.ein) &&
                                eq(h.state().u, distributed.u) &&
                                eq(h.state().v, distributed.v) &&
                                eq(h.state().x, distributed.x) &&
                                eq(h.state().y, distributed.y);
    std::printf("distributed vs serial core::Hydro: %s\n",
                bitwise_serial ? "bitwise identical" : "MISMATCH");

    // Gathered-field dump (global numbering): lets CI diff rank counts.
    if (cli.has("dump")) {
        const auto path = cli.get("dump", "fields.csv");
        io::CsvWriter csv(path, {"kind", "index", "value"});
        for (std::size_t c = 0; c < distributed.rho.size(); ++c)
            csv.row({0.0, static_cast<Real>(c), distributed.rho[c]});
        for (std::size_t c = 0; c < distributed.ein.size(); ++c)
            csv.row({1.0, static_cast<Real>(c), distributed.ein[c]});
        for (std::size_t n = 0; n < distributed.u.size(); ++n)
            csv.row({2.0, static_cast<Real>(n), distributed.u[n]});
        for (std::size_t n = 0; n < distributed.v.size(); ++n)
            csv.row({3.0, static_cast<Real>(n), distributed.v[n]});
        for (std::size_t n = 0; n < distributed.x.size(); ++n)
            csv.row({4.0, static_cast<Real>(n), distributed.x[n]});
        for (std::size_t n = 0; n < distributed.y.size(); ++n)
            csv.row({5.0, static_cast<Real>(n), distributed.y[n]});
        std::printf("wrote %s\n", path.c_str());
    }

    if (!bitwise_serial) {
        std::fprintf(stderr,
                     "FAIL: distributed run drifts from serial driver\n");
        return 1;
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(util::Cli(
            argc, argv,
            {"ranks", "nx", "partitioner", "mode", "threads", "dump",
             "save-prefix", "save-at", "halt-after-save", "restart",
             "supervise", "ring-every", "kill-rank", "kill-step",
             "delay-rank", "delay-every", "slow-all-us", "telemetry-report",
             "telemetry-trace", "telemetry-summary", "telemetry-window",
             "telemetry-live", "watchdog-factor", "watchdog-grace-ms",
             "watchdog-escalate"}));
    } catch (const util::Error& e) {
        std::fprintf(stderr, "distributed_sod: error: %s\n", e.what());
        return 2;
    }
}
