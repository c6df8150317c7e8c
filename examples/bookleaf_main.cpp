/// \file bookleaf_main.cpp
/// The mini-application itself: a deck-driven driver equivalent to the
/// reference `bookleaf` binary. Reads a BookLeaf-style input deck, runs
/// Algorithm 1, prints the step banner and the final per-kernel summary.
///
///   ./bookleaf_main data/sod.in [--threads N] [--max_steps N]
///                   [--banner-every N] [--vtk out.vtk]
///                   [--restart snapshot.ckpt]
///                   [--telemetry-report run.json] [--telemetry-trace t.json]
///                   [--telemetry-summary] [--telemetry-window N]
///                   [--telemetry-live run.ndjson] [--watchdog-factor F]
///
/// Without a deck argument, runs the default Sod problem. A deck with
/// `[checkpoint] restart_from` (or the --restart flag, which overrides
/// it) restores the snapshot and continues the run bitwise.

#include <cstdio>
#include <memory>

#include "core/driver.hpp"
#include "io/vtk.hpp"
#include "setup/deck.hpp"
#include "util/cli.hpp"

using namespace bookleaf;

int main(int argc, char** argv) {
    try {
        const util::Cli cli(argc, argv,
                            {"threads", "max_steps", "banner-every",
                             "vtk", "restart", "telemetry-report",
                             "telemetry-trace",
                             "telemetry-summary", "telemetry-window",
                             "telemetry-live", "watchdog-factor"});
        setup::Problem problem =
            cli.positional().empty()
                ? setup::sod()
                : setup::make_problem(setup::Deck::parse_file(cli.positional()[0]));
        const auto restart = cli.get("restart", problem.checkpoint.restart_from);
        // CLI telemetry flags layer over the deck's `[telemetry]` section.
        if (cli.has("telemetry-report"))
            problem.telemetry.report = cli.get("telemetry-report", "");
        if (cli.has("telemetry-trace"))
            problem.telemetry.trace = cli.get("telemetry-trace", "");
        if (cli.has("telemetry-summary")) problem.telemetry.summary = true;
        // Live monitoring flags mirror the `[telemetry]` deck keys
        // window_steps / live / watchdog_factor.
        if (cli.has("telemetry-window"))
            problem.telemetry.window_steps = cli.get_int("telemetry-window", 0);
        if (cli.has("telemetry-live"))
            problem.telemetry.live = cli.get("telemetry-live", "");
        if (cli.has("watchdog-factor"))
            problem.telemetry.watchdog_factor =
                static_cast<double>(cli.get_real("watchdog-factor", 0.0));
        if (problem.telemetry.label.empty())
            problem.telemetry.label = problem.name;

        std::printf("BookLeaf-CPP: problem '%s', %d cells, %d nodes, t_end %.4g\n",
                    problem.name.c_str(), problem.mesh.n_cells(),
                    problem.mesh.n_nodes(), problem.t_end);

        const Real t_end = problem.t_end;
        std::unique_ptr<core::Hydro> hydro_ptr;
        if (restart.empty()) {
            hydro_ptr = std::make_unique<core::Hydro>(std::move(problem));
        } else {
            const auto snapshot = ckpt::read(restart);
            std::printf("restarting from %s: step %ld, t %.6e\n",
                        restart.c_str(), static_cast<long>(snapshot.steps),
                        snapshot.t);
            hydro_ptr =
                std::make_unique<core::Hydro>(std::move(problem), snapshot);
        }
        core::Hydro& hydro = *hydro_ptr;

        const int threads = cli.get_int("threads", 1);
        par::ThreadPool pool(threads);
        if (threads > 1) {
            par::Exec exec;
            exec.pool = &pool;
            hydro.set_exec(exec);
        }
        const int max_steps = cli.get_int("max_steps", 1 << 30);
        const int banner_every = cli.get_int("banner-every", 100);

        const auto initial = hydro.totals();
        util::Timer timer;
        while (hydro.time() < t_end * (Real(1) - eps) &&
               hydro.steps() < max_steps && !hydro.halted()) {
            // Banner via single steps; finish with a clamped run so the
            // final time lands exactly on t_end.
            if (hydro.steps() + 1 >= max_steps ||
                hydro.time() > Real(0.98) * t_end) {
                hydro.run(t_end, max_steps);
                break;
            }
            const auto info = hydro.step();
            if (info.step % banner_every == 0 || info.step == 1)
                std::printf("  step %6d  t %.6e  dt %.6e  (%.*s%s)\n",
                            info.step, info.t, info.dt,
                            static_cast<int>(info.dt_reason.size()),
                            info.dt_reason.data(),
                            info.remapped ? ", remap" : "");
        }
        const double wall = timer.elapsed();

        const auto final_totals = hydro.totals();
        std::printf("\nfinished: %d steps to t = %.6f in %.2f s\n",
                    hydro.steps(), hydro.time(), wall);
        std::printf("conservation: mass %.3e, energy %.3e (relative drift)\n",
                    (final_totals.mass - initial.mass) /
                        std::max(initial.mass, tiny),
                    (final_totals.total_energy() - initial.total_energy()) /
                        std::max(std::abs(initial.total_energy()), tiny));

        std::printf("\nper-kernel wall time:\n");
        for (const auto k :
             {util::Kernel::getdt, util::Kernel::getq, util::Kernel::getforce,
              util::Kernel::getacc, util::Kernel::getgeom, util::Kernel::getrho,
              util::Kernel::getein, util::Kernel::getpc,
              util::Kernel::alegetmesh, util::Kernel::alegetfvol,
              util::Kernel::aleadvect, util::Kernel::aleupdate}) {
            const auto s = hydro.profiler().stats(k);
            if (s.calls == 0) continue;
            std::printf("  %-12s %9.3f s  (%ld calls)\n",
                        std::string(util::kernel_name(k)).c_str(), s.wall_s,
                        s.calls);
        }

        // Step-loop runs may end between hydro.run() calls; rewrite the
        // telemetry sinks with everything recorded so far (whole-file
        // overwrite, so the last write wins and is complete).
        hydro.write_telemetry();

        if (cli.has("vtk")) {
            const auto path = cli.get("vtk", "out.vtk");
            io::write_vtk(path, hydro.mesh(), hydro.state(), hydro.steps(),
                          hydro.time());
            std::printf("wrote %s\n", path.c_str());
        }
        return 0;
    } catch (const util::Error& e) {
        std::fprintf(stderr, "bookleaf: error: %s\n", e.what());
        return 1;
    }
}
