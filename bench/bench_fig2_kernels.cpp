/// \file bench_fig2_kernels.cpp
/// Regenerates **Figure 2** of the paper: per-kernel execution times for
/// the Noh problem on a single node — (a) the viscosity kernel, (b) the
/// acceleration kernel.
///
///   ./bench_fig2_kernels [--json BENCH_fig2.json]
///
/// With --json, the model values and the measured acceleration-assembly
/// times are also written as a "bookleaf.bench/1" document so CI can
/// persist the perf trajectory (scripts/compare_bench.py diffs two such
/// files and flags regressions on the *_s keys).

#include <algorithm>
#include <cstdio>
#include <string>

#include "assembly_ablation.hpp"
#include "core/driver.hpp"
#include "obs/json.hpp"
#include "perfmodel/calibrate.hpp"
#include "perfmodel/paper_data.hpp"
#include "setup/problems.hpp"
#include "util/cli.hpp"

using namespace bookleaf::perfmodel;
using bookleaf::util::Kernel;

namespace {

void figure(const char* title, Kernel kernel,
            double PaperRow::*paper_member) {
    std::printf("%s\n\n", title);
    double max_model = 0;
    for (int c = 0; c < config_count; ++c)
        max_model = std::max(max_model,
                             model_noh(static_cast<Config>(c), reference_work())
                                 .at(kernel));
    std::printf("%-18s %10s %10s   %s\n", "Config", "model(s)", "paper(s)",
                "bar (model)");
    for (int c = 0; c < config_count; ++c) {
        const auto config = static_cast<Config>(c);
        const double model =
            model_noh(config, reference_work()).at(kernel);
        const double paper = paper_table2().at(config).*paper_member;
        const int width = static_cast<int>(50.0 * model / max_model);
        std::printf("%-18s %10.1f %10.1f   %s\n", config_name(config).c_str(),
                    model, paper, std::string(width, '#').c_str());
    }
    std::printf("\n");
}

} // namespace

int main(int argc, char** argv) {
    const bookleaf::util::Cli cli(argc, argv, {"json"});
    figure("=== Figure 2a: viscosity calculation kernel (getq) ===",
           Kernel::getq, &PaperRow::viscosity);
    figure("=== Figure 2b: acceleration calculation kernel (getacc) ===",
           Kernel::getacc, &PaperRow::acceleration);

    // The paper's headline observation for this figure: the hybrid
    // viscosity is within a few percent of flat MPI while the hybrid
    // acceleration suffers from the data dependency.
    const auto skl = model_noh(Config::skl_mpi, reference_work());
    const auto skl_h = model_noh(Config::skl_hybrid, reference_work());
    std::printf("hybrid/flat (Skylake): viscosity %.2fx, acceleration %.2fx\n",
                skl_h.at(Kernel::getq) / skl.at(Kernel::getq),
                skl_h.at(Kernel::getacc) / skl.at(Kernel::getacc));

    // --- measured counterpart on this host: the acceleration assembly
    // both ways (Fig. 2b's data dependency, and the gather that removes
    // it) on the state of Noh 64x64 after 30 steps, 30 assemblies each.
    // The serial scatter is bench-local (assembly_ablation.hpp).
    namespace bl = bookleaf;
    std::printf("\n=== Measured acceleration assembly on this host "
                "(Noh 64x64 after 30 steps, 30 assemblies, 2 threads) ===\n");
    double t_serial = 0.0, t_gather = 0.0;
    {
        bl::bench::AssemblyRig rig(bl::setup::noh(64), 30);
        bl::par::ThreadPool pool(2);
        const auto t = bl::bench::time_assembly(rig, 30, pool);
        t_serial = t.scatter_s;
        t_gather = t.gather_s;
    }

    // One more instrumented run keeping the FULL kernel breakdown: its
    // per-kernel {wall_s, calls, items} counters become the document's
    // "measured_kernels" — the shape perfmodel::calibrate_from_document
    // consumes, closing the calibration loop CI gates on
    // (scripts/check_perfmodel.py).
    bl::core::Hydro instrumented(bl::setup::noh(64));
    {
        bl::par::ThreadPool pool(2);
        bl::par::Exec exec;
        exec.pool = &pool;
        instrumented.set_exec(exec);
        instrumented.run(std::nullopt, 30);
    }
    std::printf("%-28s %10.4f s\n", "serial scatter (paper)", t_serial);
    std::printf("%-28s %10.4f s  (%.2fx vs serial)\n", "gather (library)",
                t_gather, t_serial / std::max(t_gather, 1e-12));

    if (cli.has("json")) {
        namespace obs = bl::obs;
        auto doc = obs::Json::object();
        doc["schema"] = obs::Json("bookleaf.bench/1");
        doc["bench"] = obs::Json("fig2_kernels");
        auto& config = doc["config"];
        config = obs::Json::object();
        config["problem"] = obs::Json("noh");
        config["mesh"] = obs::Json(64);
        config["steps"] = obs::Json(30);
        config["threads"] = obs::Json(2);
        // Model values are deterministic — the comparator diffing them is
        // a consistency check, not a perf signal.
        auto& model = doc["model"];
        model = obs::Json::object();
        for (int c = 0; c < config_count; ++c) {
            const auto cfg = static_cast<Config>(c);
            const auto b = model_noh(cfg, reference_work());
            auto& row = model[config_name(cfg)];
            row = obs::Json::object();
            row["viscosity_model_s"] = obs::Json(b.at(Kernel::getq));
            row["acceleration_model_s"] = obs::Json(b.at(Kernel::getacc));
        }
        auto& measured = doc["measured"];
        measured = obs::Json::object();
        measured["getacc_serial_scatter_s"] = obs::Json(t_serial);
        measured["getacc_gather_s"] = obs::Json(t_gather);
        measured["speedup_gather"] =
            obs::Json(t_serial / std::max(t_gather, 1e-12));

        // Full per-kernel counters of the instrumented run, in the shape
        // calibrate_from_document reads (items = cells swept summed over
        // invocations, so wall_s/items is seconds-per-cell directly).
        auto& mk = doc["measured_kernels"];
        mk = obs::Json::object();
        for (const auto kernel : modelled_kernels) {
            const auto stats = instrumented.profiler().stats(kernel);
            if (stats.calls == 0) continue;
            auto& row = mk[std::string(bl::util::kernel_name(kernel))];
            row = obs::Json::object();
            row["wall_s"] = obs::Json(stats.wall_s);
            row["calls"] = obs::Json(stats.calls);
            row["items"] = obs::Json(stats.items);
        }
        doc["measured_steps"] = obs::Json(30);

        // Close the loop inside the document itself: recalibrate the
        // perfmodel from the measurements above and store the predicted
        // Skylake flat-MPI per-kernel seconds. check_perfmodel.py asserts
        // these shares track the measured wall_s shares.
        const auto cal = calibrate_from_document(doc);
        const auto predicted =
            model_noh(Config::skl_mpi, calibrated_work(cal));
        auto& cm = doc["calibrated_model"];
        cm = obs::Json::object();
        cm["config"] = obs::Json(config_name(Config::skl_mpi));
        for (const auto kernel : modelled_kernels) {
            auto& row = cm[std::string(bl::util::kernel_name(kernel))];
            row = obs::Json::object();
            row["model_s"] = obs::Json(predicted.at(kernel));
        }

        const auto path = cli.get("json", "BENCH_fig2.json");
        obs::write_json_file(path, doc);
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
