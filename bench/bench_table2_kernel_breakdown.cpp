/// \file bench_table2_kernel_breakdown.cpp
/// Regenerates **Table II** of the paper: the per-kernel performance
/// breakdown of the Noh problem across the seven single-node
/// configurations (with Table I printed as the preamble). Model values
/// come from the mechanism-based performance model (src/perfmodel); the
/// published values are printed alongside for comparison.
///
///   ./bench_table2_kernel_breakdown [--calibrated] [--json out.json]
///
/// With --calibrated, the kernel work table is rebuilt from instrumented
/// runs of THIS repository's kernels (perfmodel::calibrate_noh), showing
/// how the C++ port's kernel balance differs from the Fortran reference.
/// With --json, the full model/paper table is written as a
/// "bookleaf.bench/1" document for the persisted perf trajectory.

#include <cstdio>

#include "obs/json.hpp"
#include "perfmodel/calibrate.hpp"
#include "perfmodel/paper_data.hpp"
#include "util/cli.hpp"

using namespace bookleaf;
using namespace bookleaf::perfmodel;
using util::Kernel;

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv, {"json", "calibrated"});

    std::printf("=== Table I: experimental configurations ===\n");
    std::printf("%-18s %-48s %-22s %s\n", "Config", "Hardware", "System",
                "Compiler");
    for (const auto& [config, row] : paper_table1())
        std::printf("%-18s %-48s %-22s %s\n", config_name(config).c_str(),
                    row.hardware, row.system, row.compiler);

    WorkTable work = reference_work();
    if (cli.has("calibrated")) {
        std::printf("\n(calibrating against this repository's kernels...)\n");
        work = calibrated_work(calibrate_noh());
    }

    std::printf("\n=== Table II: per-kernel breakdown, Noh, single node ===\n");
    std::printf("(model seconds | paper seconds)\n\n");
    std::printf("%-18s %17s %17s %17s %17s %17s %17s %17s\n", "Config",
                "Overall", "Viscosity", "Acceleration", "getdt", "getgeom",
                "getforce", "getpc");

    for (int c = 0; c < config_count; ++c) {
        const auto config = static_cast<Config>(c);
        const auto b = model_noh(config, work);
        const auto& paper = paper_table2().at(config);
        auto cell = [](double model, double published) {
            static char buf[32];
            std::snprintf(buf, sizeof buf, "%7.1f |%7.1f", model, published);
            return std::string(buf);
        };
        std::printf("%-18s %s %s %s %s %s %s %s\n", config_name(config).c_str(),
                    cell(b.overall, paper.overall).c_str(),
                    cell(b.at(Kernel::getq), paper.viscosity).c_str(),
                    cell(b.at(Kernel::getacc), paper.acceleration).c_str(),
                    cell(b.at(Kernel::getdt), paper.getdt).c_str(),
                    cell(b.at(Kernel::getgeom), paper.getgeom).c_str(),
                    cell(b.at(Kernel::getforce), paper.getforce).c_str(),
                    cell(b.at(Kernel::getpc), paper.getpc).c_str());
    }

    std::printf("\nShape checks (paper's qualitative claims):\n");
    const auto skl = model_noh(Config::skl_mpi, work);
    const auto skl_h = model_noh(Config::skl_hybrid, work);
    const auto p100o = model_noh(Config::p100_omp, work);
    const auto p100c = model_noh(Config::p100_cuda, work);
    const auto v100c = model_noh(Config::v100_cuda, work);
    std::printf("  flat MPI beats hybrid:            %s\n",
                skl.overall < skl_h.overall ? "yes" : "NO");
    std::printf("  viscosity share (Skylake MPI):    %.0f%% (paper: 70%%)\n",
                100.0 * skl.at(Kernel::getq) / skl.overall);
    std::printf("  hybrid viscosity within ~5%%:      %.1f%%\n",
                100.0 * (skl_h.at(Kernel::getq) / skl.at(Kernel::getq) - 1.0));
    std::printf("  P100 OpenMP beats P100 CUDA:      %s\n",
                p100o.overall < p100c.overall ? "yes" : "NO");
    std::printf("  V100 CUDA beats P100 CUDA:        %s\n",
                v100c.overall < p100c.overall ? "yes" : "NO");
    std::printf("  host getdt ~equal P100/V100:      %.2f ratio\n",
                v100c.at(Kernel::getdt) / p100c.at(Kernel::getdt));

    if (cli.has("json")) {
        auto doc = obs::Json::object();
        doc["schema"] = obs::Json("bookleaf.bench/1");
        doc["bench"] = obs::Json("table2_kernel_breakdown");
        auto& config = doc["config"];
        config = obs::Json::object();
        config["calibrated"] = obs::Json(cli.has("calibrated"));
        auto& rows = doc["rows"];
        rows = obs::Json::object();
        for (int c = 0; c < config_count; ++c) {
            const auto cfg = static_cast<Config>(c);
            const auto b = model_noh(cfg, work);
            const auto& paper = paper_table2().at(cfg);
            auto& row = rows[config_name(cfg)];
            row = obs::Json::object();
            row["overall_model_s"] = obs::Json(b.overall);
            row["overall_paper_s"] = obs::Json(paper.overall);
            row["viscosity_model_s"] = obs::Json(b.at(Kernel::getq));
            row["acceleration_model_s"] = obs::Json(b.at(Kernel::getacc));
            row["getdt_model_s"] = obs::Json(b.at(Kernel::getdt));
            row["getgeom_model_s"] = obs::Json(b.at(Kernel::getgeom));
            row["getforce_model_s"] = obs::Json(b.at(Kernel::getforce));
            row["getpc_model_s"] = obs::Json(b.at(Kernel::getpc));
        }
        const auto path = cli.get("json", "BENCH_table2.json");
        obs::write_json_file(path, doc);
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
