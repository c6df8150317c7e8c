/// \file bench_fig3_strong_scaling.cpp
/// Regenerates **Figure 3** of the paper: overall execution time for the
/// Sod problem when strong scaling over 8-64 Cray XC50 nodes (hybrid
/// model), Skylake vs Broadwell, through the cluster model. The paper's
/// key observations: superlinear speedup from 8 to 16 nodes (cache
/// capacity), near-linear scaling beyond, Skylake below Broadwell with
/// the same curve shape, negligible communication.

#include <cmath>
#include <cstdio>

#include "obs/json.hpp"
#include "perfmodel/clustersim.hpp"
#include "util/cli.hpp"

using namespace bookleaf::perfmodel;

int main(int argc, char** argv) {
    const bookleaf::util::Cli cli(argc, argv, {"json"});
    std::printf("=== Figure 3: Sod strong scaling, overall time ===\n\n");
    const std::vector<int> nodes = {8, 16, 32, 64};

    namespace obs = bookleaf::obs;
    auto doc = obs::Json::object();
    doc["schema"] = obs::Json("bookleaf.bench/1");
    doc["bench"] = obs::Json("fig3_strong_scaling");
    auto& platforms = doc["platforms"];
    platforms = obs::Json::object();

    for (const auto& platform : {skylake(), broadwell()}) {
        const auto pts =
            strong_scaling(platform, reference_work(), {}, {}, nodes);
        std::printf("%s\n", platform.name.c_str());
        std::printf("  %6s %12s %10s %12s %10s %8s\n", "nodes", "time(s)",
                    "log10", "speedup", "efficiency", "comm(s)");
        auto points = obs::Json::array();
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const double speedup = pts[0].overall / pts[i].overall;
            const double ideal = pts[i].nodes / double(pts[0].nodes);
            std::printf("  %6d %12.1f %10.2f %11.2fx %9.0f%% %8.1f\n",
                        pts[i].nodes, pts[i].overall,
                        std::log10(pts[i].overall), speedup,
                        100.0 * speedup / ideal, pts[i].comm);
            auto point = obs::Json::object();
            point["nodes"] = obs::Json(pts[i].nodes);
            point["overall_model_s"] = obs::Json(pts[i].overall);
            point["comm_model_s"] = obs::Json(pts[i].comm);
            point["speedup"] = obs::Json(speedup);
            point["efficiency"] = obs::Json(speedup / ideal);
            points.push_back(point);
        }
        platforms[platform.name] = points;
        const double s16 = pts[0].overall / pts[1].overall;
        std::printf("  8 -> 16 nodes: %.2fx (%s; paper reports superlinear)\n\n",
                    s16, s16 > 2.0 ? "superlinear" : "sublinear");
    }

    if (cli.has("json")) {
        const auto path = cli.get("json", "BENCH_fig3.json");
        obs::write_json_file(path, doc);
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
