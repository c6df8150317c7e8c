/// \file bench_ablation_acceleration.cpp
/// Ablation for the acceleration kernel's data dependency (§IV-B): the
/// corner-force scatter races under threading, so the reference OpenMP
/// port leaves it serial; the fix the paper alludes to ("could be fixed
/// by rewriting the kernel") is the default gather over nodes. This bench
/// shows (a) the model-level effect on the hybrid column of Table II, and
/// (b) the real kernel running both ways with identical results.

#include <cmath>
#include <cstdio>

#include "core/driver.hpp"
#include "perfmodel/model.hpp"
#include "setup/problems.hpp"

using namespace bookleaf;
using namespace bookleaf::perfmodel;
using util::Kernel;

int main() {
    std::printf("=== Ablation: acceleration-kernel data dependency (§IV-B) ===\n\n");

    // --- model level: what Table II's hybrid column would look like with
    // the scatter parallelised (serial fraction -> 0).
    WorkTable fixed = reference_work();
    fixed.at(Kernel::getacc).hybrid_serial = 0.0;
    for (const auto& platform : {skylake(), broadwell()}) {
        const auto& work_acc = reference_work().at(Kernel::getacc);
        const double flat =
            cpu_kernel_seconds(platform, work_acc, table2_cells, table2_steps,
                               false);
        const double hybrid_serial =
            cpu_kernel_seconds(platform, work_acc, table2_cells, table2_steps,
                               true);
        const double hybrid_gather = cpu_kernel_seconds(
            platform, fixed.at(Kernel::getacc), table2_cells, table2_steps,
            true);
        std::printf("%-40s flat %6.1fs | hybrid(serial scatter) %6.1fs | "
                    "hybrid(gather) %6.1fs\n",
                    platform.name.c_str(), flat, hybrid_serial, hybrid_gather);
    }

    // --- real kernels: both assembly strategies, identical physics. The
    // serial scatter is the paper's §IV-B ablation baseline; the gather
    // over the node->(cell, corner) CSR is the default production path
    // (race-free, bitwise thread-count independent).
    std::printf("\nreal kernel check (Noh 48x48, 40 steps, 2 threads):\n");
    auto run = [](par::Assembly assembly) {
        core::Hydro h(setup::noh(48));
        par::ThreadPool pool(2);
        par::Exec exec;
        exec.pool = &pool;
        h.set_exec(exec);
        h.set_assembly(assembly);
        h.run(std::nullopt, 40);
        return std::make_pair(h.state().rho,
                              h.profiler().stats(Kernel::getacc).wall_s);
    };
    const auto [rho_serial, t_serial] = run(par::Assembly::serial_scatter);
    const auto [rho_gather, t_gather] = run(par::Assembly::gather);
    double max_gather = 0;
    for (std::size_t c = 0; c < rho_serial.size(); ++c)
        max_gather =
            std::max(max_gather, std::abs(rho_serial[c] - rho_gather[c]));
    std::printf("  serial scatter:  getacc %.4f s\n", t_serial);
    std::printf("  gather (default): getacc %.4f s  (max |drho| %.3e, "
                "must be exactly 0)\n",
                t_gather, max_gather);
    if (max_gather != 0.0) {
        std::fprintf(stderr, "bench_ablation_acceleration: the serial scatter "
                             "and the gather disagree\n");
        return 1;
    }
    return 0;
}
