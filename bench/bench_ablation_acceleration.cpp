/// \file bench_ablation_acceleration.cpp
/// Ablation for the acceleration kernel's data dependency (§IV-B): the
/// corner-force scatter races under threading, so the reference OpenMP
/// port leaves it serial; the fix the paper alludes to ("could be fixed
/// by rewriting the kernel") is the default gather over nodes. This bench
/// shows (a) the model-level effect on the hybrid column of Table II, and
/// (b) the real assembly both ways with identical results; it exits
/// nonzero if they differ.

#include <cstdio>

#include "assembly_ablation.hpp"
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

    // --- real kernels: the paper's serial scatter (bench-local, see
    // assembly_ablation.hpp) against the library's gather over the
    // node->(cell, corner) CSR, on one state: identical bytes, and the
    // gather needs no serial section.
    constexpr int calls = 200;
    std::printf("\nreal kernel check (Noh 48x48 after 40 steps, %d "
                "assemblies, 2 threads):\n",
                calls);
    bench::AssemblyRig rig(setup::noh(48), 40);
    par::ThreadPool pool(2);
    const auto t = bench::time_assembly(rig, calls, pool);
    std::printf("  serial scatter:  %.4f s\n", t.scatter_s);
    std::printf("  gather (library): %.4f s  (%s)\n", t.gather_s,
                t.bitwise ? "bitwise equal" : "DIFFERS");
    if (!t.bitwise) {
        std::fprintf(stderr, "bench_ablation_acceleration: the serial scatter "
                             "and the gather disagree\n");
        return 1;
    }
    return 0;
}
