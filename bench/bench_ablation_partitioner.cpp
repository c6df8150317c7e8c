/// \file bench_ablation_partitioner.cpp
/// Ablation of the decomposition strategy (§III-A: "a simple RCB strategy
/// or a hypergraph strategy via METIS"): edge cut, balance, ghost-layer
/// volume and partitioning cost for RCB vs the multilevel
/// METIS-substitute, across part counts. Also demonstrates the serial
/// partitioning bottleneck the paper blames for the missing flat-MPI
/// scaling study (§V-C).

#include <cstdio>

#include "mesh/generator.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "setup/problems.hpp"
#include "util/timer.hpp"

using namespace bookleaf;

int main() {
    std::printf("=== Ablation: RCB vs multilevel (METIS-substitute) ===\n\n");
    const auto m = mesh::generate_rect({.nx = 192, .ny = 192});
    std::printf("mesh: %d cells\n\n", m.n_cells());
    std::printf("%-12s %8s %10s %10s %12s %12s\n", "partitioner", "parts",
                "edge cut", "imbalance", "ghosts", "time(ms)");

    for (const int parts : {2, 4, 8, 16, 32}) {
        for (const auto* name : {"rcb", "multilevel"}) {
            util::Timer timer;
            const auto part = std::string(name) == "rcb"
                                  ? part::rcb(m, parts)
                                  : part::multilevel(m, parts);
            const double ms = timer.elapsed() * 1e3;
            const auto q = part::quality(m, part, parts);
            const auto subs = part::decompose(m, part, parts);
            std::size_t ghosts = 0;
            for (const auto& sub : subs)
                ghosts += sub.local.cell_ids.size() -
                          static_cast<std::size_t>(sub.n_owned_cells);
            std::printf("%-12s %8d %10d %10.3f %12zu %12.2f\n", name, parts,
                        q.edge_cut, q.imbalance, ghosts, ms);
        }
    }

    // The serial-partitioner bottleneck: cost grows with mesh size while
    // everything else scales out (paper §V-C).
    std::printf("\nserial RCB cost vs mesh size (the paper's scaling "
                "bottleneck):\n");
    for (const Index n : {64, 128, 256, 384}) {
        const auto big = mesh::generate_rect({.nx = n, .ny = n});
        util::Timer timer;
        (void)part::rcb(big, 64);
        std::printf("  %4dx%-4d -> %7.2f ms\n", n, n, timer.elapsed() * 1e3);
    }
    return 0;
}
