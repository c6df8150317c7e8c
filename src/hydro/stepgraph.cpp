/// \file stepgraph.cpp
/// Builds the Lagrangian-step task graph. Tasks are (kernel, block)
/// pairs; edges cover every read-after-write, write-after-read and
/// write-after-write hazard between blocks, derived from the kernels'
/// footprints:
///   * cell kernels read/write their own cells' slots; getq additionally
///     reads the velocities of face-neighbour cells' nodes (the limiter's
///     continuation stencil) — the "wide" coupling;
///   * getein / getforce / the geometry rebuild read their own cells'
///     nodes — the "own" coupling;
///   * the acceleration assembly gathers a node's incident corners via
///     ctx.corner_gather() — the "touch" coupling (and its serial
///     deposition order is what keeps the reduction bitwise).
/// Redundant edges already implied by transitivity are mostly avoided,
/// but correctness never relies on a chain longer than the comments in
/// build() argue explicitly.

#include "hydro/stepgraph.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace bookleaf::hydro {

namespace {

struct BlockRange {
    Index begin = 0, end = 0;
};

std::vector<BlockRange> make_blocks(Index n, Index block_size) {
    std::vector<BlockRange> blocks;
    for (Index b = 0; b < n; b += block_size)
        blocks.push_back({b, std::min<Index>(n, b + block_size)});
    if (blocks.empty()) blocks.push_back({0, 0});
    return blocks;
}

void sort_unique(std::vector<int>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

} // namespace

StepGraph::StepGraph(const Context& ctx, State& s)
    : run_exec_(ctx.exec), ctx_(ctx), s_(&s) {
    // Task bodies are serial block loops: null the pool so any par::
    // entry point they reach cannot re-dispatch onto the pool the graph
    // itself is scheduled on.
    ctx_.exec.pool = nullptr;
    ctx_.stepgraph = nullptr;
    ctx_.advectgraph = nullptr;
    const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::other);
    build();
}

void StepGraph::build() {
    const auto& mesh = *ctx_.mesh;
    State& s = *s_;
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();

    const Index cell_bs = par::detail::resolve_task_block(run_exec_, n_cells);
    const Index node_bs = par::detail::resolve_task_block(run_exec_, n_nodes);
    const auto cells = make_blocks(n_cells, cell_bs);
    const auto nodes = make_blocks(n_nodes, node_bs);
    const int n_cb = static_cast<int>(cells.size());
    const int n_nb = static_cast<int>(nodes.size());
    const auto nb_of = [&](Index n) { return static_cast<int>(n / node_bs); };
    const auto cb_of = [&](Index c) { return static_cast<int>(c / cell_bs); };

    // --- couplings -------------------------------------------------------
    // own_nb[cb]:  node blocks holding any node of a cell in cb.
    // wide_nb[cb]: own_nb plus the nodes of face-neighbour cells (getq's
    //              continuation stencil reads u,v there).
    // touch_cb[nb]: cell blocks whose corners a node in nb gathers
    //              (via ctx.corner_gather(): flat corner id / 4 = cell).
    // wide_reader_cb[nb]: transpose of wide_nb — the cell blocks whose
    //              getq reads u,v of a node in nb.
    std::vector<std::vector<int>> own_nb(cells.size());
    std::vector<std::vector<int>> wide_nb(cells.size());
    std::vector<std::vector<int>> touch_cb(nodes.size());
    std::vector<std::vector<int>> wide_reader_cb(nodes.size());

    for (int cb = 0; cb < n_cb; ++cb) {
        auto& own = own_nb[static_cast<std::size_t>(cb)];
        auto& wide = wide_nb[static_cast<std::size_t>(cb)];
        for (Index c = cells[static_cast<std::size_t>(cb)].begin;
             c < cells[static_cast<std::size_t>(cb)].end; ++c) {
            for (int k = 0; k < corners_per_cell; ++k) {
                own.push_back(nb_of(mesh.cn(c, k)));
                const Index nbr = mesh.neighbor(c, k);
                if (nbr == no_index) continue;
                for (int m = 0; m < corners_per_cell; ++m)
                    wide.push_back(nb_of(mesh.cn(nbr, m)));
            }
        }
        wide.insert(wide.end(), own.begin(), own.end());
        sort_unique(own);
        sort_unique(wide);
        for (const int nb : wide)
            wide_reader_cb[static_cast<std::size_t>(nb)].push_back(cb);
    }
    const auto& gather = ctx_.corner_gather();
    for (int nb = 0; nb < n_nb; ++nb) {
        auto& touch = touch_cb[static_cast<std::size_t>(nb)];
        for (Index n = nodes[static_cast<std::size_t>(nb)].begin;
             n < nodes[static_cast<std::size_t>(nb)].end; ++n)
            for (const Index ck : gather.row(n))
                touch.push_back(cb_of(ck / corners_per_cell));
        sort_unique(touch);
    }

    // --- tasks -----------------------------------------------------------
    using par::TaskId;
    const Context& ctx = ctx_;
    auto link = [&](TaskId after, std::vector<TaskId> befores) {
        sort_unique(befores);
        for (const TaskId b : befores) graph_.depend(after, b);
    };

    // Step-start snapshot (lagstep's Kernel::other scope), per block.
    std::vector<TaskId> snapn(nodes.size()), snapc(cells.size());
    for (int nb = 0; nb < n_nb; ++nb) {
        const Index b = nodes[static_cast<std::size_t>(nb)].begin, e = nodes[static_cast<std::size_t>(nb)].end;
        snapn[static_cast<std::size_t>(nb)] = graph_.add([&ctx, &s, b, e] {
            const util::ScopedTimer t(*ctx.profiler, util::Kernel::other);
            for (Index n = b; n < e; ++n) {
                const auto ni = static_cast<std::size_t>(n);
                s.x0[ni] = s.x[ni];
                s.y0[ni] = s.y[ni];
                s.u0[ni] = s.u[ni];
                s.v0[ni] = s.v[ni];
            }
        }, false, util::Kernel::other);
    }
    for (int cb = 0; cb < n_cb; ++cb) {
        const Index b = cells[static_cast<std::size_t>(cb)].begin, e = cells[static_cast<std::size_t>(cb)].end;
        snapc[static_cast<std::size_t>(cb)] = graph_.add([&ctx, &s, b, e] {
            const util::ScopedTimer t(*ctx.profiler, util::Kernel::other);
            for (Index c = b; c < e; ++c)
                s.ein0[static_cast<std::size_t>(c)] =
                    s.ein[static_cast<std::size_t>(c)];
        }, false, util::Kernel::other);
    }

    // --- predictor -------------------------------------------------------
    std::vector<TaskId> p_q(cells.size()), p_f(cells.size()),
        p_gc(cells.size()), p_rho(cells.size()), p_ein(cells.size()),
        p_pc(cells.size());
    std::vector<TaskId> p_gm(nodes.size());

    for (int cb = 0; cb < n_cb; ++cb) {
        const auto ci = static_cast<std::size_t>(cb);
        const Index b = cells[ci].begin, e = cells[ci].end;
        // getq reads pre-step u,v/rho/csqrd/cache — no intra-step inputs.
        p_q[ci] = graph_.add([&ctx, &s, b, e] { getq(ctx, s, b, e); }, false,
                             util::Kernel::getq);
        p_f[ci] = graph_.add([&ctx, &s, b, e] { getforce(ctx, s, b, e); },
                             false, util::Kernel::getforce);
        link(p_f[ci], {p_q[ci]}); // RAW qfx/qfy
    }
    for (int nb = 0; nb < n_nb; ++nb) {
        const auto ni = static_cast<std::size_t>(nb);
        const Index b = nodes[ni].begin, e = nodes[ni].end;
        p_gm[ni] = graph_.add([this, &ctx, &s, b, e] {
            getgeom_move(ctx, s, s.u0, s.v0, half_dt_, b, e);
        }, false, util::Kernel::getgeom);
        link(p_gm[ni], {snapn[ni]}); // RAW x0/u0 (and WAR on x,y it reads)
    }
    for (int cb = 0; cb < n_cb; ++cb) {
        const auto ci = static_cast<std::size_t>(cb);
        const Index b = cells[ci].begin, e = cells[ci].end;
        p_gc[ci] = graph_.add([this, &ctx, &s, b, e] {
            getgeom_cells(ctx, s, b, e, bad_pred_);
        }, false, util::Kernel::getgeom);
        // RAW x,y from the own node blocks' moves; WAR: getq/getforce read
        // the old geometry cache / cnvol / volume this task overwrites.
        std::vector<TaskId> deps = {p_q[ci], p_f[ci]};
        for (const int nb : own_nb[ci])
            deps.push_back(p_gm[static_cast<std::size_t>(nb)]);
        link(p_gc[ci], std::move(deps));

        p_rho[ci] = graph_.add([&ctx, &s, b, e] { getrho(ctx, s, b, e); },
                               false, util::Kernel::getrho);
        link(p_rho[ci], {p_gc[ci]}); // RAW volume

        p_ein[ci] = graph_.add([this, &ctx, &s, b, e] {
            getein(ctx, s, s.u0, s.v0, half_dt_, b, e);
        }, false, util::Kernel::getein);
        // RAW fx/fy (forces), ein0 (snapshot), u0/v0 (own node snapshots);
        // the snapshot edges also cover the WAR on ein it overwrites.
        std::vector<TaskId> ein_deps = {p_f[ci], snapc[ci]};
        for (const int nb : own_nb[ci])
            ein_deps.push_back(snapn[static_cast<std::size_t>(nb)]);
        link(p_ein[ci], std::move(ein_deps));

        p_pc[ci] = graph_.add([&ctx, &s, b, e] { getpc(ctx, s, b, e); }, false,
                              util::Kernel::getpc);
        link(p_pc[ci], {p_rho[ci], p_ein[ci]}); // RAW rho, ein
    }
    if (!ctx_.opts.guard.enabled) {
        // Without health guards a tangled predictor mesh aborts the step:
        // the check task throws, cancelling the rest of the graph — the
        // graph-mode equivalent of getgeom's immediate throw.
        const TaskId chk = graph_.add([this] {
            const Index bad = bad_pred_.load();
            if (bad != no_index)
                throw util::Error(
                    "getgeom: non-positive volume in cell " +
                    std::to_string(bad) +
                    " (mesh tangled; consider enabling ALE)");
        });
        link(chk, p_gc);
    }

    // --- corrector -------------------------------------------------------
    std::vector<TaskId> c_q(cells.size()), c_f(cells.size()),
        c_gc(cells.size()), c_rho(cells.size()), c_ein(cells.size()),
        c_pc(cells.size());
    std::vector<TaskId> c_asm(nodes.size()), c_adv(nodes.size()),
        c_ubar(nodes.size()), c_gm(nodes.size());

    for (int cb = 0; cb < n_cb; ++cb) {
        const auto ci = static_cast<std::size_t>(cb);
        const Index b = cells[ci].begin, e = cells[ci].end;
        c_q[ci] = graph_.add([&ctx, &s, b, e] { getq(ctx, s, b, e); }, false,
                             util::Kernel::getq);
        // RAW csqrd/rho/cache via the predictor EoS (p_pc is downstream of
        // p_rho and p_gc for the same block, so one edge covers all
        // three); u,v are untouched since step entry.
        link(c_q[ci], {p_pc[ci]});
        c_f[ci] = graph_.add([&ctx, &s, b, e] { getforce(ctx, s, b, e); },
                             false, util::Kernel::getforce);
        // RAW qfx (c_q), and via c_q <- p_pc: pre/ein/rho/csqrd/geometry.
        // WAR fx/fy read by p_ein: p_ein -> p_pc -> c_q covers it.
        link(c_f[ci], {c_q[ci]});
    }
    for (int nb = 0; nb < n_nb; ++nb) {
        const auto ni = static_cast<std::size_t>(nb);
        const Index b = nodes[ni].begin, e = nodes[ni].end;
        c_asm[ni] =
            graph_.add([&ctx, &s, b, e] { getacc_assemble(ctx, s, b, e); },
                       false, util::Kernel::getacc);
        // RAW cnmass/fx/fy of every gathered corner's cell block.
        std::vector<TaskId> deps;
        for (const int cb : touch_cb[ni])
            deps.push_back(c_f[static_cast<std::size_t>(cb)]);
        link(c_asm[ni], std::move(deps));

        c_adv[ni] = graph_.add([this, &ctx, &s, b, e] {
            getacc_advance_velocity(ctx, s, dt_, b, e);
        }, false, util::Kernel::getacc);
        // RAW node_mass/nfx/nfy (c_asm) and u0/v0 (snapshot). WAR: this
        // writes u,v that the corrector getq of every wide-reader cell
        // block still reads (getforce's own-node reads are covered by
        // c_f -> c_asm over the touch coupling).
        std::vector<TaskId> adv_deps = {c_asm[ni], snapn[ni]};
        for (const int cb : wide_reader_cb[ni])
            adv_deps.push_back(c_q[static_cast<std::size_t>(cb)]);
        link(c_adv[ni], std::move(adv_deps));
    }
    // Boundary conditions touch arbitrary (boundary-masked) nodes: one
    // serial task each, exactly where the fork-join sequence applies them.
    // These are the only intentional graph-wide rendezvous points.
    const TaskId c_bc = graph_.add([&ctx, &s] {
        const util::ScopedTimer t(*ctx.profiler, util::Kernel::getacc);
        apply_velocity_bc(*ctx.mesh, ctx.opts, s.u, s.v);
    }, false, util::Kernel::getacc);
    link(c_bc, c_adv);
    for (int nb = 0; nb < n_nb; ++nb) {
        const auto ni = static_cast<std::size_t>(nb);
        const Index b = nodes[ni].begin, e = nodes[ni].end;
        c_ubar[ni] =
            graph_.add([&ctx, &s, b, e] { getacc_centered(ctx, s, b, e); },
                       false, util::Kernel::getacc);
        link(c_ubar[ni], {c_bc}); // RAW u,v post-BC (u0 via c_bc <- c_adv)
    }
    const TaskId c_bcu = graph_.add([&ctx, &s] {
        const util::ScopedTimer t(*ctx.profiler, util::Kernel::getacc);
        apply_velocity_bc(*ctx.mesh, ctx.opts, s.ubar, s.vbar);
    }, false, util::Kernel::getacc);
    link(c_bcu, c_ubar);

    for (int nb = 0; nb < n_nb; ++nb) {
        const auto ni = static_cast<std::size_t>(nb);
        const Index b = nodes[ni].begin, e = nodes[ni].end;
        c_gm[ni] = graph_.add([this, &ctx, &s, b, e] {
            getgeom_move(ctx, s, s.ubar, s.vbar, dt_, b, e);
        }, false, util::Kernel::getgeom);
        // RAW ubar/vbar post-BC; x0 and the WAR on x,y (read by the
        // predictor geometry of every touching cell block) are upstream of
        // c_bcu through snapn -> ... -> c_adv -> c_bc.
        link(c_gm[ni], {c_bcu});
    }
    for (int cb = 0; cb < n_cb; ++cb) {
        const auto ci = static_cast<std::size_t>(cb);
        const Index b = cells[ci].begin, e = cells[ci].end;
        c_gc[ci] = graph_.add([this, &ctx, &s, b, e] {
            getgeom_cells(ctx, s, b, e, bad_corr_);
        }, false, util::Kernel::getgeom);
        // RAW x,y; the WAR on the cache read by c_q/c_f is upstream
        // (c_q -> ... -> c_bc -> c_bcu -> c_gm).
        std::vector<TaskId> deps;
        for (const int nb : own_nb[ci])
            deps.push_back(c_gm[static_cast<std::size_t>(nb)]);
        link(c_gc[ci], std::move(deps));

        c_rho[ci] = graph_.add([&ctx, &s, b, e] { getrho(ctx, s, b, e); },
                               false, util::Kernel::getrho);
        link(c_rho[ci], {c_gc[ci]});

        c_ein[ci] = graph_.add([this, &ctx, &s, b, e] {
            getein(ctx, s, s.ubar, s.vbar, dt_, b, e);
        }, false, util::Kernel::getein);
        // RAW fx/fy (corrector forces) + ubar/vbar post-BC; ein0 is
        // upstream via snapc -> p_ein -> p_pc -> c_q -> c_f.
        link(c_ein[ci], {c_f[ci], c_bcu});

        c_pc[ci] = graph_.add([&ctx, &s, b, e] { getpc(ctx, s, b, e); }, false,
                              util::Kernel::getpc);
        link(c_pc[ci], {c_rho[ci], c_ein[ci]});
    }
    if (!ctx_.opts.guard.enabled) {
        const TaskId chk = graph_.add([this] {
            const Index bad = bad_corr_.load();
            if (bad != no_index)
                throw util::Error(
                    "getgeom: non-positive volume in cell " +
                    std::to_string(bad) +
                    " (mesh tangled; consider enabling ALE)");
        });
        link(chk, c_gc);
    }
}

void StepGraph::run(Real dt) {
    dt_ = dt;
    half_dt_ = Real(0.5) * dt;
    bad_pred_.store(no_index);
    bad_corr_.store(no_index);
    graph_.run(run_exec_, ctx_.profiler, ctx_.graph_log);
}

} // namespace bookleaf::hydro
