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
///     the mesh's node_corners — the "touch" coupling (and its serial
///     deposition order is what keeps the reduction bitwise).
/// Redundant edges already implied by transitivity are mostly avoided,
/// but correctness never relies on a chain longer than the comments in
/// build() argue explicitly. The order in which build() adds tasks is
/// their id order, the inline executor's priority (see stepgraph.hpp).

#include "hydro/stepgraph.hpp"

#include <string>
#include <utility>
#include <vector>

#include "par/blocks.hpp"
#include "util/error.hpp"

namespace bookleaf::hydro {

StepGraph::StepGraph(const Context& ctx, State& s,
                     std::optional<StepHalo> halo)
    : run_exec_(ctx.exec), ctx_(ctx), s_(&s) {
    // Task bodies are serial block loops: null the pool so any par::
    // entry point they reach cannot re-dispatch onto the pool the graph
    // itself is scheduled on.
    ctx_.exec.pool = nullptr;
    const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::other);
    if (halo) {
        finish_state_ = std::move(halo->finish_state);
        post_corners_ = std::move(halo->post_corners);
        finish_corners_ = std::move(halo->finish_corners);
    }
    build(halo ? &*halo : nullptr);
}

void StepGraph::build(const StepHalo* halo) {
    const auto& mesh = *ctx_.mesh;
    State& s = *s_;
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();

    const Index cell_bs = par::detail::resolve_task_block(run_exec_, n_cells);
    const Index node_bs = par::detail::resolve_task_block(run_exec_, n_nodes);
    const auto cells = par::make_blocks(n_cells, cell_bs);
    const auto nodes = par::make_blocks(n_nodes, node_bs);
    const int n_cb = static_cast<int>(cells.size());
    const int n_nb = static_cast<int>(nodes.size());
    const auto nb_of = [&](Index n) { return static_cast<int>(n / node_bs); };
    const auto cb_of = [&](Index c) { return static_cast<int>(c / cell_bs); };
    const auto cells_of = [&](int cb) {
        return cells[static_cast<std::size_t>(cb)];
    };
    const auto nodes_of = [&](int nb) {
        return nodes[static_cast<std::size_t>(nb)];
    };

    // --- couplings -------------------------------------------------------
    // own_nb[cb]:  node blocks holding any node of a cell in cb.
    // wide_nb[cb]: own_nb plus the nodes of face-neighbour cells (getq's
    //              continuation stencil reads u,v there).
    // touch_cb[nb]: cell blocks whose corners a node in nb gathers
    //              (via ctx.mesh->node_corners: flat corner id / 4 = cell).
    // wide_reader_cb[nb]: transpose of wide_nb — the cell blocks whose
    //              getq reads u,v of a node in nb.
    const auto own_nb = par::coupling(n_cb, n_nb, [&](int cb, auto add) {
        for (Index c = cells_of(cb).begin; c < cells_of(cb).end; ++c)
            for (int k = 0; k < corners_per_cell; ++k)
                add(nb_of(mesh.cn(c, k)));
    });
    const auto wide_nb = par::coupling(n_cb, n_nb, [&](int cb, auto add) {
        for (Index c = cells_of(cb).begin; c < cells_of(cb).end; ++c)
            for (int k = 0; k < corners_per_cell; ++k) {
                add(nb_of(mesh.cn(c, k)));
                const Index nbr = mesh.neighbor(c, k);
                if (nbr == no_index) continue;
                for (int m = 0; m < corners_per_cell; ++m)
                    add(nb_of(mesh.cn(nbr, m)));
            }
    });
    const auto& gather = ctx_.mesh->node_corners;
    const auto touch_cb = par::coupling(n_nb, n_cb, [&](int nb, auto add) {
        for (Index n = nodes_of(nb).begin; n < nodes_of(nb).end; ++n)
            for (const Index ck : gather.row(n))
                add(cb_of(ck / corners_per_cell));
    });
    std::vector<std::vector<int>> wide_reader_cb(nodes.size());
    for (int cb = 0; cb < n_cb; ++cb)
        for (const int nb : wide_nb[static_cast<std::size_t>(cb)])
            wide_reader_cb[static_cast<std::size_t>(nb)].push_back(cb);

    // --- halo footprints (ranks) ----------------------------------------
    // ghost_cb[cb]:   cb holds a ghost cell (ghost cells are the tail).
    // ghost_nb[nb]:   nb holds a node of a ghost cell. Every non-owned
    //                 node is one (the foreign cell that makes it
    //                 non-owned is in the node-adjacent ghost layer), so
    //                 this covers the nodes the state finish writes, the
    //                 nodes the ghost rebuild reads and the nodes whose
    //                 assembly gathers a ghost corner.
    // stale_q[cb]:    cb's predictor getq reads a non-owned node or a
    //                 ghost cell's state.
    // sends_cb[cb]:   cb holds a cell whose corners a peer receives.
    std::vector<std::uint8_t> ghost_cb(cells.size(), 0),
        ghost_nb(nodes.size(), 0), stale_q(cells.size(), 0),
        sends_cb(cells.size(), 0);
    if (halo != nullptr) {
        for (Index c = halo->n_owned_cells; c < n_cells; ++c) {
            ghost_cb[static_cast<std::size_t>(cb_of(c))] = 1;
            for (int k = 0; k < corners_per_cell; ++k)
                ghost_nb[static_cast<std::size_t>(nb_of(mesh.cn(c, k)))] = 1;
        }
        const auto foreign = [&](Index c) {
            for (int k = 0; k < corners_per_cell; ++k)
                if (!halo->node_owned[static_cast<std::size_t>(mesh.cn(c, k))])
                    return true;
            return false;
        };
        for (int cb = 0; cb < n_cb; ++cb) {
            auto& stale = stale_q[static_cast<std::size_t>(cb)];
            stale = ghost_cb[static_cast<std::size_t>(cb)];
            for (Index c = cells_of(cb).begin; !stale && c < cells_of(cb).end;
                 ++c) {
                stale = foreign(c);
                for (int k = 0; !stale && k < corners_per_cell; ++k) {
                    const Index nbr = mesh.neighbor(c, k);
                    stale = nbr != no_index && foreign(nbr);
                }
            }
        }
        for (const Index c : halo->sent_cells)
            sends_cb[static_cast<std::size_t>(cb_of(c))] = 1;
    }

    // --- tasks -----------------------------------------------------------
    using par::TaskId;
    const Context& ctx = ctx_;
    // No list below repeats a task, and the order within one list does
    // not reach the graph (each listed task gains `after` once).
    auto link = [&](TaskId after, const std::vector<TaskId>& befores) {
        for (const TaskId b : befores) graph_.depend(after, b);
    };

    // Step-start snapshot, per block.
    std::vector<TaskId> snapn(nodes.size()), snapc(cells.size());
    for (int nb = 0; nb < n_nb; ++nb) {
        const Index b = nodes_of(nb).begin, e = nodes_of(nb).end;
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
        const Index b = cells_of(cb).begin, e = cells_of(cb).end;
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
        // getq reads pre-step u,v/rho/csqrd/cache — no intra-step inputs
        // (on a rank, the ghost edges below add the halo ones).
        p_q[ci] = graph_.add([&ctx, &s, b, e] { getq(ctx, s, b, e); }, false,
                             util::Kernel::getq);
        p_f[ci] = graph_.add([&ctx, &s, b, e] { getforce(ctx, s, b, e); },
                             false, util::Kernel::getforce);
        link(p_f[ci], {p_q[ci]}); // RAW qfx/qfy
    }

    // The state halo lands after every predictor getq/getforce that does
    // not read it (ids before the finish), and the ghost rebuild after it.
    // The snapshot and getq tasks that read the refreshed entities wait
    // for the rebuild; getforce reads no more than its block's getq.
    TaskId state_done = -1;
    if (halo != nullptr) {
        const TaskId finish = graph_.add([this] { finish_state_(); },
                                         /*main_thread=*/true,
                                         util::Kernel::halo);
        const Index n_owned = halo->n_owned_cells;
        state_done = graph_.add([&ctx, &s, n_owned] {
            const util::ScopedTimer t(*ctx.profiler, util::Kernel::other);
            // Strict unless health guards are on: then a tangled ghost
            // must reach the post-corrector vote, so every rank takes the
            // collective retry instead of one rank dying mid-step.
            rebuild_cells(*ctx.mesh, *ctx.materials, s, n_owned,
                          ctx.mesh->n_cells(), /*with_rho=*/true,
                          /*strict=*/!ctx.opts.guard.enabled, "dist ghost");
        }, false, util::Kernel::other);
        link(state_done, {finish});
        for (int nb = 0; nb < n_nb; ++nb)
            if (ghost_nb[static_cast<std::size_t>(nb)])
                link(snapn[static_cast<std::size_t>(nb)], {state_done});
        for (int cb = 0; cb < n_cb; ++cb) {
            const auto ci = static_cast<std::size_t>(cb);
            if (ghost_cb[ci]) link(snapc[ci], {state_done});
            if (stale_q[ci]) link(p_q[ci], {state_done});
        }
    }

    // The step's dt: one main-thread task, after the state finish on a
    // rank (the settle callback waits for the dt reduce there).
    const TaskId settle = graph_.add([this] {
        dt_ = (*settle_)();
        half_dt_ = Real(0.5) * dt_;
    }, /*main_thread=*/true,
       halo != nullptr ? util::Kernel::reduce : util::Kernel::other);
    if (halo != nullptr) link(settle, {state_done});

    for (int nb = 0; nb < n_nb; ++nb) {
        const auto ni = static_cast<std::size_t>(nb);
        const Index b = nodes[ni].begin, e = nodes[ni].end;
        p_gm[ni] = graph_.add([this, &ctx, &s, b, e] {
            getgeom_move(ctx, s, s.u0, s.v0, half_dt_, b, e);
        }, false, util::Kernel::getgeom);
        // RAW x0/u0 (and WAR on x,y it reads), and dt.
        link(p_gm[ni], {snapn[ni], settle});
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
        link(p_gc[ci], deps);

        p_rho[ci] = graph_.add([&ctx, &s, b, e] { getrho(ctx, s, b, e); },
                               false, util::Kernel::getrho);
        link(p_rho[ci], {p_gc[ci]}); // RAW volume

        p_ein[ci] = graph_.add([this, &ctx, &s, b, e] {
            getein(ctx, s, s.u0, s.v0, half_dt_, b, e);
        }, false, util::Kernel::getein);
        // RAW fx/fy (forces), ein0 (snapshot), u0/v0 (own node snapshots),
        // dt; the snapshot edges also cover the WAR on ein it overwrites.
        std::vector<TaskId> ein_deps = {p_f[ci], snapc[ci], settle};
        for (const int nb : own_nb[ci])
            ein_deps.push_back(snapn[static_cast<std::size_t>(nb)]);
        link(p_ein[ci], ein_deps);

        p_pc[ci] = graph_.add([&ctx, &s, b, e] { getpc(ctx, s, b, e); }, false,
                              util::Kernel::getpc);
        link(p_pc[ci], {p_rho[ci], p_ein[ci]}); // RAW rho, ein
    }
    if (!ctx_.opts.guard.enabled) {
        // Without health guards a tangled predictor mesh aborts the step:
        // the check task throws, cancelling the rest of the graph. With
        // them, the bad volumes flow into the post-corrector health vote,
        // which rolls the step back on every rank together; a throw here
        // would kill one rank before that vote.
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

    const auto add_force = [&](int cb) {
        const auto ci = static_cast<std::size_t>(cb);
        const Index b = cells[ci].begin, e = cells[ci].end;
        c_q[ci] = graph_.add([&ctx, &s, b, e] {
            getq(ctx, s, b, e, Phase::corrector);
        }, false, util::Kernel::getq);
        // RAW csqrd/rho/cache via the predictor EoS (p_pc is downstream of
        // p_rho and p_gc for the same block, so one edge covers all
        // three), and psi from p_q (upstream of p_gc). u,v are untouched
        // since step entry — no task writes a velocity between p_q and
        // c_q, the invariant that lets c_q reuse p_q's limiters — so c_q
        // needs no edge for them. It keeps the wide coupling on the
        // velocity advance below: an edge that starts compressing only in
        // the corrector recomputes its limiter from continuation nodes.
        link(c_q[ci], {p_pc[ci]});
        c_f[ci] = graph_.add([&ctx, &s, b, e] { getforce(ctx, s, b, e); },
                             false, util::Kernel::getforce);
        // RAW qfx (c_q), and via c_q <- p_pc: pre/ein/rho/csqrd/geometry.
        // WAR fx/fy read by p_ein: p_ein -> p_pc -> c_q covers it.
        link(c_f[ci], {c_q[ci]});
    };
    // The blocks holding sent corners first, then the corner post, then
    // the rest: the corner messages fly while the other blocks compute.
    TaskId post = -1;
    for (int cb = 0; cb < n_cb; ++cb)
        if (sends_cb[static_cast<std::size_t>(cb)]) add_force(cb);
    if (halo != nullptr) {
        post = graph_.add([this] { post_corners_(); }, /*main_thread=*/true,
                          util::Kernel::halo_pack);
        for (int cb = 0; cb < n_cb; ++cb)
            if (sends_cb[static_cast<std::size_t>(cb)])
                link(post, {c_f[static_cast<std::size_t>(cb)]});
    }
    for (int cb = 0; cb < n_cb; ++cb)
        if (!sends_cb[static_cast<std::size_t>(cb)]) add_force(cb);

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
        link(c_asm[ni], deps);

        c_adv[ni] = graph_.add([this, &ctx, &s, b, e] {
            getacc_advance_velocity(ctx, s, dt_, b, e);
        }, false, util::Kernel::getacc);
        // RAW node_mass/nfx/nfy (c_asm) and u0/v0 (snapshot). WAR: this
        // writes u,v that the corrector getq of every wide-reader cell
        // block still reads (getforce's own-node reads are covered by
        // c_f -> c_asm over the touch coupling). dt is upstream via
        // c_asm <- c_f <- c_q <- p_pc <- p_ein <- settle.
        std::vector<TaskId> adv_deps = {c_asm[ni], snapn[ni]};
        for (const int cb : wide_reader_cb[ni])
            adv_deps.push_back(c_q[static_cast<std::size_t>(cb)]);
        link(c_adv[ni], adv_deps);
    }
    if (halo != nullptr) {
        // Last among the tasks that do not wait for it: it writes the
        // ghost fx/fy that the ghost blocks' getforce wrote too (WAW) and
        // that the assembly of every node incident to a ghost cell reads.
        // The ghost blocks' corrector getein reads them as well; it is
        // downstream through c_asm -> c_adv -> c_bc -> c_ubar -> c_bcu.
        const TaskId finish = graph_.add([this] { finish_corners_(); },
                                         /*main_thread=*/true,
                                         util::Kernel::halo);
        std::vector<TaskId> deps = {post};
        for (int cb = 0; cb < n_cb; ++cb)
            if (ghost_cb[static_cast<std::size_t>(cb)])
                deps.push_back(c_f[static_cast<std::size_t>(cb)]);
        link(finish, deps);
        for (int nb = 0; nb < n_nb; ++nb)
            if (ghost_nb[static_cast<std::size_t>(nb)])
                link(c_asm[static_cast<std::size_t>(nb)], {finish});
    }
    // Boundary conditions touch arbitrary (boundary-masked) nodes: one
    // serial task each, after every block of the piece they follow. These
    // are the only intentional graph-wide rendezvous points.
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
        link(c_gc[ci], deps);

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

void StepGraph::run(const std::function<Real()>& settle) {
    settle_ = &settle;
    bad_pred_.store(no_index);
    bad_corr_.store(no_index);
    graph_.run(run_exec_, ctx_.profiler, ctx_.graph_log);
}

} // namespace bookleaf::hydro
