/// \file advect_graph.cpp
/// Builds the ALEADVECT task graph (see advect_graph.hpp). Per-entity
/// writes are disjoint across concurrent tasks, every cross-entity
/// accumulation is a gather replaying the serial order (cells walk their
/// own faces in local face order, nodes walk the mesh's node_corners rows),
/// the floored-corner count is a commutative integer sum, and the
/// kinematic BC fixup runs as one serial task after every node write.
///
/// Hazards and the edges that cover them:
///   cent  -> grad   : gradients read centroids of own + face-neighbours.
///   grad  -> flux   : fluxes read gradients/rho/ein of both face cells
///                     (centroids arrive transitively via grad's deps).
///   flux  -> cells  : RAW on mflux/eflux of own faces, and WAR — cells
///                     writes ein, which the fluxes of every incident
///                     face read. Both are the same face-chunk set.
///   flux  -> dual   : RAW on mflux of own faces.
///   dual  -> gather : RAW on cnmass/dflux of the incident cells.
///   gather-> write  : WAR — write updates u,v, which the gathers of
///                     every node block sharing a cell with this one read
///                     as upwind velocities (a symmetric coupling that
///                     includes the block itself, covering the RAW on the
///                     workspace accumulators).
///   write -> bc     : the serial BC fixup reads/writes u,v everywhere.
/// On a rank, the halo edges of advect_graph.hpp join these. A gradient
/// task reads the ein of ghost face-neighbours, which the result finish
/// overwrites; it is upstream of that finish through its own cells' flux
/// chunks, their cells task and the result post.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "ale/advect_graph.hpp"
#include "par/blocks.hpp"
#include "util/log.hpp"

namespace bookleaf::ale {

AdvectGraph::AdvectGraph(const hydro::Context& ctx, hydro::State& s,
                         const Options& opts, Workspace& w,
                         std::optional<AdvectHalo> halo)
    : run_exec_(ctx.exec), ctx_(ctx), s_(&s), opts_(&opts), w_(&w) {
    // Task bodies are serial block loops: null the pool so nothing they
    // reach can re-dispatch onto the pool the graph is scheduled on.
    ctx_.exec.pool = nullptr;
    const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::other);
    if (halo) {
        post_gradients_ = std::move(halo->post_gradients);
        finish_gradients_ = std::move(halo->finish_gradients);
        post_results_ = std::move(halo->post_results);
        finish_results_ = std::move(halo->finish_results);
    }
    build(halo ? &*halo : nullptr);
}

void AdvectGraph::build(const AdvectHalo* halo) {
    const auto& mesh = *ctx_.mesh;
    const Index n_cells = mesh.n_cells();
    const Index n_faces = mesh.n_faces();
    const Index n_owned = halo != nullptr ? halo->n_owned_cells : n_cells;
    n_owned_cells_ = n_owned;

    // The face order, ghost-free faces first, and the node list.
    const auto ghost_side = [&](Index f) {
        const auto& face = mesh.faces[static_cast<std::size_t>(f)];
        return face.left >= n_owned ||
               (face.right != no_index && face.right >= n_owned);
    };
    for (Index f = 0; f < n_faces; ++f)
        if (!ghost_side(f)) faces_.push_back(f);
    const auto n_free = static_cast<Index>(faces_.size());
    for (Index f = 0; f < n_faces; ++f)
        if (ghost_side(f)) faces_.push_back(f);
    if (halo != nullptr) {
        nodes_.assign(halo->nodes.begin(), halo->nodes.end());
    } else {
        nodes_.resize(static_cast<std::size_t>(mesh.n_nodes()));
        std::iota(nodes_.begin(), nodes_.end(), Index{0});
    }
    const auto n_listed = static_cast<Index>(nodes_.size());

    const Index cell_bs = par::detail::resolve_task_block(run_exec_, n_cells);
    const Index face_bs = par::detail::resolve_task_block(run_exec_, n_faces);
    const Index node_bs = par::detail::resolve_task_block(run_exec_, n_listed);
    // Owned blocks are the leading cell blocks, the last one cut at
    // n_owned: cb_of names both.
    const auto cells = par::make_blocks(n_cells, cell_bs);
    const auto owned = par::make_blocks(n_owned, cell_bs);
    const auto chunks = par::make_blocks(n_faces, face_bs);
    const auto nodes = par::make_blocks(n_listed, node_bs);
    const int n_cb = static_cast<int>(cells.size());
    const int n_ob = static_cast<int>(owned.size());
    const int n_fb = static_cast<int>(chunks.size());
    const int n_nb = static_cast<int>(nodes.size());
    const auto cb_of = [&](Index c) { return static_cast<int>(c / cell_bs); };
    std::vector<int> fb_of(static_cast<std::size_t>(n_faces));
    for (Index i = 0; i < n_faces; ++i)
        fb_of[static_cast<std::size_t>(faces_[static_cast<std::size_t>(i)])] =
            static_cast<int>(i / face_bs);
    std::vector<int> nb_of(static_cast<std::size_t>(mesh.n_nodes()), -1);
    for (Index i = 0; i < n_listed; ++i)
        nb_of[static_cast<std::size_t>(nodes_[static_cast<std::size_t>(i)])] =
            static_cast<int>(i / node_bs);
    const auto owned_of = [&](int ob) {
        return owned[static_cast<std::size_t>(ob)];
    };
    const auto span_of = [](const std::vector<Index>& list,
                            par::BlockRange r) {
        return std::span<const Index>(list).subspan(
            static_cast<std::size_t>(r.begin),
            static_cast<std::size_t>(r.end - r.begin));
    };
    const auto chunk_of = [&](int fb) {
        return span_of(faces_, chunks[static_cast<std::size_t>(fb)]);
    };
    const auto nodes_of = [&](int nb) {
        return span_of(nodes_, nodes[static_cast<std::size_t>(nb)]);
    };
    const auto frontier = [&](int fb) {
        return chunks[static_cast<std::size_t>(fb)].end > n_free;
    };

    // --- couplings -------------------------------------------------------
    // face_nb_cb[ob]: ob plus the cell blocks of its face neighbours
    //                 (the gradient stencil).
    // faces_ob[ob]:   face chunks holding any face of a cell in ob.
    // owned_fb[fb]:   owned blocks holding either side of a face in fb.
    // touch_ob[nb]:   owned blocks whose corners a node in nb gathers
    //                 (ctx.mesh->node_corners: flat corner id / 4 = cell).
    // adj_nb[nb]:     listed node blocks sharing a cell with a node in nb
    //                 — the upwind-velocity stencil (symmetric, includes
    //                 nb).
    // ghost_nb[nb]:   nb gathers a ghost cell's corner.
    const auto face_nb_cb = par::coupling(n_ob, n_cb, [&](int ob, auto add) {
        add(ob);
        for (Index c = owned_of(ob).begin; c < owned_of(ob).end; ++c)
            for (int k = 0; k < corners_per_cell; ++k) {
                const Index nbr = mesh.neighbor(c, k);
                if (nbr != no_index) add(cb_of(nbr));
            }
    });
    const auto faces_ob = par::coupling(n_ob, n_fb, [&](int ob, auto add) {
        for (Index c = owned_of(ob).begin; c < owned_of(ob).end; ++c)
            for (int k = 0; k < corners_per_cell; ++k)
                add(fb_of[static_cast<std::size_t>(mesh.face_of(c, k))]);
    });
    const auto owned_fb = par::coupling(n_fb, n_ob, [&](int fb, auto add) {
        for (const Index f : chunk_of(fb)) {
            const auto& face = mesh.faces[static_cast<std::size_t>(f)];
            if (face.left < n_owned) add(cb_of(face.left));
            if (face.right != no_index && face.right < n_owned)
                add(cb_of(face.right));
        }
    });
    const auto& gather = ctx_.mesh->node_corners;
    std::vector<std::uint8_t> ghost_nb(nodes.size(), 0);
    const auto touch_ob = par::coupling(n_nb, n_ob, [&](int nb, auto add) {
        for (const Index n : nodes_of(nb))
            for (const Index ck : gather.row(n)) {
                const Index c = ck / corners_per_cell;
                if (c < n_owned)
                    add(cb_of(c));
                else
                    ghost_nb[static_cast<std::size_t>(nb)] = 1;
            }
    });
    const auto adj_nb = par::coupling(n_nb, n_nb, [&](int nb, auto add) {
        add(nb);
        for (const Index n : nodes_of(nb))
            for (const Index ck : gather.row(n))
                for (int m = 0; m < corners_per_cell; ++m) {
                    const int other = nb_of[static_cast<std::size_t>(
                        mesh.cn(ck / corners_per_cell, m))];
                    if (other >= 0) add(other);
                }
    });

    // --- tasks -----------------------------------------------------------
    using par::TaskId;
    auto link = [&](TaskId after, const std::vector<int>& blocks,
                    const std::vector<TaskId>& ids) {
        for (const int b : blocks)
            graph_.depend(after, ids[static_cast<std::size_t>(b)]);
    };
    auto link_all = [&](TaskId after, const std::vector<TaskId>& ids) {
        for (const TaskId id : ids) graph_.depend(after, id);
    };

    std::vector<TaskId> cent(cells.size()), grad(owned.size());
    std::vector<TaskId> flux(chunks.size());
    std::vector<TaskId> cellt(owned.size()), dual(owned.size());
    std::vector<TaskId> gat(nodes.size()), wri(nodes.size());

    for (int cb = 0; cb < n_cb; ++cb) {
        const Index b = cells[static_cast<std::size_t>(cb)].begin;
        const Index e = cells[static_cast<std::size_t>(cb)].end;
        cent[static_cast<std::size_t>(cb)] = graph_.add(
            [this, b, e] { aleadvect_centroids(ctx_, *s_, *w_, b, e); },
            false, util::Kernel::ale_gradients);
    }
    for (int ob = 0; ob < n_ob; ++ob) {
        const Index b = owned_of(ob).begin, e = owned_of(ob).end;
        grad[static_cast<std::size_t>(ob)] = graph_.add([this, b, e] {
            aleadvect_gradients(ctx_, *s_, *opts_, *w_, b, e);
        }, false, util::Kernel::ale_gradients);
        link(grad[static_cast<std::size_t>(ob)],
             face_nb_cb[static_cast<std::size_t>(ob)], cent);
    }

    // The gradient exchange: the post as soon as every gradient is in,
    // the finish after every ghost-free flux chunk (lower ids) and before
    // the chunks it releases.
    TaskId grads_posted = -1, grads_in = -1;
    if (halo != nullptr) {
        grads_posted = graph_.add([this] { post_gradients_(); },
                                  /*main_thread=*/true,
                                  util::Kernel::halo_pack);
        link_all(grads_posted, grad);
    }
    const auto add_gradient_finish = [&] {
        if (halo == nullptr || grads_in >= 0) return;
        grads_in = graph_.add([this] { finish_gradients_(); },
                              /*main_thread=*/true, util::Kernel::halo);
        graph_.depend(grads_in, grads_posted);
    };
    for (int fb = 0; fb < n_fb; ++fb) {
        if (frontier(fb)) add_gradient_finish();
        const auto chunk = chunk_of(fb);
        flux[static_cast<std::size_t>(fb)] = graph_.add(
            [this, chunk] { aleadvect_fluxes(ctx_, *s_, *opts_, *w_, chunk); },
            false, util::Kernel::ale_fluxes);
        link(flux[static_cast<std::size_t>(fb)],
             owned_fb[static_cast<std::size_t>(fb)], grad);
        if (frontier(fb) && grads_in >= 0)
            graph_.depend(flux[static_cast<std::size_t>(fb)], grads_in);
    }
    add_gradient_finish(); // a rank without ghost-side faces finishes too
    for (int ob = 0; ob < n_ob; ++ob) {
        const Index b = owned_of(ob).begin, e = owned_of(ob).end;
        cellt[static_cast<std::size_t>(ob)] = graph_.add(
            [this, b, e] { aleadvect_cells(ctx_, *s_, *w_, b, e); },
            false, util::Kernel::ale_cells);
        link(cellt[static_cast<std::size_t>(ob)],
             faces_ob[static_cast<std::size_t>(ob)], flux);
        dual[static_cast<std::size_t>(ob)] = graph_.add([this, b, e] {
            aleadvect_dual(ctx_, *s_, *w_, b, e, floored_);
        }, false, util::Kernel::ale_dual);
        link(dual[static_cast<std::size_t>(ob)],
             faces_ob[static_cast<std::size_t>(ob)], flux);
    }

    // The result exchange: the post after every cells and dual task, the
    // finish after every gather that does not wait for it.
    TaskId results_posted = -1;
    if (halo != nullptr) {
        results_posted = graph_.add([this] { post_results_(); },
                                    /*main_thread=*/true,
                                    util::Kernel::halo_pack);
        link_all(results_posted, cellt);
        link_all(results_posted, dual);
    }
    for (int nb = 0; nb < n_nb; ++nb) {
        const auto list = nodes_of(nb);
        gat[static_cast<std::size_t>(nb)] = graph_.add(
            [this, list] { aleadvect_node_gather(ctx_, *s_, *w_, list); },
            false, util::Kernel::ale_nodes);
        link(gat[static_cast<std::size_t>(nb)],
             touch_ob[static_cast<std::size_t>(nb)], dual);
    }
    if (halo != nullptr) {
        const TaskId results_in = graph_.add([this] { finish_results_(); },
                                             /*main_thread=*/true,
                                             util::Kernel::halo);
        graph_.depend(results_in, results_posted);
        for (int fb = 0; fb < n_fb; ++fb)
            if (frontier(fb))
                graph_.depend(results_in, flux[static_cast<std::size_t>(fb)]);
        for (int nb = 0; nb < n_nb; ++nb)
            if (ghost_nb[static_cast<std::size_t>(nb)])
                graph_.depend(gat[static_cast<std::size_t>(nb)], results_in);
    }
    for (int nb = 0; nb < n_nb; ++nb) {
        const auto list = nodes_of(nb);
        wri[static_cast<std::size_t>(nb)] = graph_.add(
            [this, list] { aleadvect_node_write(ctx_, *s_, *w_, list); },
            false, util::Kernel::ale_nodes);
        link(wri[static_cast<std::size_t>(nb)],
             adj_nb[static_cast<std::size_t>(nb)], gat);
    }
    const TaskId bc = graph_.add([this] {
        const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::aleadvect);
        const util::ScopedTimer phase(*ctx_.profiler, util::Kernel::ale_nodes);
        hydro::apply_velocity_bc(*ctx_.mesh, ctx_.opts, s_->u, s_->v);
    }, false, util::Kernel::ale_nodes);
    link_all(bc, wri);
}

void AdvectGraph::run() {
    const auto& mesh = *ctx_.mesh;
    Workspace& w = *w_;
    // Size the workspace arrays the blocks write into. Every slot a task
    // reads is written first by exactly one task or exchange (the flux
    // chunks zero their own slots), so plain resizes suffice. The ghost
    // dflux tail is zeroed for any ghost corner the result exchange does
    // not cover: the node gathers read it as the serial run's zero.
    {
        const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::aleadvect);
        const auto nc = static_cast<std::size_t>(mesh.n_cells());
        const auto nn = static_cast<std::size_t>(mesh.n_nodes());
        for (auto* field : {&w.cx, &w.cy, &w.grad_rho_x, &w.grad_rho_y,
                            &w.grad_e_x, &w.grad_e_y})
            field->resize(nc);
        w.mflux.resize(static_cast<std::size_t>(mesh.n_faces()));
        w.eflux.resize(static_cast<std::size_t>(mesh.n_faces()));
        w.dflux.resize(nc * corners_per_cell);
        std::fill(w.dflux.begin() + static_cast<std::ptrdiff_t>(
                                        hydro::State::cidx(n_owned_cells_, 0)),
                  w.dflux.end(), 0.0);
        w.pmx.resize(nn);
        w.pmy.resize(nn);
        w.nmass.resize(nn);
    }
    floored_.store(0);
    graph_.run(run_exec_, ctx_.profiler, ctx_.graph_log);
    if (floored_.load() > 0)
        util::log_warn("aleadvect: floored ", floored_.load(),
                       " negative corner masses");
}

} // namespace bookleaf::ale
