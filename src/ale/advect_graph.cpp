/// \file advect_graph.cpp
/// Builds the ALEADVECT task graph (see advect_graph.hpp). Per-entity
/// writes are disjoint across concurrent tasks, every cross-entity
/// accumulation is a gather replaying the serial order (cells walk their
/// own faces in local face order, nodes walk ctx.corner_gather() rows),
/// the floored-corner count is a commutative integer sum, and the
/// kinematic BC fixup runs as one serial task exactly where the fork-join
/// sequence applies it.
///
/// Hazards and the edges that cover them:
///   cent  -> grad   : gradients read centroids of own + face-neighbours.
///   grad  -> flux   : fluxes read gradients/rho/ein of both face cells
///                     (centroids arrive transitively via grad's deps).
///   flux  -> cells  : RAW on mflux/eflux of own faces, and WAR — cells
///                     writes ein, which the fluxes of every incident
///                     face read. Both are the same face-block set.
///   flux  -> dual   : RAW on mflux of own faces.
///   dual  -> gather : RAW on cnmass/dflux of the incident cells.
///   gather-> write  : WAR — write updates u,v, which the gathers of
///                     every node block sharing a cell with this one read
///                     as upwind velocities (a symmetric coupling that
///                     includes the block itself, covering the RAW on the
///                     workspace accumulators).
///   write -> bc     : the serial BC fixup reads/writes u,v everywhere.
/// cells tasks are terminal (nothing in the graph reads cell_mass/ein
/// after them); the graph completes only when every task has run.

#include <algorithm>
#include <atomic>
#include <vector>

#include "ale/advect_graph.hpp"
#include "par/task_graph.hpp"
#include "util/log.hpp"

namespace bookleaf::ale {

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

AdvectGraph::AdvectGraph(const hydro::Context& ctx, hydro::State& s,
                         const Options& opts, Workspace& w)
    : run_exec_(ctx.exec), ctx_(ctx), s_(&s), opts_(&opts), w_(&w) {
    // Task bodies are serial block loops: null the pool so nothing they
    // reach can re-dispatch onto the pool the graph is scheduled on.
    ctx_.exec.pool = nullptr;
    ctx_.stepgraph = nullptr;
    ctx_.advectgraph = nullptr;
    const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::other);
    build();
}

void AdvectGraph::build() {
    const auto& mesh = *ctx_.mesh;
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();
    const Index n_faces = mesh.n_faces();

    const Index cell_bs = par::detail::resolve_task_block(run_exec_, n_cells);
    const Index node_bs = par::detail::resolve_task_block(run_exec_, n_nodes);
    const Index face_bs = par::detail::resolve_task_block(run_exec_, n_faces);
    const auto cells = make_blocks(n_cells, cell_bs);
    const auto nodes = make_blocks(n_nodes, node_bs);
    const auto faces = make_blocks(n_faces, face_bs);
    const int n_cb = static_cast<int>(cells.size());
    const int n_nb = static_cast<int>(nodes.size());
    const int n_fb = static_cast<int>(faces.size());
    const auto cb_of = [&](Index c) { return static_cast<int>(c / cell_bs); };
    const auto nb_of = [&](Index n) { return static_cast<int>(n / node_bs); };
    const auto fb_of = [&](Index f) { return static_cast<int>(f / face_bs); };

    // --- couplings -------------------------------------------------------
    // face_nb_cb[cb]:  cb plus the cell blocks of its face neighbours
    //                  (the gradient stencil).
    // faces_cb[cb]:    face blocks holding any face of a cell in cb.
    // cells_fb[fb]:    cell blocks holding either side of a face in fb.
    // touch_cb[nb]:    cell blocks whose corners a node in nb gathers
    //                  (ctx.corner_gather(): flat corner id / 4 = cell).
    // adj_nb[nb]:      node blocks sharing a cell with a node in nb — the
    //                  upwind-velocity stencil (symmetric, includes nb).
    std::vector<std::vector<int>> face_nb_cb(cells.size());
    std::vector<std::vector<int>> faces_cb(cells.size());
    std::vector<std::vector<int>> cells_fb(faces.size());
    std::vector<std::vector<int>> touch_cb(nodes.size());
    std::vector<std::vector<int>> adj_nb(nodes.size());

    for (int cb = 0; cb < n_cb; ++cb) {
        auto& nbs = face_nb_cb[static_cast<std::size_t>(cb)];
        auto& fbs = faces_cb[static_cast<std::size_t>(cb)];
        nbs.push_back(cb);
        for (Index c = cells[static_cast<std::size_t>(cb)].begin;
             c < cells[static_cast<std::size_t>(cb)].end; ++c) {
            for (int k = 0; k < corners_per_cell; ++k) {
                const Index nbr = mesh.neighbor(c, k);
                if (nbr != no_index) nbs.push_back(cb_of(nbr));
                fbs.push_back(fb_of(mesh.face_of(c, k)));
            }
        }
        sort_unique(nbs);
        sort_unique(fbs);
    }
    for (int fb = 0; fb < n_fb; ++fb) {
        auto& cbs = cells_fb[static_cast<std::size_t>(fb)];
        for (Index f = faces[static_cast<std::size_t>(fb)].begin;
             f < faces[static_cast<std::size_t>(fb)].end; ++f) {
            const auto& face = mesh.faces[static_cast<std::size_t>(f)];
            cbs.push_back(cb_of(face.left));
            if (face.right != no_index) cbs.push_back(cb_of(face.right));
        }
        sort_unique(cbs);
    }
    const auto& gather = ctx_.corner_gather();
    for (int nb = 0; nb < n_nb; ++nb) {
        auto& touch = touch_cb[static_cast<std::size_t>(nb)];
        auto& adj = adj_nb[static_cast<std::size_t>(nb)];
        for (Index n = nodes[static_cast<std::size_t>(nb)].begin;
             n < nodes[static_cast<std::size_t>(nb)].end; ++n) {
            for (const Index ck : gather.row(n)) {
                const Index c = ck / corners_per_cell;
                touch.push_back(cb_of(c));
                for (int m = 0; m < corners_per_cell; ++m)
                    adj.push_back(nb_of(mesh.cn(c, m)));
            }
        }
        adj.push_back(nb);
        sort_unique(touch);
        sort_unique(adj);
    }

    // --- tasks -----------------------------------------------------------
    using par::TaskId;
    auto link = [&](TaskId after, const std::vector<int>& blocks,
                    const std::vector<TaskId>& ids) {
        for (const int b : blocks)
            graph_.depend(after, ids[static_cast<std::size_t>(b)]);
    };

    std::vector<TaskId> cent(cells.size()), grad(cells.size());
    std::vector<TaskId> flux(faces.size());
    std::vector<TaskId> cellt(cells.size()), dual(cells.size());
    std::vector<TaskId> gat(nodes.size()), wri(nodes.size());

    for (int cb = 0; cb < n_cb; ++cb) {
        const Index b = cells[static_cast<std::size_t>(cb)].begin;
        const Index e = cells[static_cast<std::size_t>(cb)].end;
        cent[static_cast<std::size_t>(cb)] = graph_.add(
            [this, b, e] { aleadvect_centroids(ctx_, *s_, *w_, b, e); },
            false, util::Kernel::ale_gradients);
    }
    for (int cb = 0; cb < n_cb; ++cb) {
        const Index b = cells[static_cast<std::size_t>(cb)].begin;
        const Index e = cells[static_cast<std::size_t>(cb)].end;
        grad[static_cast<std::size_t>(cb)] = graph_.add([this, b, e] {
            aleadvect_gradients(ctx_, *s_, *opts_, *w_, b, e);
        }, false, util::Kernel::ale_gradients);
        link(grad[static_cast<std::size_t>(cb)],
             face_nb_cb[static_cast<std::size_t>(cb)], cent);
    }
    for (int fb = 0; fb < n_fb; ++fb) {
        const Index b = faces[static_cast<std::size_t>(fb)].begin;
        const Index e = faces[static_cast<std::size_t>(fb)].end;
        flux[static_cast<std::size_t>(fb)] = graph_.add(
            [this, b, e] { aleadvect_fluxes(ctx_, *s_, *opts_, *w_, b, e); },
            false, util::Kernel::ale_fluxes);
        link(flux[static_cast<std::size_t>(fb)],
             cells_fb[static_cast<std::size_t>(fb)], grad);
    }
    for (int cb = 0; cb < n_cb; ++cb) {
        const Index b = cells[static_cast<std::size_t>(cb)].begin;
        const Index e = cells[static_cast<std::size_t>(cb)].end;
        cellt[static_cast<std::size_t>(cb)] = graph_.add(
            [this, b, e] { aleadvect_cells(ctx_, *s_, *w_, b, e); },
            false, util::Kernel::ale_cells);
        link(cellt[static_cast<std::size_t>(cb)],
             faces_cb[static_cast<std::size_t>(cb)], flux);
        dual[static_cast<std::size_t>(cb)] = graph_.add([this, b, e] {
            aleadvect_dual(ctx_, *s_, *w_, b, e, floored_);
        }, false, util::Kernel::ale_dual);
        link(dual[static_cast<std::size_t>(cb)],
             faces_cb[static_cast<std::size_t>(cb)], flux);
    }
    for (int nb = 0; nb < n_nb; ++nb) {
        const Index b = nodes[static_cast<std::size_t>(nb)].begin;
        const Index e = nodes[static_cast<std::size_t>(nb)].end;
        gat[static_cast<std::size_t>(nb)] = graph_.add(
            [this, b, e] { aleadvect_node_gather(ctx_, *s_, *w_, b, e); },
            false, util::Kernel::ale_nodes);
        link(gat[static_cast<std::size_t>(nb)],
             touch_cb[static_cast<std::size_t>(nb)], dual);
    }
    for (int nb = 0; nb < n_nb; ++nb) {
        const Index b = nodes[static_cast<std::size_t>(nb)].begin;
        const Index e = nodes[static_cast<std::size_t>(nb)].end;
        wri[static_cast<std::size_t>(nb)] = graph_.add(
            [this, b, e] { aleadvect_node_write(ctx_, *s_, *w_, b, e); },
            false, util::Kernel::ale_nodes);
        link(wri[static_cast<std::size_t>(nb)],
             adj_nb[static_cast<std::size_t>(nb)], gat);
    }
    const TaskId bc = graph_.add([this] {
        const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::aleadvect);
        const util::ScopedTimer phase(*ctx_.profiler, util::Kernel::ale_nodes);
        hydro::apply_velocity_bc(*ctx_.mesh, ctx_.opts, s_->u, s_->v);
    }, false, util::Kernel::ale_nodes);
    for (const TaskId id : wri) graph_.depend(bc, id);
}

void AdvectGraph::run() {
    const auto& mesh = *ctx_.mesh;
    Workspace& w = *w_;
    // Size the workspace arrays the blocks write into. Every slot is
    // written by exactly one task (fluxes zero their own slots), so plain
    // resizes replace the fork-join phases' full-array assigns.
    {
        const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::aleadvect);
        const auto nc = static_cast<std::size_t>(mesh.n_cells());
        w.cx.resize(nc);
        w.cy.resize(nc);
        w.grad_rho_x.resize(nc);
        w.grad_rho_y.resize(nc);
        w.grad_e_x.resize(nc);
        w.grad_e_y.resize(nc);
        w.mflux.resize(static_cast<std::size_t>(mesh.n_faces()));
        w.eflux.resize(static_cast<std::size_t>(mesh.n_faces()));
        w.dflux.resize(nc * corners_per_cell);
        aleadvect_nodes_resize(mesh, w);
    }
    floored_.store(0);
    graph_.run(run_exec_, ctx_.profiler, ctx_.graph_log);
    if (floored_.load() > 0)
        util::log_warn("aleadvect: floored ", floored_.load(),
                       " negative corner masses");
}

} // namespace bookleaf::ale
