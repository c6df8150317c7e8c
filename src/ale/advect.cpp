/// \file advect.cpp
/// ALEADVECT: advection of the independent variables.
///
/// Cell quantities (mass, internal energy) use donor-cell fluxes with
/// limited linear reconstruction: least-squares gradients over face
/// neighbours, Barth-Jespersen slope limiting, and a final clamp of the
/// face value to the donor/acceptor range (monotonicity, van Leer [30]).
///
/// Corner masses follow the corner-transport picture: half of each face
/// flux is drawn from each of the face's two corners (an intra-node,
/// inter-cell transfer), and the median-dual fluxes
///   d_k = (out_{k+1} - out_{k-1}) / 4      (corner k -> corner k+1)
/// move mass between corners *within* the cell — these are the transfers
/// that change nodal masses. Nodal momentum rides the dual fluxes with
/// first-order upwind velocities, making the momentum remap exactly
/// conservative and dissipative.
///
/// The sweep is decomposed into phases (gradients -> fluxes -> cells ->
/// dual -> nodes), each per-entity independent, with every cross-entity
/// accumulation written as a *gather in ascending global order*: cells
/// gather their own four faces, nodes gather their incident corners via
/// ctx.corner_gather(). The distributed remap runs the same phases over
/// subranges with ghost exchanges in between and lands bitwise-identical
/// owned results; aleadvect() below is the full-mesh composition.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>

#include "ale/advect_graph.hpp"
#include "ale/remap.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace bookleaf::ale {

namespace {

/// Cell centroids (old geometry) for cells [begin, end) — writes every
/// listed slot of w.cx/w.cy unconditionally.
void centroids_core(const mesh::Mesh& mesh, const hydro::State& s,
                    Workspace& w, Index begin, Index end) {
    for (Index c = begin; c < end; ++c) {
        Real sx = 0, sy = 0;
        for (int k = 0; k < corners_per_cell; ++k) {
            const auto n = static_cast<std::size_t>(mesh.cn(c, k));
            sx += s.x[n];
            sy += s.y[n];
        }
        w.cx[static_cast<std::size_t>(c)] = Real(0.25) * sx;
        w.cy[static_cast<std::size_t>(c)] = Real(0.25) * sy;
    }
}

/// Least-squares gradient of the cell field `q` over face neighbours with
/// optional Barth-Jespersen limiting at the (old-geometry) face midpoints,
/// for cells [begin, end). Every listed slot of gx/gy is written (zero for
/// degenerate stencils), so callers need only size the arrays.
void gradients_core(const mesh::Mesh& mesh, const hydro::State& s,
                    const Workspace& w, std::span<const Real> q, bool limit,
                    Index begin, Index end, std::vector<Real>& gx,
                    std::vector<Real>& gy) {
    for (Index c = begin; c < end; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        gx[ci] = 0.0;
        gy[ci] = 0.0;
        Real axx = 0, axy = 0, ayy = 0, bx = 0, by = 0;
        Real qmin = q[ci], qmax = q[ci];
        int n_nb = 0;
        for (int k = 0; k < corners_per_cell; ++k) {
            const Index nb = mesh.neighbor(c, k);
            if (nb == no_index) continue;
            const auto nbi = static_cast<std::size_t>(nb);
            const Real dx = w.cx[nbi] - w.cx[ci];
            const Real dy = w.cy[nbi] - w.cy[ci];
            const Real dq = q[nbi] - q[ci];
            axx += dx * dx;
            axy += dx * dy;
            ayy += dy * dy;
            bx += dx * dq;
            by += dy * dq;
            qmin = std::min(qmin, q[nbi]);
            qmax = std::max(qmax, q[nbi]);
            ++n_nb;
        }
        if (n_nb < 2) continue;
        const Real det = axx * ayy - axy * axy;
        if (std::abs(det) < tiny) continue;
        Real gxc = (bx * ayy - by * axy) / det;
        Real gyc = (by * axx - bx * axy) / det;

        if (limit) {
            Real alpha = 1.0;
            for (int k = 0; k < corners_per_cell; ++k) {
                const auto a = static_cast<std::size_t>(mesh.cn(c, k));
                const auto b = static_cast<std::size_t>(
                    mesh.cn(c, (k + 1) % corners_per_cell));
                const Real fx = Real(0.5) * (s.x[a] + s.x[b]);
                const Real fy = Real(0.5) * (s.y[a] + s.y[b]);
                const Real proj =
                    gxc * (fx - w.cx[ci]) + gyc * (fy - w.cy[ci]);
                if (proj > tiny)
                    alpha = std::min(alpha, (qmax - q[ci]) / proj);
                else if (proj < -tiny)
                    alpha = std::min(alpha, (qmin - q[ci]) / proj);
            }
            alpha = std::clamp(alpha, Real(0.0), Real(1.0));
            gxc *= alpha;
            gyc *= alpha;
        }
        gx[ci] = gxc;
        gy[ci] = gyc;
    }
}

/// Donor-cell flux of one face (mass + energy from the limited linear
/// reconstruction). Writes only this face's mflux/eflux.
inline void flux_face(const mesh::Mesh& mesh, const hydro::State& s,
                      const Options& opts, Workspace& w, std::size_t fi) {
    const Real fvol = w.fvol[fi];
    if (std::abs(fvol) < tiny) return;
    const auto& f = mesh.faces[fi];
    if (f.right == no_index)
        throw util::Error(
            "aleadvect: boundary face swept volume (boundary node moved "
            "off its wall; check alegetmesh constraints)");
    const Index don = fvol > 0 ? f.left : f.right;
    const auto di = static_cast<std::size_t>(don);
    const auto li = static_cast<std::size_t>(f.left);
    const auto ri = static_cast<std::size_t>(f.right);

    const auto a = static_cast<std::size_t>(f.a);
    const auto b = static_cast<std::size_t>(f.b);
    const Real fx = Real(0.5) * (s.x[a] + s.x[b]);
    const Real fy = Real(0.5) * (s.y[a] + s.y[b]);
    const Real ddx = fx - w.cx[di];
    const Real ddy = fy - w.cy[di];

    Real rho_f = s.rho[di] + w.grad_rho_x[di] * ddx + w.grad_rho_y[di] * ddy;
    Real e_f = s.ein[di] + w.grad_e_x[di] * ddx + w.grad_e_y[di] * ddy;
    if (opts.limit) {
        rho_f = std::clamp(rho_f, std::min(s.rho[li], s.rho[ri]),
                           std::max(s.rho[li], s.rho[ri]));
        e_f = std::clamp(e_f, std::min(s.ein[li], s.ein[ri]),
                         std::max(s.ein[li], s.ein[ri]));
    }
    rho_f = std::max(rho_f, Real(0.0));

    w.mflux[fi] = fvol * rho_f;
    w.eflux[fi] = w.mflux[fi] * e_f;
}

} // namespace

void aleadvect_centroids(const hydro::Context& ctx, const hydro::State& s,
                         Workspace& w) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  ctx.mesh->n_cells());
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_gradients,
                                  ctx.mesh->n_cells());
    const auto& mesh = *ctx.mesh;
    const Index n_cells = mesh.n_cells();
    w.cx.assign(static_cast<std::size_t>(n_cells), 0.0);
    w.cy.assign(static_cast<std::size_t>(n_cells), 0.0);
    centroids_core(mesh, s, w, 0, n_cells);
}

void aleadvect_centroids(const hydro::Context& ctx, const hydro::State& s,
                         Workspace& w, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  end - begin);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_gradients,
                                  end - begin);
    centroids_core(*ctx.mesh, s, w, begin, end);
}

void aleadvect_gradients(const hydro::Context& ctx, const hydro::State& s,
                         const Options& opts, Workspace& w, Index n_cells) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  n_cells);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_gradients,
                                  n_cells);
    const auto& mesh = *ctx.mesh;
    const auto nc = static_cast<std::size_t>(mesh.n_cells());
    w.grad_rho_x.assign(nc, 0.0);
    w.grad_rho_y.assign(nc, 0.0);
    w.grad_e_x.assign(nc, 0.0);
    w.grad_e_y.assign(nc, 0.0);
    gradients_core(mesh, s, w, s.rho, opts.limit, 0, n_cells, w.grad_rho_x,
                   w.grad_rho_y);
    gradients_core(mesh, s, w, s.ein, opts.limit, 0, n_cells, w.grad_e_x,
                   w.grad_e_y);
}

void aleadvect_gradients(const hydro::Context& ctx, const hydro::State& s,
                         const Options& opts, Workspace& w, Index begin,
                         Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  end - begin);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_gradients,
                                  end - begin);
    const auto& mesh = *ctx.mesh;
    gradients_core(mesh, s, w, s.rho, opts.limit, begin, end, w.grad_rho_x,
                   w.grad_rho_y);
    gradients_core(mesh, s, w, s.ein, opts.limit, begin, end, w.grad_e_x,
                   w.grad_e_y);
}

void aleadvect_fluxes(const hydro::Context& ctx, const hydro::State& s,
                      const Options& opts, Workspace& w) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  ctx.mesh->n_faces());
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_fluxes,
                                  ctx.mesh->n_faces());
    const auto& mesh = *ctx.mesh;
    w.mflux.assign(mesh.faces.size(), 0.0);
    w.eflux.assign(mesh.faces.size(), 0.0);
    for (std::size_t fi = 0; fi < mesh.faces.size(); ++fi)
        flux_face(mesh, s, opts, w, fi);
}

void aleadvect_fluxes(const hydro::Context& ctx, const hydro::State& s,
                      const Options& opts, Workspace& w,
                      std::span<const Index> faces) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  static_cast<long long>(faces.size()));
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_fluxes,
                                  static_cast<long long>(faces.size()));
    const auto& mesh = *ctx.mesh;
    w.mflux.assign(mesh.faces.size(), 0.0);
    w.eflux.assign(mesh.faces.size(), 0.0);
    for (const Index fi : faces)
        flux_face(mesh, s, opts, w, static_cast<std::size_t>(fi));
}

void aleadvect_fluxes(const hydro::Context& ctx, const hydro::State& s,
                      const Options& opts, Workspace& w, Index begin,
                      Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  end - begin);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_fluxes,
                                  end - begin);
    const auto& mesh = *ctx.mesh;
    // Own-slot zeroing replaces the full-array assign of the whole-mesh
    // overload (flux_face leaves quiescent faces untouched).
    for (Index f = begin; f < end; ++f) {
        const auto fi = static_cast<std::size_t>(f);
        w.mflux[fi] = 0.0;
        w.eflux[fi] = 0.0;
        flux_face(mesh, s, opts, w, fi);
    }
}

void aleadvect_fluxes_chunk(const hydro::Context& ctx, const hydro::State& s,
                            const Options& opts, Workspace& w,
                            std::span<const Index> faces) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  static_cast<long long>(faces.size()));
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_fluxes,
                                  static_cast<long long>(faces.size()));
    const auto& mesh = *ctx.mesh;
    for (const Index fi : faces)
        flux_face(mesh, s, opts, w, static_cast<std::size_t>(fi));
}

namespace {

/// Cell-mesh advection sweep for cells [begin, end): apply the four face
/// fluxes to this cell's mass and energy (gather in local face order).
void cells_core(const mesh::Mesh& mesh, hydro::State& s, const Workspace& w,
                Index begin, Index end) {
    for (Index c = begin; c < end; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        Real dm = 0.0, de = 0.0;
        for (int k = 0; k < corners_per_cell; ++k) {
            const auto fi = static_cast<std::size_t>(mesh.face_of(c, k));
            const auto& f = mesh.faces[fi];
            if (f.left == c) {
                dm -= w.mflux[fi];
                de -= w.eflux[fi];
            } else {
                dm += w.mflux[fi];
                de += w.eflux[fi];
            }
        }
        const Real m_old = s.cell_mass[ci];
        const Real m_new = m_old + dm;
        const Real e_total = m_old * s.ein[ci] + de;
        s.cell_mass[ci] = m_new;
        s.ein[ci] = e_total / std::max(m_new, tiny);
    }
}

/// Dual-mesh advection sweep for cells [begin, end). Writes only this
/// range's dflux/cnmass corner slots; the floor count is a commutative
/// integer sum, so the atomic total equals the serial one at any schedule.
void dual_core(const mesh::Mesh& mesh, hydro::State& s, Workspace& w,
               Index begin, Index end, std::atomic<long>& floored) {
    for (Index c = begin; c < end; ++c) {
        // Signed outflow through each local face.
        std::array<Real, 4> out{};
        for (int k = 0; k < corners_per_cell; ++k) {
            const Index fid = mesh.face_of(c, k);
            const auto& f = mesh.faces[static_cast<std::size_t>(fid)];
            const Real mf = w.mflux[static_cast<std::size_t>(fid)];
            out[static_cast<std::size_t>(k)] = (f.left == c) ? mf : -mf;
        }
        // Median-dual fluxes d_k: corner k -> corner k+1.
        for (int k = 0; k < corners_per_cell; ++k)
            w.dflux[hydro::State::cidx(c, k)] =
                Real(0.25) * (out[static_cast<std::size_t>((k + 1) % 4)] -
                              out[static_cast<std::size_t>((k + 3) % 4)]);

        for (int k = 0; k < corners_per_cell; ++k) {
            const auto ki = hydro::State::cidx(c, k);
            s.cnmass[ki] += -Real(0.5) * out[static_cast<std::size_t>(k)] -
                            Real(0.5) * out[static_cast<std::size_t>((k + 3) % 4)] -
                            w.dflux[ki] +
                            w.dflux[hydro::State::cidx(c, (k + 3) % 4)];
            if (s.cnmass[ki] < 0.0) {
                s.cnmass[ki] = 0.0;
                floored.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }
}

} // namespace

void aleadvect_cells(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                     Index n_cells) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  n_cells);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_cells,
                                  n_cells);
    cells_core(*ctx.mesh, s, w, 0, n_cells);
}

void aleadvect_cells(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                     Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  end - begin);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_cells,
                                  end - begin);
    cells_core(*ctx.mesh, s, w, begin, end);
}

void aleadvect_dual(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                    Index n_cells) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  n_cells);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_dual,
                                  n_cells);
    const auto& mesh = *ctx.mesh;
    w.dflux.assign(static_cast<std::size_t>(mesh.n_cells()) * corners_per_cell,
                   0.0);
    std::atomic<long> floored{0};
    dual_core(mesh, s, w, 0, n_cells, floored);
    if (floored.load() > 0)
        util::log_warn("aleadvect: floored ", floored.load(),
                       " negative corner masses");
}

void aleadvect_dual(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                    Index begin, Index end, std::atomic<long>& floored) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  end - begin);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_dual,
                                  end - begin);
    dual_core(*ctx.mesh, s, w, begin, end, floored);
}

namespace {

/// The per-node dual-mesh remap gather. Accumulates into the workspace
/// only (the upwind velocities must be read unmodified until every listed
/// node is done): new nodal mass from the remapped corner masses, and the
/// momentum transfers of the incident cells' dual fluxes, all in the
/// corner-gather row order (ascending global corner id).
inline void node_gather(const mesh::Mesh& mesh, const hydro::State& s,
                        const util::Csr& corners, Workspace& w, Index n) {
    const auto ni = static_cast<std::size_t>(n);
    Real px = s.node_mass[ni] * s.u[ni];
    Real py = s.node_mass[ni] * s.v[ni];
    Real nm = 0.0;
    for (const Index ck : corners.row(n)) {
        const auto ki = static_cast<std::size_t>(ck);
        nm += s.cnmass[ki];
        const Index c = ck / corners_per_cell;
        const int k = ck % corners_per_cell;
        // This node is corner k of cell c. It sits on two dual faces:
        // d_k (k -> k+1, this node donates/receives as corner k) and
        // d_{k-1} (k-1 -> k, this node is the head).
        const Real dk = w.dflux[ki];
        if (dk != 0.0) {
            const auto nb = static_cast<std::size_t>(
                mesh.cn(c, (k + 1) % corners_per_cell));
            const auto don = dk > 0 ? ni : nb;
            px -= dk * s.u[don];
            py -= dk * s.v[don];
        }
        const int km = (k + 3) % corners_per_cell;
        const Real dm = w.dflux[hydro::State::cidx(c, km)];
        if (dm != 0.0) {
            const auto na = static_cast<std::size_t>(mesh.cn(c, km));
            const auto don = dm > 0 ? na : ni;
            px += dm * s.u[don];
            py += dm * s.v[don];
        }
    }
    w.pmx[ni] = px;
    w.pmy[ni] = py;
    w.nmass[ni] = nm;
}

inline void node_write(hydro::State& s, const Workspace& w, Index n) {
    const auto ni = static_cast<std::size_t>(n);
    s.node_mass[ni] = w.nmass[ni];
    if (w.nmass[ni] > tiny) {
        s.u[ni] = w.pmx[ni] / w.nmass[ni];
        s.v[ni] = w.pmy[ni] / w.nmass[ni];
    } else {
        s.u[ni] = 0.0;
        s.v[ni] = 0.0;
    }
}

void nodes_resize(const mesh::Mesh& mesh, Workspace& w) {
    const auto nn = static_cast<std::size_t>(mesh.n_nodes());
    w.pmx.assign(nn, 0.0);
    w.pmy.assign(nn, 0.0);
    w.nmass.assign(nn, 0.0);
}

} // namespace

void aleadvect_nodes(const hydro::Context& ctx, hydro::State& s, Workspace& w) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  ctx.mesh->n_nodes());
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_nodes,
                                  ctx.mesh->n_nodes());
    const auto& mesh = *ctx.mesh;
    const auto& corners = ctx.corner_gather();
    nodes_resize(mesh, w);
    for (Index n = 0; n < mesh.n_nodes(); ++n)
        node_gather(mesh, s, corners, w, n);
    for (Index n = 0; n < mesh.n_nodes(); ++n) node_write(s, w, n);
    hydro::apply_velocity_bc(mesh, ctx.opts, s.u, s.v);
}

void aleadvect_nodes(const hydro::Context& ctx, hydro::State& s, Workspace& w,
                     std::span<const Index> nodes) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  static_cast<long long>(nodes.size()));
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_nodes,
                                  static_cast<long long>(nodes.size()));
    const auto& mesh = *ctx.mesh;
    const auto& corners = ctx.corner_gather();
    nodes_resize(mesh, w);
    for (const Index n : nodes) node_gather(mesh, s, corners, w, n);
    for (const Index n : nodes) node_write(s, w, n);
    hydro::apply_velocity_bc(mesh, ctx.opts, s.u, s.v);
}

void aleadvect_node_gather(const hydro::Context& ctx, const hydro::State& s,
                           Workspace& w, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  end - begin);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_nodes,
                                  end - begin);
    const auto& corners = ctx.corner_gather();
    for (Index n = begin; n < end; ++n)
        node_gather(*ctx.mesh, s, corners, w, n);
}

void aleadvect_node_write(const hydro::Context& ctx, hydro::State& s,
                          Workspace& w, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect,
                                  end - begin);
    const util::ScopedTimer phase(*ctx.profiler, util::Kernel::ale_nodes,
                                  end - begin);
    for (Index n = begin; n < end; ++n) node_write(s, w, n);
}

void aleadvect_nodes_resize(const mesh::Mesh& mesh, Workspace& w) {
    nodes_resize(mesh, w);
}

void aleadvect(const hydro::Context& ctx, hydro::State& s, const Options& opts,
               Workspace& w) {
    // Task-graph schedule: the same phases as (kernel, block) tasks with
    // footprint-derived dependencies — a cell block's fluxes start as soon
    // as the gradients they read are ready. The driver builds the graph
    // once and re-runs it every remap; without one the fork-join sequence
    // below runs. Bitwise identical either way (see advect_graph.hpp).
    if (ctx.advectgraph != nullptr &&
        ctx.exec.schedule == par::Schedule::taskgraph &&
        ctx.advectgraph->binds(s, opts, w)) {
        ctx.advectgraph->run();
        return;
    }
    aleadvect_centroids(ctx, s, w);
    aleadvect_gradients(ctx, s, opts, w, ctx.mesh->n_cells());
    aleadvect_fluxes(ctx, s, opts, w);
    aleadvect_cells(ctx, s, w, ctx.mesh->n_cells());
    aleadvect_dual(ctx, s, w, ctx.mesh->n_cells());
    aleadvect_nodes(ctx, s, w);
}

} // namespace bookleaf::ale
