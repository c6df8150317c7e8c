/// \file fluxvol.cpp
/// ALEGETFVOL: signed swept volume per face. For face (a, b) with left
/// cell L, the shoelace area of the quad (a_old, b_old, b_new, a_new) is
/// the volume transferred from L to its right neighbour:
///   V_L(target) - V_L(old) = sum over L's faces of (-fvol)   [exact].
/// The identity holds to round-off because both sides are shoelace sums,
/// which is what keeps the remap volume-conservative.
///
/// Faces are independent, so the sweep runs as a par::for_each and the
/// subrange overload (the distributed remap's owned-incident face list)
/// is bitwise identical per face to the full sweep. The boundary
/// no-sweep check applies only to faces in the evaluated set — which is
/// the point of the subrange form: a ghost cell's far face is locally
/// boundary but globally interior (phantom), and its nodes legitimately
/// move.

#include <atomic>
#include <cmath>

#include "ale/remap.hpp"
#include "util/error.hpp"

namespace bookleaf::ale {

namespace {

/// Swept volume of face `f`. A boundary face that sweeps is recorded in
/// `bad_face` (the caller throws after the loop).
inline void fvol_face(const mesh::Mesh& mesh, const hydro::State& s,
                      Workspace& w, Index f, std::atomic<Index>& bad_face) {
    const auto fi = static_cast<std::size_t>(f);
    const auto& face = mesh.faces[fi];
    const auto a = static_cast<std::size_t>(face.a);
    const auto b = static_cast<std::size_t>(face.b);
    // Shoelace of (a_old, b_old, b_new, a_new).
    const Real x0 = s.x[a], y0 = s.y[a];
    const Real x1 = s.x[b], y1 = s.y[b];
    const Real x2 = w.xt[b], y2 = w.yt[b];
    const Real x3 = w.xt[a], y3 = w.yt[a];
    Real fvol = Real(0.5) * ((x0 * y1 - x1 * y0) + (x1 * y2 - x2 * y1) +
                             (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3));
    if (face.right == no_index) {
        // Boundary nodes slide along straight walls, so the swept area
        // is zero up to round-off (products like x*y_wall cancel only
        // to machine precision for walls away from coordinate zero).
        // Snap the residue; anything larger means a node actually left
        // its wall.
        const Real len2 = (x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0);
        if (std::abs(fvol) > Real(1e-10) * (len2 + tiny))
            par::record_lowest(bad_face, f);
        fvol = 0.0;
    }
    w.fvol[fi] = fvol;
}

void check_no_sweep(const std::atomic<Index>& bad_face) {
    if (bad_face.load() != no_index)
        throw util::Error(
            "alegetfvol: boundary face swept volume (node left its wall)");
}

} // namespace

void alegetfvol(const hydro::Context& ctx, const hydro::State& s, Workspace& w) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::alegetfvol,
                                  ctx.mesh->n_faces());
    const auto& mesh = *ctx.mesh;
    w.fvol.resize(mesh.faces.size()); // every slot is written below
    std::atomic<Index> bad_face{no_index};
    par::for_each(ctx.exec, mesh.n_faces(),
                  [&](Index f) { fvol_face(mesh, s, w, f, bad_face); });
    check_no_sweep(bad_face);
}

void alegetfvol(const hydro::Context& ctx, const hydro::State& s, Workspace& w,
                std::span<const Index> faces) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::alegetfvol,
                                  static_cast<long long>(faces.size()));
    const auto& mesh = *ctx.mesh;
    w.fvol.assign(mesh.faces.size(), 0.0);
    std::atomic<Index> bad_face{no_index};
    par::for_each(ctx.exec, static_cast<Index>(faces.size()), [&](Index i) {
        fvol_face(mesh, s, w, faces[static_cast<std::size_t>(i)], bad_face);
    });
    check_no_sweep(bad_face);
}

} // namespace bookleaf::ale
