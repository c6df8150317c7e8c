// Tests for the ALE remap: swept-volume identities, exact conservation,
// monotonicity, smoothing behaviour, Eulerian round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ale/remap.hpp"
#include "geom/geometry.hpp"
#include "hydro/kernels.hpp"
#include "mesh/generator.hpp"
#include "par/thread_pool.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace ba = bookleaf::ale;
namespace bh = bookleaf::hydro;
namespace bm = bookleaf::mesh;
namespace be = bookleaf::eos;
namespace bg = bookleaf::geom;
namespace bp = bookleaf::par;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

namespace {

struct Rig {
    bm::Mesh mesh;
    be::MaterialTable materials;
    bh::State state;
    bu::Profiler profiler;
    bh::Context ctx;
    ba::Workspace work;

    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    explicit Rig(bm::RectSpec spec, Real gamma = 1.4, Real rho = 1.0,
                 Real ein = 2.5) {
        mesh = bm::generate_rect(spec);
        materials.materials = {be::IdealGas{gamma}};
        state = bh::allocate(mesh);
        std::fill(state.rho.begin(), state.rho.end(), rho);
        std::fill(state.ein.begin(), state.ein.end(), ein);
        bh::initialise(mesh, materials, state);
        ctx.mesh = &mesh;
        ctx.materials = &materials;
        ctx.profiler = &profiler;
    }

    /// Displace interior nodes by (dx, dy) (a fake Lagrangian move) and
    /// rebuild a consistent state at the new positions.
    void shift_interior(Real dx, Real dy) {
        for (Index n = 0; n < mesh.n_nodes(); ++n) {
            const auto ni = static_cast<std::size_t>(n);
            if (mesh.node_bc[ni] != bm::bc::none) continue;
            state.x[ni] += dx;
            state.y[ni] += dy;
        }
        refresh_geometry();
    }

    /// Like shift_interior but keyed on coordinates (for meshes generated
    /// without wall masks): only nodes strictly inside the unit square move.
    void shift_strict_interior(Real dx, Real dy) {
        for (Index n = 0; n < mesh.n_nodes(); ++n) {
            const auto ni = static_cast<std::size_t>(n);
            const Real px = mesh.x[ni], py = mesh.y[ni];
            if (px < 1e-9 || px > 1 - 1e-9 || py < 1e-9 || py > 1 - 1e-9)
                continue;
            state.x[ni] += dx;
            state.y[ni] += dy;
        }
        refresh_geometry();
    }

    void refresh_geometry() {
        state.x0 = state.x;
        state.y0 = state.y;
        bh::getgeom(ctx, state, state.u, state.v, 0.0);
        bh::getrho(ctx, state);
        bh::getpc(ctx, state);
    }
};

} // namespace

TEST(AleStep, LagrangeModeIsNoOp) {
    Rig rig({.nx = 4, .ny = 4});
    const auto x_before = rig.state.x;
    const auto rho_before = rig.state.rho;
    ba::Options opts; // lagrange
    ba::alestep(rig.ctx, rig.state, opts, rig.work);
    EXPECT_EQ(rig.state.x, x_before);
    EXPECT_EQ(rig.state.rho, rho_before);
}

TEST(AleGetFvol, SweptVolumesMatchVolumeChangeExactly) {
    // The defining identity: V(target) - V(old) = -sum_L fvol + sum_R fvol
    // per cell, to round-off.
    Rig rig({.nx = 5, .ny = 4});
    rig.shift_interior(0.012, -0.008);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    ba::alegetmesh(rig.ctx, rig.state, opts, rig.work);
    ba::alegetfvol(rig.ctx, rig.state, rig.work);

    for (Index c = 0; c < rig.mesh.n_cells(); ++c) {
        Real gain = 0.0;
        for (int k = 0; k < 4; ++k) {
            const Index fid = rig.mesh.face_of(c, k);
            const auto& f = rig.mesh.faces[static_cast<std::size_t>(fid)];
            const Real fv = rig.work.fvol[static_cast<std::size_t>(fid)];
            gain += (f.left == c) ? -fv : fv;
        }
        // Target volume:
        bg::QuadPts q;
        for (int k = 0; k < 4; ++k) {
            const auto n = static_cast<std::size_t>(rig.mesh.cn(c, k));
            q.x[static_cast<std::size_t>(k)] = rig.work.xt[n];
            q.y[static_cast<std::size_t>(k)] = rig.work.yt[n];
        }
        const Real v_target = bg::quad_area(q);
        EXPECT_NEAR(v_target - rig.state.volume[static_cast<std::size_t>(c)],
                    gain, 1e-14)
            << "cell " << c;
    }
}

TEST(AleGetFvol, BoundaryFacesSweepNothing) {
    Rig rig({.nx = 4, .ny = 4});
    rig.shift_interior(0.01, 0.01);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    ba::alegetmesh(rig.ctx, rig.state, opts, rig.work);
    ba::alegetfvol(rig.ctx, rig.state, rig.work);
    for (std::size_t fi = 0; fi < rig.mesh.faces.size(); ++fi)
        if (rig.mesh.faces[fi].right == bookleaf::no_index) {
            EXPECT_NEAR(rig.work.fvol[fi], 0.0, 1e-15);
        }
}

TEST(AleStep, EulerianRemapOfUniformStateIsExact) {
    // Free-stream preservation: a gas that is *spatially* uniform on a
    // distorted mesh must remap to the regular mesh without disturbance.
    // (Note: displacing nodes of an already-initialised Lagrangian state
    // would physically compress cells — so initialise at the displaced
    // geometry instead.)
    Rig rig({.nx = 6, .ny = 6});
    for (Index n = 0; n < rig.mesh.n_nodes(); ++n) {
        const auto ni = static_cast<std::size_t>(n);
        if (rig.mesh.node_bc[ni] != bm::bc::none) continue;
        rig.state.x[ni] += 0.01;
        rig.state.y[ni] -= 0.01;
    }
    std::fill(rig.state.rho.begin(), rig.state.rho.end(), 1.0);
    std::fill(rig.state.ein.begin(), rig.state.ein.end(), 2.5);
    bh::initialise(rig.mesh, rig.materials, rig.state);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    ba::alestep(rig.ctx, rig.state, opts, rig.work);
    // Nodes restored exactly; uniform state untouched.
    for (Index n = 0; n < rig.mesh.n_nodes(); ++n) {
        const auto ni = static_cast<std::size_t>(n);
        EXPECT_DOUBLE_EQ(rig.state.x[ni], rig.mesh.x[ni]);
        EXPECT_DOUBLE_EQ(rig.state.y[ni], rig.mesh.y[ni]);
    }
    for (Index c = 0; c < rig.state.n_cells(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        EXPECT_NEAR(rig.state.rho[ci], 1.0, 1e-12);
        EXPECT_NEAR(rig.state.ein[ci], 2.5, 1e-12);
    }
}

TEST(AleStep, ConservesMassEnergyMomentumExactly) {
    // Momentum conservation needs no wall masks (the BC re-application
    // would zero wall-normal components); generate the mesh without them
    // and move only strictly-interior nodes.
    Rig rig({.nx = 8, .ny = 8, .reflective_walls = false}, 1.4, 1.0, 2.0);
    for (Index c = 0; c < rig.mesh.n_cells(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        rig.state.rho[ci] = 1.0 + 0.5 * std::sin(0.9 * c);
        rig.state.ein[ci] = 2.0 + 0.7 * std::cos(1.7 * c);
    }
    bh::initialise(rig.mesh, rig.materials, rig.state);
    bu::SplitMix64 rng(3);
    for (auto& u : rig.state.u) u = rng.uniform(-0.3, 0.3);
    for (auto& v : rig.state.v) v = rng.uniform(-0.3, 0.3);
    rig.shift_strict_interior(0.008, 0.006);

    const auto before = bh::totals(rig.mesh, rig.state);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    ba::alestep(rig.ctx, rig.state, opts, rig.work);
    const auto after = bh::totals(rig.mesh, rig.state);

    EXPECT_NEAR(after.mass, before.mass, 1e-13 * before.mass);
    EXPECT_NEAR(after.internal_energy, before.internal_energy,
                1e-12 * std::abs(before.internal_energy));
    EXPECT_NEAR(after.momentum_x, before.momentum_x, 1e-12);
    EXPECT_NEAR(after.momentum_y, before.momentum_y, 1e-12);
    // Upwind momentum remap dissipates kinetic energy.
    EXPECT_LE(after.kinetic_energy, before.kinetic_energy + 1e-12);
}

TEST(AleStep, CornerMassesStayConsistentWithCellMass) {
    Rig rig({.nx = 6, .ny = 5});
    for (Index c = 0; c < rig.mesh.n_cells(); ++c)
        rig.state.rho[static_cast<std::size_t>(c)] = 1.0 + 0.1 * (c % 4);
    bh::initialise(rig.mesh, rig.materials, rig.state);
    rig.shift_interior(0.01, 0.0);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    ba::alestep(rig.ctx, rig.state, opts, rig.work);
    for (Index c = 0; c < rig.mesh.n_cells(); ++c) {
        Real sum = 0.0;
        for (int k = 0; k < 4; ++k) sum += rig.state.cnmass[bh::State::cidx(c, k)];
        EXPECT_NEAR(sum, rig.state.cell_mass[static_cast<std::size_t>(c)],
                    1e-12)
            << "cell " << c;
    }
}

TEST(AleStep, RemapPreservesUniformVelocityExactly) {
    Rig rig({.nx = 6, .ny = 6, .reflective_walls = false});
    for (Index c = 0; c < rig.mesh.n_cells(); ++c)
        rig.state.rho[static_cast<std::size_t>(c)] = 1.0 + 0.2 * (c % 5);
    bh::initialise(rig.mesh, rig.materials, rig.state);
    std::fill(rig.state.u.begin(), rig.state.u.end(), 0.37);
    std::fill(rig.state.v.begin(), rig.state.v.end(), -0.11);
    rig.shift_strict_interior(0.009, -0.004);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    ba::alestep(rig.ctx, rig.state, opts, rig.work);
    for (Index n = 0; n < rig.mesh.n_nodes(); ++n) {
        const auto ni = static_cast<std::size_t>(n);
        EXPECT_NEAR(rig.state.u[ni], 0.37, 1e-13);
        EXPECT_NEAR(rig.state.v[ni], -0.11, 1e-13);
    }
}

TEST(AleStep, MonotonicityNoNewDensityExtrema) {
    // A sharp density step remapped repeatedly must not overshoot.
    Rig rig({.nx = 16, .ny = 4});
    for (Index c = 0; c < rig.mesh.n_cells(); ++c) {
        Real cx = 0;
        for (int k = 0; k < 4; ++k)
            cx += rig.mesh.x[static_cast<std::size_t>(rig.mesh.cn(c, k))] / 4;
        rig.state.rho[static_cast<std::size_t>(c)] = cx < 0.5 ? 4.0 : 1.0;
    }
    bh::initialise(rig.mesh, rig.materials, rig.state);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    for (int rep = 0; rep < 5; ++rep) {
        rig.shift_interior(0.005, 0.0);
        ba::alestep(rig.ctx, rig.state, opts, rig.work);
        for (Index c = 0; c < rig.state.n_cells(); ++c) {
            const Real rho = rig.state.rho[static_cast<std::size_t>(c)];
            EXPECT_GE(rho, 1.0 - 1e-10) << "rep " << rep << " cell " << c;
            EXPECT_LE(rho, 4.0 + 1e-10) << "rep " << rep << " cell " << c;
        }
    }
}

TEST(AleGetMesh, SmoothingImprovesSaltzmannQuality) {
    bm::RectSpec spec{.x0 = 0, .x1 = 1, .y0 = 0, .y1 = 0.1, .nx = 50, .ny = 10};
    spec.map = bm::saltzmann_map;
    Rig rig(spec);
    const auto before = bg::mesh_quality(rig.mesh);

    ba::Options opts;
    opts.mode = ba::Mode::ale;
    opts.smoothing_passes = 10;
    ba::alegetmesh(rig.ctx, rig.state, opts, rig.work);

    // Build a mesh snapshot with the target coordinates and measure.
    bm::Mesh smoothed = rig.mesh;
    smoothed.x.assign(rig.work.xt.begin(), rig.work.xt.end());
    smoothed.y.assign(rig.work.yt.begin(), rig.work.yt.end());
    const auto after = bg::mesh_quality(smoothed);
    EXPECT_LT(after.max_aspect, before.max_aspect);
    EXPECT_GT(after.min_area, 0.0);

    // Boundary nodes stayed on their walls.
    for (Index n = 0; n < rig.mesh.n_nodes(); ++n) {
        const auto ni = static_cast<std::size_t>(n);
        if (rig.mesh.node_bc[ni] & bm::bc::fix_u) {
            EXPECT_DOUBLE_EQ(rig.work.xt[ni], rig.state.x[ni]);
        }
        if (rig.mesh.node_bc[ni] & bm::bc::fix_v) {
            EXPECT_DOUBLE_EQ(rig.work.yt[ni], rig.state.y[ni]);
        }
    }
}

TEST(AleGetMesh, DisplacementClampHolds) {
    Rig rig({.nx = 10, .ny = 10});
    ba::Options opts;
    opts.mode = ba::Mode::ale;
    opts.smoothing_passes = 50; // try hard to move far
    opts.max_move_frac = 0.1;
    ba::alegetmesh(rig.ctx, rig.state, opts, rig.work);
    const Real h = 0.1; // cell size
    for (Index n = 0; n < rig.mesh.n_nodes(); ++n) {
        const auto ni = static_cast<std::size_t>(n);
        const Real d = std::hypot(rig.work.xt[ni] - rig.state.x[ni],
                                  rig.work.yt[ni] - rig.state.y[ni]);
        EXPECT_LE(d, 0.1 * h + 1e-12);
    }
}

TEST(AleStep, EulerianCycleAfterLagrangianStep) {
    // A real Lagrangian step followed by an Eulerian remap: the node
    // positions return to the generation-time mesh, conservation holds.
    Rig rig({.nx = 8, .ny = 8}, 1.4, 1.0, 2.5);
    for (Index c = 0; c < rig.mesh.n_cells(); ++c)
        rig.state.ein[static_cast<std::size_t>(c)] = 2.0 + 0.5 * ((c * 7) % 5);
    bh::initialise(rig.mesh, rig.materials, rig.state);
    const auto before = bh::totals(rig.mesh, rig.state);

    bh::lagstep(rig.ctx, rig.state, 2e-4);
    const auto mid = bh::totals(rig.mesh, rig.state);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    ba::alestep(rig.ctx, rig.state, opts, rig.work);
    const auto after = bh::totals(rig.mesh, rig.state);

    for (Index n = 0; n < rig.mesh.n_nodes(); ++n) {
        const auto ni = static_cast<std::size_t>(n);
        EXPECT_NEAR(rig.state.x[ni], rig.mesh.x[ni], 1e-15);
        EXPECT_NEAR(rig.state.y[ni], rig.mesh.y[ni], 1e-15);
    }
    EXPECT_NEAR(after.mass, before.mass, 1e-12);
    EXPECT_NEAR(after.total_energy(), mid.total_energy(),
                1e-9 * std::abs(mid.total_energy()));
}

TEST(AleAdvect, ThrowsWhenBoundaryFaceSweeps) {
    // If a boundary node somehow leaves its wall, the remap must fail
    // loudly instead of indexing a nonexistent neighbour.
    Rig rig({.nx = 4, .ny = 4, .reflective_walls = false});
    for (auto& x : rig.state.x) x += 0.01; // move EVERY node, walls included
    rig.refresh_geometry();
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    EXPECT_THROW(ba::alestep(rig.ctx, rig.state, opts, rig.work), bu::Error);
}

namespace {

/// The util::Error message `fn` throws ("" when it throws none).
template <typename Fn>
std::string error_of(Fn&& fn) {
    try {
        fn();
    } catch (const bu::Error& e) {
        return e.what();
    }
    return "";
}

/// Attach `pool` with one-item chunks, so even the 4x4 rig's loops split
/// across the workers instead of running serially inside for_each.
void attach(Rig& rig, bp::ThreadPool& pool) {
    rig.ctx.exec.pool = &pool;
    rig.ctx.exec.grain = 1;
}

} // namespace

TEST(AleAdvect, ThrowsWhenBoundaryFaceSweepsThreaded) {
    // The swept-volume sweep is a par::for_each: the worker that meets the
    // bad face must not throw (the pool carries no exception across
    // threads); the sweep throws after the join, with the serial message.
    bp::ThreadPool pool(2);
    Rig rig({.nx = 4, .ny = 4, .reflective_walls = false});
    attach(rig, pool);
    for (auto& x : rig.state.x) x += 0.01; // move EVERY node, walls included
    rig.refresh_geometry();
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    EXPECT_EQ(
        error_of([&] { ba::alestep(rig.ctx, rig.state, opts, rig.work); }),
        "alegetfvol: boundary face swept volume (node left its wall)");
}

TEST(AleUpdate, NonPositiveVolumeThrowsAfterTheThreadedSweep) {
    // A folded target mesh: the cell sweep runs on the workers, and the
    // throw after the join names the same cell the serial sweep does.
    const auto fold = [](Rig& rig) {
        rig.work.xt.assign(rig.state.x.begin(), rig.state.x.end());
        rig.work.yt.assign(rig.state.y.begin(), rig.state.y.end());
        for (std::size_t n = 0; n < rig.work.xt.size(); ++n)
            if (std::abs(rig.mesh.x[n] - 0.25) < 1e-9 &&
                std::abs(rig.mesh.y[n] - 0.25) < 1e-9) {
                rig.work.xt[n] = 0.9; // past its neighbours at 0.5
                rig.work.yt[n] = 0.9;
            }
    };
    Rig serial({.nx = 4, .ny = 4});
    fold(serial);
    const std::string expected = error_of(
        [&] { ba::aleupdate(serial.ctx, serial.state, serial.work); });
    ASSERT_EQ(expected.rfind("aleupdate: non-positive volume in cell ", 0), 0u)
        << expected;

    bp::ThreadPool pool(2);
    Rig threaded({.nx = 4, .ny = 4});
    attach(threaded, pool);
    fold(threaded);
    EXPECT_EQ(error_of([&] {
                  ba::aleupdate(threaded.ctx, threaded.state, threaded.work);
              }),
              expected);
}

TEST(AleAdvect, LimiterOffAllowsSharperButUnclampedProfile) {
    // Ablation sanity: with the limiter disabled the remap still conserves
    // mass exactly (fluxes are consistent), it just loses monotonicity
    // guarantees.
    Rig rig({.nx = 16, .ny = 2});
    for (Index c = 0; c < rig.mesh.n_cells(); ++c) {
        Real cx = 0;
        for (int k = 0; k < 4; ++k)
            cx += rig.mesh.x[static_cast<std::size_t>(rig.mesh.cn(c, k))] / 4;
        rig.state.rho[static_cast<std::size_t>(c)] = cx < 0.5 ? 3.0 : 1.0;
    }
    bh::initialise(rig.mesh, rig.materials, rig.state);
    const Real m0 = bh::totals(rig.mesh, rig.state).mass;
    rig.shift_interior(0.006, 0.0);
    ba::Options opts;
    opts.mode = ba::Mode::eulerian;
    opts.limit = false;
    ba::alestep(rig.ctx, rig.state, opts, rig.work);
    EXPECT_NEAR(bh::totals(rig.mesh, rig.state).mass, m0, 1e-12 * m0);
}
