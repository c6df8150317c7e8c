/// Tests for the task-graph executor (par::TaskGraph) and its contract:
/// a driver with a pool runs its graphs and lands the serial run's bytes —
/// on the serial driver and the distributed driver, at every thread
/// count, rank count and mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "par/blocks.hpp"
#include "par/exec.hpp"
#include "par/task_graph.hpp"
#include "par/thread_pool.hpp"
#include "setup/problems.hpp"
#include "util/error.hpp"

namespace bp = bookleaf::par;
namespace bc = bookleaf::core;
namespace bd = bookleaf::dist;
namespace bs = bookleaf::setup;
namespace ba = bookleaf::ale;
using bookleaf::Index;
using bookleaf::Real;

// ---------------------------------------------------------------------------
// TaskGraph unit tests
// ---------------------------------------------------------------------------

TEST(TaskGraph, EmptyGraphRuns) {
    bp::TaskGraph g;
    EXPECT_TRUE(g.empty());
    g.run(bp::Exec{}); // serial
    bp::ThreadPool pool(4);
    bp::Exec ex;
    ex.pool = &pool;
    g.run(ex); // threaded
}

TEST(TaskGraph, SingleTaskMatchesSerialCall) {
    int calls = 0;
    bp::TaskGraph g;
    g.add([&] { ++calls; });
    g.run(bp::Exec{});
    EXPECT_EQ(calls, 1);
}

TEST(TaskGraph, SerialReadyOrderIsLowestIdFirst) {
    // Without dependencies the serial executor must visit tasks in
    // insertion (id) order — the deterministic scheduling priority.
    std::vector<int> order;
    bp::TaskGraph g;
    for (int i = 0; i < 6; ++i) g.add([&order, i] { order.push_back(i); });
    g.run(bp::Exec{});
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(TaskGraph, DiamondRespectsDependencies) {
    //     a
    //    / \
    //   b   c
    //    \ /
    //     d
    std::mutex m;
    std::vector<char> order;
    auto record = [&](char c) {
        const std::lock_guard<std::mutex> lock(m);
        order.push_back(c);
    };
    bp::TaskGraph g;
    const auto a = g.add([&] { record('a'); });
    const auto b = g.add([&] { record('b'); });
    const auto c = g.add([&] { record('c'); });
    const auto d = g.add([&] { record('d'); });
    g.depend(b, a);
    g.depend(c, a);
    g.depend(d, b);
    g.depend(d, c);

    bp::ThreadPool pool(4);
    bp::Exec ex;
    ex.pool = &pool;
    for (int rep = 0; rep < 20; ++rep) {
        order.clear();
        g.run(ex);
        ASSERT_EQ(order.size(), 4u);
        const auto pos = [&](char ch) {
            return std::find(order.begin(), order.end(), ch) - order.begin();
        };
        EXPECT_LT(pos('a'), pos('b'));
        EXPECT_LT(pos('a'), pos('c'));
        EXPECT_LT(pos('b'), pos('d'));
        EXPECT_LT(pos('c'), pos('d'));
    }
}

TEST(TaskGraph, ReRunnable) {
    std::atomic<int> calls{0};
    bp::TaskGraph g;
    const auto a = g.add([&] { calls.fetch_add(1); });
    const auto b = g.add([&] { calls.fetch_add(1); });
    g.depend(b, a);
    g.run(bp::Exec{});
    g.run(bp::Exec{});
    EXPECT_EQ(calls.load(), 4);
}

TEST(TaskGraph, CycleThrows) {
    bp::TaskGraph g;
    const auto a = g.add([] {});
    const auto b = g.add([] {});
    g.depend(a, b);
    g.depend(b, a);
    EXPECT_THROW(g.run(bp::Exec{}), bookleaf::util::Error);
}

TEST(TaskGraph, SelfDependencyThrows) {
    // Rejected eagerly at declaration (a one-node cycle).
    bp::TaskGraph g;
    const auto a = g.add([] {});
    EXPECT_THROW(g.depend(a, a), bookleaf::util::Error);
}

TEST(TaskGraph, OutOfRangeDependencyThrows) {
    bp::TaskGraph g;
    const auto a = g.add([] {});
    EXPECT_THROW(g.depend(a, a + 1), bookleaf::util::Error);
    EXPECT_THROW(g.depend(-1, a), bookleaf::util::Error);
}

TEST(TaskGraph, MainThreadTasksRunOnCallingThread) {
    // The hook the distributed driver relies on: comm endpoints are
    // per-rank threads, so exchange finishes must stay on tid 0.
    const auto caller = std::this_thread::get_id();
    std::mutex m;
    std::vector<std::thread::id> seen;
    bp::TaskGraph g;
    for (int i = 0; i < 8; ++i) {
        g.add(
            [&] {
                const std::lock_guard<std::mutex> lock(m);
                seen.push_back(std::this_thread::get_id());
            },
            /*main_thread=*/true);
        g.add([] { /* free task, any worker */ });
    }
    bp::ThreadPool pool(4);
    bp::Exec ex;
    ex.pool = &pool;
    g.run(ex);
    ASSERT_EQ(seen.size(), 8u);
    for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(TaskGraph, TaskExceptionPropagatesAndCancels) {
    bp::TaskGraph g;
    std::atomic<int> ran{0};
    const auto a = g.add([] { throw std::runtime_error("boom"); });
    const auto b = g.add([&] { ran.fetch_add(1); });
    g.depend(b, a); // gated on the throwing task: must be cancelled
    bp::ThreadPool pool(2);
    bp::Exec ex;
    ex.pool = &pool;
    EXPECT_THROW(g.run(ex), std::runtime_error);
    EXPECT_EQ(ran.load(), 0);
}

// ---------------------------------------------------------------------------
// Block coupling tables (par::coupling), as the graph builders use them
// ---------------------------------------------------------------------------

TEST(BlockCoupling, BlocksCoverTheRangeInOrder) {
    const auto blocks = bp::make_blocks(30, 7);
    ASSERT_EQ(blocks.size(), 5u);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        EXPECT_EQ(blocks[b].begin, static_cast<Index>(7 * b));
        EXPECT_EQ(blocks[b].end,
                  std::min<Index>(30, static_cast<Index>(7 * b + 7)));
    }
    const auto none = bp::make_blocks(0, 7);
    ASSERT_EQ(none.size(), 1u);
    EXPECT_EQ(none[0].begin, 0);
    EXPECT_EQ(none[0].end, 0);
}

TEST(BlockCoupling, MatchesBruteForceSetsOnARenumberedMesh) {
    // The graph builders' stencils on a randomly renumbered 24^2 mesh at
    // task_block 7: every row must be exactly the sorted distinct blocks
    // a std::set collects from the same visits.
    bookleaf::util::SplitMix64 rng(24);
    const auto mesh = bookleaf::mesh::permute(bs::noh(24).mesh, rng);
    bp::Exec ex;
    ex.task_block = 7;
    const Index cell_bs = bp::detail::resolve_task_block(ex, mesh.n_cells());
    const Index node_bs = bp::detail::resolve_task_block(ex, mesh.n_nodes());
    ASSERT_EQ(cell_bs, 7);
    ASSERT_EQ(node_bs, 7);
    const auto cells = bp::make_blocks(mesh.n_cells(), cell_bs);
    const auto nodes = bp::make_blocks(mesh.n_nodes(), node_bs);
    const int n_cb = static_cast<int>(cells.size());
    const int n_nb = static_cast<int>(nodes.size());
    const auto nb_of = [&](Index n) { return static_cast<int>(n / node_bs); };
    const auto cb_of = [&](Index c) { return static_cast<int>(c / cell_bs); };

    // Own nodes plus the face neighbours' nodes (the step graph's getq
    // stencil).
    const auto wide = [&](int cb, auto add) {
        const auto blk = cells[static_cast<std::size_t>(cb)];
        for (Index c = blk.begin; c < blk.end; ++c)
            for (int k = 0; k < 4; ++k) {
                add(nb_of(mesh.cn(c, k)));
                const Index nbr = mesh.neighbor(c, k);
                if (nbr == bookleaf::no_index) continue;
                for (int m = 0; m < 4; ++m) add(nb_of(mesh.cn(nbr, m)));
            }
    };
    // The cells a node's corner gather reads (the assembly stencil).
    const auto touch = [&](int nb, auto add) {
        const auto blk = nodes[static_cast<std::size_t>(nb)];
        for (Index n = blk.begin; n < blk.end; ++n)
            for (const Index ck : mesh.node_corners.row(n)) add(cb_of(ck / 4));
    };
    // Nodes sharing a cell with the block's nodes, and the block itself
    // (the advection graph's upwind-velocity stencil).
    const auto adjacent = [&](int nb, auto add) {
        add(nb);
        const auto blk = nodes[static_cast<std::size_t>(nb)];
        for (Index n = blk.begin; n < blk.end; ++n)
            for (const Index ck : mesh.node_corners.row(n))
                for (int m = 0; m < 4; ++m) add(nb_of(mesh.cn(ck / 4, m)));
    };

    const auto check = [](const char* name, int n_rows, int n_cols,
                          const auto& visit) {
        const auto table = bp::coupling(n_rows, n_cols, visit);
        ASSERT_EQ(table.size(), static_cast<std::size_t>(n_rows)) << name;
        std::size_t repeats_seen = 0;
        for (int r = 0; r < n_rows; ++r) {
            std::set<int> want;
            std::size_t visits = 0;
            visit(r, [&](int col) {
                want.insert(col);
                ++visits;
            });
            repeats_seen += visits - want.size();
            EXPECT_EQ(table[static_cast<std::size_t>(r)],
                      std::vector<int>(want.begin(), want.end()))
                << name << " row " << r;
        }
        EXPECT_GT(repeats_seen, 0u) << name << ": nothing to deduplicate";
    };
    check("wide", n_cb, n_nb, wide);
    check("touch", n_nb, n_cb, touch);
    check("adjacent", n_nb, n_nb, adjacent);
}

// ---------------------------------------------------------------------------
// Task graphs == serial, bitwise
// ---------------------------------------------------------------------------

namespace {

struct Fields {
    int steps = 0;
    std::vector<Real> rho, ein, u, v, x, y;
};

Fields serial_fields(bc::Hydro& h, int steps) {
    Fields f;
    f.steps = steps;
    f.rho.assign(h.state().rho.begin(), h.state().rho.end());
    f.ein.assign(h.state().ein.begin(), h.state().ein.end());
    f.u.assign(h.state().u.begin(), h.state().u.end());
    f.v.assign(h.state().v.begin(), h.state().v.end());
    f.x.assign(h.state().x.begin(), h.state().x.end());
    f.y.assign(h.state().y.begin(), h.state().y.end());
    return f;
}

/// Run a deck on the serial driver on the given pool (nullptr: serial).
Fields run_core(bs::Problem problem, Real t_end, bp::ThreadPool* pool) {
    bc::Hydro h(std::move(problem));
    bp::Exec ex;
    ex.pool = pool;
    h.set_exec(ex);
    const auto summary = h.run(t_end);
    return serial_fields(h, summary.steps);
}

void expect_bitwise(const Fields& a, const Fields& b,
                    const std::string& label) {
    ASSERT_EQ(a.steps, b.steps) << label;
    ASSERT_EQ(a.rho.size(), b.rho.size()) << label;
    for (std::size_t c = 0; c < a.rho.size(); ++c) {
        EXPECT_EQ(a.rho[c], b.rho[c]) << label << ": cell " << c;
        EXPECT_EQ(a.ein[c], b.ein[c]) << label << ": cell " << c;
    }
    for (std::size_t n = 0; n < a.u.size(); ++n) {
        EXPECT_EQ(a.u[n], b.u[n]) << label << ": node " << n;
        EXPECT_EQ(a.v[n], b.v[n]) << label << ": node " << n;
        EXPECT_EQ(a.x[n], b.x[n]) << label << ": node " << n;
        EXPECT_EQ(a.y[n], b.y[n]) << label << ": node " << n;
    }
}

/// The three operating modes at test scale.
bs::Problem deck(ba::Mode mode) {
    if (mode == ba::Mode::lagrange) return bs::sod(48, 4);
    if (mode == ba::Mode::eulerian) {
        auto p = bs::sod(48, 4);
        p.ale.mode = ba::Mode::eulerian;
        return p;
    }
    auto p = bs::noh(12);
    p.ale.mode = ba::Mode::ale;
    p.ale.frequency = 3;
    p.ale.smoothing_passes = 2;
    return p;
}

const char* mode_name(ba::Mode mode) {
    switch (mode) {
    case ba::Mode::lagrange: return "lagrange";
    case ba::Mode::eulerian: return "eulerian";
    default: return "ale";
    }
}

} // namespace

TEST(Sched, PoolRunsMatchTheInlineGraphsAllModes) {
    // Both graphs run inline without a pool: the pool runs of every mode
    // must land on the inline run's bytes.
    const Real t_end = 0.03;
    for (const auto mode :
         {ba::Mode::lagrange, ba::Mode::eulerian, ba::Mode::ale}) {
        const auto ref = run_core(deck(mode), t_end, nullptr);
        ASSERT_GT(ref.steps, 0) << mode_name(mode);
        for (const int threads : {2, 4}) {
            bp::ThreadPool pool(threads);
            expect_bitwise(run_core(deck(mode), t_end, &pool), ref,
                           std::string(mode_name(mode)) + " " +
                               std::to_string(threads) + " threads");
        }
    }
}

TEST(Sched, ExplicitTaskBlockSizesStayBitwise) {
    // The block-size knob changes the graph's shape, never its result.
    const Real t_end = 0.02;
    const auto ref = run_core(deck(ba::Mode::eulerian), t_end, nullptr);
    bp::ThreadPool pool(4);
    for (const bookleaf::Index block : {1, 7, 64, 100000}) {
        bc::Hydro h(deck(ba::Mode::eulerian));
        bp::Exec ex;
        ex.pool = &pool;
        ex.task_block = block;
        h.set_exec(ex);
        const auto summary = h.run(t_end);
        const auto got = serial_fields(h, summary.steps);
        expect_bitwise(got, ref, "task_block=" + std::to_string(block));
    }
}

TEST(Sched, SetExecDropsTheCachedGraphs) {
    // core::Hydro builds its step and advection graphs once and re-runs
    // them, so set_exec must drop them: a graph that survived would keep
    // running blocks sized for, and scheduled on, the pool it was built
    // with. Every segment's graphs must report the current pool's width —
    // one worker in the no-pool segment, whose graphs run inline —
    // and the interrupted run must land on the uninterrupted serial run's
    // bytes.
    const Real t_end = 0.03;
    for (const auto mode : {ba::Mode::eulerian, ba::Mode::ale}) {
        const auto ref = run_core(deck(mode), t_end, nullptr);
        auto problem = deck(mode);
        problem.telemetry.enabled = true;
        bc::Hydro h(std::move(problem));
        bp::ThreadPool pool(2);
        bp::ThreadPool wide_pool(4);
        bp::Exec narrow;
        narrow.pool = &pool;
        bp::Exec wide;
        wide.pool = &wide_pool;
        wide.task_block = 7;
        std::vector<int> widths; // expected graph width per step
        const auto steps = [&](int n, int width) {
            for (int i = 0; i < n; ++i) {
                h.step();
                widths.push_back(width);
            }
        };
        h.set_exec(narrow);
        steps(4, 2);
        h.set_exec(wide);
        steps(4, 4);
        h.set_exec(bp::Exec{});
        steps(4, 1);
        h.set_exec(wide);
        const auto summary = h.run(t_end);
        ASSERT_GT(summary.steps, 12) << mode_name(mode);
        widths.resize(static_cast<std::size_t>(summary.steps), 4);

        const std::string label = mode_name(mode);
        expect_bitwise(serial_fields(h, summary.steps), ref, label);
        const auto records = h.telemetry_report().ranks.at(0).steps;
        ASSERT_EQ(records.size(), widths.size()) << label;
        for (std::size_t i = 0; i < records.size(); ++i)
            EXPECT_EQ(records[i].graph_workers, widths[i])
                << label << ": step " << i;
    }
}

namespace {

bd::Result run_dist(const bs::Problem& p, Real t_end, int n_ranks,
                    int n_threads) {
    bd::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = t_end;
    opts.hydro = p.hydro;
    opts.ale = p.ale;
    opts.n_threads = n_threads;
    return bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);
}

void expect_dist_bitwise(const bd::Result& r, const Fields& ref,
                         const std::string& label) {
    ASSERT_EQ(r.steps, ref.steps) << label;
    ASSERT_EQ(r.rho.size(), ref.rho.size()) << label;
    for (std::size_t c = 0; c < ref.rho.size(); ++c) {
        EXPECT_EQ(r.rho[c], ref.rho[c]) << label << ": cell " << c;
        EXPECT_EQ(r.ein[c], ref.ein[c]) << label << ": cell " << c;
    }
    for (std::size_t n = 0; n < ref.u.size(); ++n) {
        EXPECT_EQ(r.u[n], ref.u[n]) << label << ": node " << n;
        EXPECT_EQ(r.v[n], ref.v[n]) << label << ": node " << n;
        EXPECT_EQ(r.x[n], ref.x[n]) << label << ": node " << n;
        EXPECT_EQ(r.y[n], ref.y[n]) << label << ": node " << n;
    }
}

} // namespace

TEST(Sched, DistHybridRanksTimesThreadsBitwiseOnEulerianSod) {
    // The remap-due steps drive the rank's advection graph: the
    // gradient-exchange finish releases the face chunks with a ghost side
    // while the ghost-free fluxes overlap the messages. Every (ranks x
    // threads) cell must gather the serial driver's bytes.
    const Real t_end = 0.02;
    const auto problem = deck(ba::Mode::eulerian);
    const auto ref = run_core(deck(ba::Mode::eulerian), t_end, nullptr);
    ASSERT_GT(ref.steps, 0);
    for (const int n_ranks : {1, 2, 4})
        for (const int n_threads : {1, 2, 4})
            expect_dist_bitwise(run_dist(problem, t_end, n_ranks, n_threads),
                                ref,
                                std::to_string(n_ranks) + " ranks x " +
                                    std::to_string(n_threads) + " threads");
}

TEST(Sched, DistHybridBitwiseOnAleNoh) {
    // ALE adds the smoothing-pass node halos around the same advection
    // graph.
    const Real t_end = 0.03;
    const auto problem = deck(ba::Mode::ale);
    const auto ref = run_core(deck(ba::Mode::ale), t_end, nullptr);
    ASSERT_GT(ref.steps, 0);
    for (const int n_ranks : {2, 4})
        expect_dist_bitwise(run_dist(problem, t_end, n_ranks, 4), ref,
                            std::to_string(n_ranks) + " ranks x 4 threads");

    // Lagrangian Noh drives the rank step graph through the compressing
    // getq path everywhere, limiter sentinels included, with no remap in
    // between.
    const auto lagrange = bs::noh(16);
    const auto lagrange_ref = run_core(bs::noh(16), 0.1, nullptr);
    ASSERT_GT(lagrange_ref.steps, 0);
    for (const int n_ranks : {2, 3})
        for (const int n_threads : {1, 2})
            expect_dist_bitwise(run_dist(lagrange, 0.1, n_ranks, n_threads),
                                lagrange_ref,
                                "lagrange " + std::to_string(n_ranks) +
                                    " ranks x " + std::to_string(n_threads) +
                                    " threads");
}

TEST(Sched, RankGraphHidesBothExchangesAtOneThread) {
    // At one thread a rank runs its graphs inline, lowest task id first,
    // so the rank's trace replays the graphs' id order. Within every
    // step, some predictor getq must run between the state-halo post and
    // its finish, and some corrector getq or getforce between the corner
    // post and its finish; within every remap, some face fluxes between
    // the gradient post and its finish: a finish task with a low id would
    // run first and wait out the messages with nothing to hide behind.
    using K = bookleaf::util::Kernel;
    auto eulerian = bs::noh(32);
    eulerian.ale.mode = ba::Mode::eulerian;
    for (const auto& problem : {bs::noh(32), eulerian}) {
        const std::string deck = mode_name(problem.ale.mode);
        const auto path = ::testing::TempDir() + "sched_overlap_trace.json";
        bd::Options opts;
        opts.n_ranks = 2;
        opts.t_end = problem.t_end;
        opts.max_steps = 6;
        opts.hydro = problem.hydro;
        opts.ale = problem.ale;
        opts.telemetry.trace = path;
        const auto r = bd::run(problem.mesh, problem.materials, problem.rho,
                               problem.ein, problem.u, problem.v, opts);
        std::remove(path.c_str());
        ASSERT_EQ(r.telemetry.ranks.size(), 2u) << deck;

        for (const auto& rank : r.telemetry.ranks) {
            ASSERT_EQ(rank.steps.size(), 6u) << deck;
            for (const auto& step : rank.steps) {
                const std::string label =
                    deck + ", rank " + std::to_string(rank.rank) + ", step " +
                    std::to_string(step.step);
                std::vector<bookleaf::util::TraceEvent> events;
                for (const auto& e : rank.trace)
                    if (e.t0_us >= step.start_us &&
                        e.t0_us <= step.start_us + step.wall_us)
                        events.push_back(e);
                std::stable_sort(events.begin(), events.end(),
                                 [](const auto& a, const auto& b) {
                                     return a.t0_us < b.t0_us;
                                 });
                // State post, state finish, corner post, corner finish;
                // in an Eulerian remap then the blocking state refresh,
                // gradient post, gradient finish, result post and result
                // finish.
                ASSERT_EQ(step.remapped,
                          problem.ale.mode == ba::Mode::eulerian)
                    << label;
                std::vector<bookleaf::util::TraceEvent> halo;
                for (const auto& e : events)
                    if (e.kernel == K::halo) halo.push_back(e);
                ASSERT_EQ(halo.size(), step.remapped ? 9u : 4u) << label;
                const auto between = [&](const auto& after,
                                         const auto& before,
                                         std::initializer_list<K> kernels) {
                    for (const auto& e : events)
                        if (e.t0_us >= after.t0_us + after.dur_us &&
                            e.t0_us + e.dur_us <= before.t0_us &&
                            std::find(kernels.begin(), kernels.end(),
                                      e.kernel) != kernels.end())
                            return true;
                    return false;
                };
                EXPECT_TRUE(between(halo[0], halo[1], {K::getq}))
                    << label << ": no predictor getq under the state halo";
                EXPECT_TRUE(between(halo[2], halo[3], {K::getq, K::getforce}))
                    << label << ": no corrector work under the corner halo";
                if (step.remapped)
                    EXPECT_TRUE(between(halo[5], halo[6], {K::ale_fluxes}))
                        << label << ": no face fluxes under the gradient halo";
            }
        }
    }
}

TEST(Sched, DistRejectsNonPositiveThreadCount) {
    const auto problem = deck(ba::Mode::lagrange);
    bd::Options opts;
    opts.n_ranks = 1;
    opts.t_end = 0.001;
    opts.hydro = problem.hydro;
    opts.n_threads = 0;
    EXPECT_THROW(bd::run(problem.mesh, problem.materials, problem.rho,
                         problem.ein, problem.u, problem.v, opts),
                 bookleaf::util::Error);
}
