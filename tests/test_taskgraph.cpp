/// Tests for the task-graph executor (par::TaskGraph) and the schedule
/// ablation contract: Schedule::taskgraph is bitwise identical to
/// Schedule::forkjoin — and to the serial run — on the serial driver and
/// the distributed driver, at every thread count, rank count and mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
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
// Schedule ablation: taskgraph == forkjoin == serial, bitwise
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

/// Run a deck on the serial driver under the given pool/schedule.
Fields run_core(bs::Problem problem, Real t_end, bp::ThreadPool* pool,
                bp::Schedule schedule) {
    bc::Hydro h(std::move(problem));
    bp::Exec ex;
    ex.pool = pool;
    ex.schedule = schedule;
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

TEST(Sched, TaskgraphBitwiseMatchesForkjoinAndSerialAllModes) {
    const Real t_end = 0.03;
    for (const auto mode :
         {ba::Mode::lagrange, ba::Mode::eulerian, ba::Mode::ale}) {
        const auto ref =
            run_core(deck(mode), t_end, nullptr, bp::Schedule::taskgraph);
        ASSERT_GT(ref.steps, 0) << mode_name(mode);
        for (const int threads : {2, 4}) {
            bp::ThreadPool pool(threads);
            for (const auto schedule :
                 {bp::Schedule::taskgraph, bp::Schedule::forkjoin}) {
                const std::string label =
                    std::string(mode_name(mode)) + " " +
                    std::to_string(threads) + " threads " +
                    (schedule == bp::Schedule::taskgraph ? "taskgraph"
                                                         : "forkjoin");
                const auto got = run_core(deck(mode), t_end, &pool, schedule);
                expect_bitwise(got, ref, label);
            }
        }
    }
}

TEST(Sched, ExplicitTaskBlockSizesStayBitwise) {
    // The block-size knob changes the graph's shape, never its result.
    const Real t_end = 0.02;
    const auto ref =
        run_core(deck(ba::Mode::eulerian), t_end, nullptr,
                 bp::Schedule::taskgraph);
    bp::ThreadPool pool(4);
    for (const bookleaf::Index block : {1, 7, 64, 100000}) {
        bc::Hydro h(deck(ba::Mode::eulerian));
        bp::Exec ex;
        ex.pool = &pool;
        ex.schedule = bp::Schedule::taskgraph;
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
    // with. Every segment's graphs must report the current pool's width,
    // and the interrupted run must land on the uninterrupted serial run's
    // bytes.
    const Real t_end = 0.03;
    for (const auto mode : {ba::Mode::eulerian, ba::Mode::ale}) {
        const auto ref =
            run_core(deck(mode), t_end, nullptr, bp::Schedule::taskgraph);
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
        bp::Exec forkjoin = wide;
        forkjoin.schedule = bp::Schedule::forkjoin;
        h.set_exec(forkjoin);
        steps(4, 0);
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
                    int n_threads, bp::Schedule schedule) {
    bd::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = t_end;
    opts.hydro = p.hydro;
    opts.ale = p.ale;
    opts.n_threads = n_threads;
    opts.schedule = schedule;
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
    // The remap-due steps drive the distributed flux graph: the
    // ghost-gradient exchange finish releases frontier face blocks while
    // interior fluxes overlap the messages. Every (ranks x threads x
    // schedule) cell must gather the serial driver's bytes.
    const Real t_end = 0.02;
    const auto problem = deck(ba::Mode::eulerian);
    const auto ref =
        run_core(deck(ba::Mode::eulerian), t_end, nullptr,
                 bp::Schedule::taskgraph);
    ASSERT_GT(ref.steps, 0);
    for (const int n_ranks : {1, 2, 4})
        for (const int n_threads : {1, 2, 4}) {
            const auto r = run_dist(problem, t_end, n_ranks, n_threads,
                                    bp::Schedule::taskgraph);
            expect_dist_bitwise(r, ref,
                                std::to_string(n_ranks) + " ranks x " +
                                    std::to_string(n_threads) +
                                    " threads taskgraph");
        }
    // Fork-join ablation at the largest hybrid configuration.
    const auto fj = run_dist(problem, t_end, 4, 4, bp::Schedule::forkjoin);
    expect_dist_bitwise(fj, ref, "4 ranks x 4 threads forkjoin");
}

TEST(Sched, DistHybridBitwiseOnAleNoh) {
    // ALE adds the smoothing-pass node halos around the same flux graph.
    const Real t_end = 0.03;
    const auto problem = deck(ba::Mode::ale);
    const auto ref = run_core(deck(ba::Mode::ale), t_end, nullptr,
                              bp::Schedule::taskgraph);
    ASSERT_GT(ref.steps, 0);
    for (const int n_ranks : {2, 4}) {
        const auto tg = run_dist(problem, t_end, n_ranks, 4,
                                 bp::Schedule::taskgraph);
        expect_dist_bitwise(tg, ref,
                            std::to_string(n_ranks) +
                                " ranks x 4 threads taskgraph");
        const auto fj = run_dist(problem, t_end, n_ranks, 4,
                                 bp::Schedule::forkjoin);
        expect_dist_bitwise(fj, ref,
                            std::to_string(n_ranks) +
                                " ranks x 4 threads forkjoin");
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
