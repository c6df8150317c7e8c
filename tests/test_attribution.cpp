/// \file test_attribution.cpp
/// Performance attribution: critical-path analysis of executed task
/// graphs (obs::critical_path), the attribution fields of the telemetry
/// report, the anomaly detectors, and — the load-bearing contract — that
/// attribution-on runs are bitwise identical to attribution-off at every
/// (ranks x threads) combination.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "obs/critical_path.hpp"
#include "obs/telemetry.hpp"
#include "par/task_graph.hpp"
#include "par/thread_pool.hpp"
#include "setup/problems.hpp"

namespace bc = bookleaf::core;
namespace bd = bookleaf::dist;
namespace be = bookleaf::eos;
namespace bm = bookleaf::mesh;
namespace bo = bookleaf::obs;
namespace bp = bookleaf::par;
namespace bs = bookleaf::setup;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;
using bu::Kernel;

namespace {

/// A span on worker `w` starting at `t0` lasting `dur` with a label.
bp::TaskSpan span(double t0, double dur, int worker = 0,
                  Kernel kernel = Kernel::tasks) {
    return {.t0_us = t0, .dur_us = dur, .worker = worker, .kernel = kernel};
}

struct Problem {
    bm::Mesh mesh;
    be::MaterialTable materials;
    std::vector<Real> rho, ein, u, v;
};

/// The miniature Sod-like strip shared with the dist driver tests.
Problem sod_like(Index nx, Index ny) {
    Problem p;
    bm::RectSpec spec{.x0 = 0, .x1 = 1, .y0 = 0, .y1 = 0.1,
                      .nx = nx, .ny = ny};
    spec.region_of = [](Real cx, Real) { return cx < 0.5 ? 0 : 1; };
    p.mesh = bm::generate_rect(spec);
    p.materials.materials = {be::IdealGas{1.4}, be::IdealGas{1.4}};
    p.rho.resize(static_cast<std::size_t>(p.mesh.n_cells()));
    p.ein.resize(p.rho.size());
    for (Index c = 0; c < p.mesh.n_cells(); ++c) {
        const bool left = p.mesh.cell_region[static_cast<std::size_t>(c)] == 0;
        p.rho[static_cast<std::size_t>(c)] = left ? 1.0 : 0.125;
        p.ein[static_cast<std::size_t>(c)] = left ? 2.5 : 2.0;
    }
    p.u.assign(static_cast<std::size_t>(p.mesh.n_nodes()), 0.0);
    p.v.assign(p.u.size(), 0.0);
    return p;
}

} // namespace

// ---------------------------------------------------------------------------
// Longest-path DP on hand-built graphs
// ---------------------------------------------------------------------------

TEST(CritPath, ChainIsItsOwnCriticalPath) {
    // 0 -> 1 -> 2 executed back to back: cp = 5 + 7 + 9.
    bp::GraphRunRecord run;
    run.tasks = {span(0, 5, 0, Kernel::getq), span(5, 7, 0, Kernel::getforce),
                 span(12, 9, 0, Kernel::getacc)};
    run.edges = {{0, 1}, {1, 2}};
    run.n_workers = 1;

    const auto a = bo::analyze_graph(run);
    EXPECT_DOUBLE_EQ(a.cp_us, 21.0);
    EXPECT_DOUBLE_EQ(a.busy_us, 21.0);
    EXPECT_DOUBLE_EQ(a.makespan_us, 21.0);
    EXPECT_DOUBLE_EQ(a.efficiency, 1.0);
    ASSERT_EQ(a.path, (std::vector<bp::TaskId>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(a.cp_kernel_us[static_cast<std::size_t>(Kernel::getq)],
                     5.0);
    EXPECT_DOUBLE_EQ(
        a.cp_kernel_us[static_cast<std::size_t>(Kernel::getforce)], 7.0);
    EXPECT_DOUBLE_EQ(a.cp_kernel_us[static_cast<std::size_t>(Kernel::getacc)],
                     9.0);
}

TEST(CritPath, DiamondPicksTheHeavierBranch) {
    // 0 -> {1 heavy, 2 light} -> 3: the path must route through 1.
    bp::GraphRunRecord run;
    run.tasks = {span(0, 2), span(2, 10, 0), span(2, 3, 1), span(12, 4)};
    run.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
    run.n_workers = 2;

    const auto a = bo::analyze_graph(run);
    EXPECT_DOUBLE_EQ(a.cp_us, 16.0);
    ASSERT_EQ(a.path, (std::vector<bp::TaskId>{0, 1, 3}));
    EXPECT_DOUBLE_EQ(a.busy_us, 19.0);
    EXPECT_DOUBLE_EQ(a.makespan_us, 16.0);
}

TEST(CritPath, FanOutReportsEfficiencyAndPerWorkerIdle) {
    // Independent tasks on 2 workers: worker 0 busy the whole makespan,
    // worker 1 busy 6 of 10 — efficiency 16/20, idle 0 and 4.
    bp::GraphRunRecord run;
    run.tasks = {span(0, 10, 0), span(0, 2, 1), span(2, 2, 1), span(4, 2, 1)};
    run.n_workers = 2;

    const auto a = bo::analyze_graph(run);
    EXPECT_DOUBLE_EQ(a.cp_us, 10.0);
    EXPECT_DOUBLE_EQ(a.makespan_us, 10.0);
    EXPECT_DOUBLE_EQ(a.busy_us, 16.0);
    EXPECT_DOUBLE_EQ(a.efficiency, 0.8);
    ASSERT_EQ(a.worker_busy_us.size(), 2u);
    EXPECT_DOUBLE_EQ(a.worker_busy_us[0], 10.0);
    EXPECT_DOUBLE_EQ(a.worker_busy_us[1], 6.0);
    ASSERT_EQ(a.path, (std::vector<bp::TaskId>{0}));
}

TEST(CritPath, CyclicRecordThrows) {
    bp::GraphRunRecord run;
    run.tasks = {span(0, 1), span(1, 1)};
    run.edges = {{0, 1}, {1, 0}};
    EXPECT_THROW((void)bo::analyze_graph(run), bu::Error);
}

TEST(CritPath, TaskGraphRunAppendsLabeledRecords) {
    // A real executor run must export spans, labels, edges and workers —
    // on both the serial and the threaded path.
    for (const int threads : {1, 3}) {
        bp::ThreadPool pool(threads);
        bp::Exec ex;
        if (threads > 1) ex.pool = &pool;

        bp::TaskGraph graph;
        std::atomic<int> order{0};
        int first = -1, last = -1;
        const auto a = graph.add([&] { first = order++; }, false,
                                 Kernel::getq);
        const auto b = graph.add([&] { (void)order++; }, false,
                                 Kernel::getforce);
        const auto c = graph.add([&] { last = order++; }, false,
                                 Kernel::getacc);
        graph.depend(b, a);
        graph.depend(c, b);

        bp::GraphRunLog log;
        log.epoch = std::chrono::steady_clock::now();
        graph.run(ex, nullptr, &log);

        EXPECT_EQ(first, 0);
        EXPECT_EQ(last, 2);
        ASSERT_EQ(log.runs.size(), 1u) << threads << " threads";
        const auto& run = log.runs.back();
        ASSERT_EQ(run.tasks.size(), 3u);
        EXPECT_EQ(run.n_workers, threads);
        EXPECT_EQ(run.tasks[0].kernel, Kernel::getq);
        EXPECT_EQ(run.tasks[2].kernel, Kernel::getacc);
        for (const auto& t : run.tasks) {
            EXPECT_GE(t.t0_us, 0.0);
            EXPECT_GE(t.dur_us, 0.0);
            EXPECT_LT(t.worker, threads);
        }
        ASSERT_EQ(run.edges.size(), 2u);

        // The whole chain is critical, whatever the schedule did.
        const auto analysis = bo::analyze_graph(run);
        ASSERT_EQ(analysis.path, (std::vector<bp::TaskId>{a, b, c}));

        // Without a log the same run records nothing (zero-cost path).
        graph.run(ex);
        EXPECT_EQ(log.runs.size(), 1u);
    }
}

// ---------------------------------------------------------------------------
// Step attribution and the report plumbing
// ---------------------------------------------------------------------------

TEST(Attrib, AttributeStepAccumulatesAndDrainsTheLog) {
    bp::GraphRunLog log;
    bp::GraphRunRecord r1;
    r1.tasks = {span(0, 5, 0, Kernel::getq), span(5, 7, 0, Kernel::getq)};
    r1.edges = {{0, 1}};
    r1.n_workers = 2;
    bp::GraphRunRecord r2;
    r2.tasks = {span(0, 4, 0, Kernel::ale_fluxes), span(0, 3, 1)};
    r2.n_workers = 2;
    log.runs = {r1, r2};

    bo::StepRecord step;
    bo::RankAttribution total;
    std::vector<bo::CritSpan> critical;
    bo::attribute_step(log, step, total, &critical);

    EXPECT_TRUE(log.runs.empty()) << "the step must drain the log";
    EXPECT_DOUBLE_EQ(step.cp_us, 12.0 + 4.0);
    EXPECT_DOUBLE_EQ(step.graph_busy_us, 12.0 + 7.0);
    EXPECT_DOUBLE_EQ(step.graph_makespan_us, 12.0 + 4.0);
    EXPECT_EQ(step.graph_workers, 2);

    EXPECT_EQ(total.graphs, 2);
    EXPECT_DOUBLE_EQ(total.cp_us, 16.0);
    EXPECT_DOUBLE_EQ(
        total.cp_kernel_us[static_cast<std::size_t>(Kernel::getq)], 12.0);
    EXPECT_DOUBLE_EQ(
        total.cp_kernel_us[static_cast<std::size_t>(Kernel::ale_fluxes)], 4.0);
    ASSERT_EQ(total.worker_busy_us.size(), 2u);
    EXPECT_DOUBLE_EQ(total.worker_busy_us[0], 12.0 + 4.0);
    EXPECT_DOUBLE_EQ(total.worker_busy_us[1], 3.0);
    EXPECT_GT(total.efficiency(), 0.0);

    // Critical spans: 2 tasks of chain 1, then 1 task of chain 2.
    ASSERT_EQ(critical.size(), 3u);
    EXPECT_EQ(critical[0].chain, critical[1].chain);
    EXPECT_NE(critical[1].chain, critical[2].chain);

    // A step with no graph runs is a no-op on everything.
    bo::StepRecord quiet;
    bo::attribute_step(log, quiet, total, &critical);
    EXPECT_EQ(quiet.graph_workers, 0);
    EXPECT_EQ(total.graphs, 2);
    EXPECT_EQ(critical.size(), 3u);
}

TEST(Attrib, CodecRoundTripsAttributionFields) {
    bo::RankRecord rec;
    rec.rank = 2;
    rec.epoch_us = 321.5;
    bo::StepRecord s{.step = 0, .t = 1e-4, .dt = 1e-4};
    s.cp_us = 120.0;
    s.graph_busy_us = 200.0;
    s.graph_makespan_us = 130.0;
    s.graph_workers = 4;
    rec.steps = {s};
    rec.kernels[static_cast<std::size_t>(Kernel::getq)] = {0.5, 0.0, 40, 900};
    rec.attrib.graphs = 7;
    rec.attrib.cp_us = 840.0;
    rec.attrib.busy_us = 1400.0;
    rec.attrib.makespan_us = 910.0;
    rec.attrib.cp_kernel_us[static_cast<std::size_t>(Kernel::ale_cells)] =
        333.0;
    rec.attrib.worker_busy_us = {700.0, 450.0, 250.0};

    const auto back = bo::unpack_rank(bo::pack_rank(rec));
    EXPECT_EQ(back.epoch_us, 321.5);
    ASSERT_EQ(back.steps.size(), 1u);
    EXPECT_EQ(back.steps[0].cp_us, 120.0);
    EXPECT_EQ(back.steps[0].graph_busy_us, 200.0);
    EXPECT_EQ(back.steps[0].graph_makespan_us, 130.0);
    EXPECT_EQ(back.steps[0].graph_workers, 4);
    EXPECT_EQ(back.kernels[static_cast<std::size_t>(Kernel::getq)].items,
              900);
    EXPECT_EQ(back.attrib.graphs, 7);
    EXPECT_EQ(back.attrib.cp_us, 840.0);
    EXPECT_EQ(
        back.attrib.cp_kernel_us[static_cast<std::size_t>(Kernel::ale_cells)],
        333.0);
    ASSERT_EQ(back.attrib.worker_busy_us, rec.attrib.worker_busy_us);
}

TEST(Attrib, SerialReportCarriesAttributionConfigAndWorkModel) {
    auto problem = bs::sod(32, 2);
    problem.telemetry.enabled = true;
    bc::Hydro hydro(std::move(problem));
    bp::ThreadPool pool(2);
    bp::Exec exec;
    exec.pool = &pool;
    hydro.set_exec(exec);
    hydro.run(std::nullopt, 20);

    const auto report = hydro.telemetry_report();
    EXPECT_EQ(report.config.n_threads, 2);
    EXPECT_EQ(report.config.n_ranks, 1);
    ASSERT_TRUE(report.work.present);
    EXPECT_GT(report.work.peak_flops, 0.0);
    EXPECT_GT(report.work.peak_bw, 0.0);
    EXPECT_GT(report.work
                  .kernels[static_cast<std::size_t>(Kernel::getq)]
                  .flops_per_item,
              0.0);

    ASSERT_EQ(report.ranks.size(), 1u);
    const auto& rank = report.ranks[0];
    EXPECT_GT(rank.attrib.graphs, 0) << "taskgraph steps must be analyzed";
    EXPECT_GT(rank.attrib.cp_us, 0.0);
    EXPECT_LE(rank.attrib.cp_us, rank.attrib.busy_us * (1.0 + 1e-12));
    ASSERT_EQ(rank.attrib.worker_busy_us.size(), 2u);
    const double eff = rank.attrib.efficiency();
    EXPECT_GT(eff, 0.0);
    EXPECT_LE(eff, 1.0 + 1e-12);

    // Kernels swept entities and the step graphs attributed them.
    EXPECT_GT(rank.kernels[static_cast<std::size_t>(Kernel::getq)].items, 0);
    bool step_with_graph = false;
    for (const auto& s : rank.steps)
        if (s.graph_workers == 2 && s.cp_us > 0.0) step_with_graph = true;
    EXPECT_TRUE(step_with_graph);

    // The JSON shape: config/work_model/attribution present, per-kernel
    // achieved rates where work was counted.
    const auto text = bo::to_json(report).dump(2);
    EXPECT_NE(text.find("\"config\""), std::string::npos);
    EXPECT_NE(text.find("\"work_model\""), std::string::npos);
    EXPECT_NE(text.find("\"attribution\""), std::string::npos);
    EXPECT_NE(text.find("\"cp_us\""), std::string::npos);
    EXPECT_NE(text.find("\"gflops\""), std::string::npos);
    EXPECT_NE(text.find("\"roofline_ratio\""), std::string::npos);
    EXPECT_NE(bo::summary_table(report).find("critical path"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// The passivity matrix: attribution on == off, bitwise, everywhere
// ---------------------------------------------------------------------------

TEST(Attrib, AttributionOnIsBitwisePassiveAcrossRanksAndSchedules) {
    const auto p = sod_like(40, 2);
    struct Mode {
        const char* name;
        bookleaf::ale::Mode mode;
    };
    for (const auto& [name, mode] :
         {Mode{"lagrange", bookleaf::ale::Mode::lagrange},
          Mode{"eulerian", bookleaf::ale::Mode::eulerian},
          Mode{"ale", bookleaf::ale::Mode::ale}}) {
        for (const int n_ranks : {2, 4}) {
            bd::Options clean_opts;
            clean_opts.n_ranks = n_ranks;
            clean_opts.n_threads = 2;
            clean_opts.t_end = 0.02;
            clean_opts.hydro.dt_initial = 1e-4;
            clean_opts.ale.mode = mode;
            const auto clean = bd::run(p.mesh, p.materials, p.rho, p.ein,
                                       p.u, p.v, clean_opts);

            auto tel_opts = clean_opts;
            tel_opts.telemetry.enabled = true;
            const auto tel = bd::run(p.mesh, p.materials, p.rho, p.ein, p.u,
                                     p.v, tel_opts);
            EXPECT_TRUE(bd::bitwise_equal(clean, tel))
                << name << " on " << n_ranks << " ranks";
            EXPECT_EQ(tel.telemetry.config.n_ranks, n_ranks);
            EXPECT_EQ(tel.telemetry.config.n_threads, 2);
            EXPECT_TRUE(tel.telemetry.work.present);

            // Remap-bearing runs must carry graph analyses.
            if (mode != bookleaf::ale::Mode::lagrange) {
                long graphs = 0;
                for (const auto& r : tel.telemetry.ranks)
                    graphs += r.attrib.graphs;
                EXPECT_GT(graphs, 0) << name;
            }
        }
    }
}

TEST(Attrib, EpochOffsetsAlignOntoTheRunEpoch) {
    const auto p = sod_like(40, 2);
    bd::Options opts;
    opts.n_ranks = 4;
    opts.n_threads = 2;
    opts.t_end = 0.02;
    opts.hydro.dt_initial = 1e-4;
    opts.ale.mode = bookleaf::ale::Mode::eulerian;
    opts.telemetry.enabled = true;
    const auto r = bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);

    ASSERT_EQ(r.telemetry.ranks.size(), 4u);
    // Every rank stamps its epoch after the run's, so every offset onto
    // the run epoch's timeline is >= 0, rank 0's included.
    for (const auto& rank : r.telemetry.ranks)
        EXPECT_GE(rank.epoch_us, 0.0) << "rank " << rank.rank;
    // After alignment, the same-numbered step starts within the run's
    // wall-clock envelope on every rank (the ranks run concurrently).
    const double run_us = r.telemetry.wall_s * 1e6;
    for (const auto& rank : r.telemetry.ranks)
        for (const auto& s : rank.steps) {
            EXPECT_GE(s.start_us, 0.0);
            EXPECT_LT(s.start_us, run_us * 2.0 + 1e6);
        }
}

TEST(Attrib, TraceCarriesCriticalPathFlowArrows) {
    const auto path = ::testing::TempDir() + "attrib_trace_test.json";
    const auto p = sod_like(32, 2);
    bd::Options opts;
    opts.n_ranks = 2;
    opts.n_threads = 2;
    opts.t_end = 0.01;
    opts.hydro.dt_initial = 1e-4;
    opts.ale.mode = bookleaf::ale::Mode::eulerian;
    opts.telemetry.trace = path;
    const auto r = bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);
    ASSERT_GT(r.steps, 0);

    const auto doc = bo::read_json_file(path);
    const auto* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t starts = 0, finishes = 0;
    for (const auto& event : events->elements()) {
        const auto& ph = event.find("ph")->as_string();
        if (ph == "s") {
            ++starts;
            EXPECT_EQ(event.find("cat")->as_string(), "critical");
        } else if (ph == "f") {
            ++finishes;
        }
    }
    EXPECT_GT(starts, 0u) << "critical-path flow arrows must be emitted";
    EXPECT_EQ(starts, finishes);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Anomaly detection
// ---------------------------------------------------------------------------

TEST(Attrib, AnomalyFlagsTheSlowedRank) {
    const auto p = sod_like(40, 2);
    bd::Options opts;
    opts.n_ranks = 4;
    opts.t_end = 0.02;
    opts.hydro.dt_initial = 1e-4;
    opts.telemetry.enabled = true;
    opts.faults.slows.push_back({.rank = 1, .microseconds = 200});
    const auto r = bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);

    bool flagged = false;
    for (const auto& a : r.telemetry.anomalies) {
        EXPECT_GT(a.factor, opts.telemetry.anomaly_factor);
        if (a.rank == 1 && a.metric == "cross_rank") flagged = true;
    }
    EXPECT_TRUE(flagged)
        << "the slow_rank injection must surface as a cross_rank anomaly ("
        << r.telemetry.anomalies.size() << " anomalies found)";
    EXPECT_NE(bo::summary_table(r.telemetry).find("anomaly"),
              std::string::npos);
}

TEST(Attrib, CleanRunRaisesNoCrossRankAnomaly) {
    // Deterministic hand-built report: four ranks with matching per-item
    // costs — no anomaly; then one rank 8x off — flagged.
    bo::RunReport report;
    for (int r = 0; r < 4; ++r) {
        bo::RankRecord rec;
        rec.rank = r;
        rec.kernels[static_cast<std::size_t>(Kernel::getq)] = {
            0.4, 0.0, 100, 100000};
        report.ranks.push_back(std::move(rec));
    }
    EXPECT_TRUE(bo::detect_anomalies(report, 4.0).empty());

    report.ranks[2].kernels[static_cast<std::size_t>(Kernel::getq)].wall_s =
        3.2;
    const auto anomalies = bo::detect_anomalies(report, 4.0);
    ASSERT_EQ(anomalies.size(), 1u);
    EXPECT_EQ(anomalies[0].rank, 2);
    EXPECT_EQ(anomalies[0].kernel, Kernel::getq);
    EXPECT_EQ(anomalies[0].metric, "cross_rank");
    EXPECT_NEAR(anomalies[0].factor, 8.0, 1e-9);
}
