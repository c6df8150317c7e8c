// Telemetry subsystem tests: the ordered JSON value, the profiler's
// detail slots and trace sink, the report codecs, and — the load-bearing
// contract — telemetry being PASSIVE: off costs nothing and on never
// perturbs the trajectory, serial or distributed, at any rank count.
//
// Suite names all start with "Obs" deliberately: the CI TSan job's
// gtest filter targets the concurrency suites, and these run there via
// the plain jobs only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "setup/problems.hpp"
#include "util/error.hpp"
#include "util/profiler.hpp"

namespace bc = bookleaf::core;
namespace bd = bookleaf::dist;
namespace be = bookleaf::eos;
namespace bm = bookleaf::mesh;
namespace bo = bookleaf::obs;
namespace bs = bookleaf::setup;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;
using bu::Kernel;

namespace {

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

bd::Options base_opts(int n_ranks, Real t_end) {
    bd::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = t_end;
    opts.hydro.dt_initial = 1e-4;
    return opts;
}

bd::Result run_dist(const Problem& p, const bd::Options& opts) {
    return bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);
}

/// Copy of a report's JSON with every timing-dependent leaf removed:
/// keys ending `_s`/`_us`, the whole `imbalance` object (its ratio and
/// slowest rank are wall-clock artifacts), the blocking-wait detail
/// kernels (a wait is only *charged* when the poll actually blocks, so
/// even their call counts are timing), the attribution/anomaly blocks
/// (critical paths and flags are functions of measured durations), and
/// the per-kernel achieved-rate leaves (wall_s in denominator). What
/// remains must be byte-identical between two runs of the same problem.
bo::Json scrub_timings(const bo::Json& v) {
    if (v.is_object()) {
        auto out = bo::Json::object();
        for (const auto& [key, member] : v.members()) {
            if (key == "imbalance" || key == "halo_wait" ||
                key == "reduce_wait" || key == "attribution" ||
                key == "anomalies" || key == "gflops" || key == "gbs" ||
                key == "roofline_ratio")
                continue;
            if (key.size() >= 2 && key.rfind("_s") == key.size() - 2) continue;
            if (key.size() >= 3 && key.rfind("_us") == key.size() - 3)
                continue;
            out[key] = scrub_timings(member);
        }
        return out;
    }
    if (v.is_array()) {
        auto out = bo::Json::array();
        for (const auto& element : v.elements())
            out.push_back(scrub_timings(element));
        return out;
    }
    return v;
}

} // namespace

// ---------------------------------------------------------------------------
// The ordered JSON value
// ---------------------------------------------------------------------------

TEST(ObsJson, IntegersAndRealsStayDistinct) {
    auto v = bo::Json::object();
    v["steps"] = bo::Json(189);
    v["dt"] = bo::Json(0.25);
    v["three"] = bo::Json(3.0); // a real that happens to be integral
    const auto text = v.dump(2);
    EXPECT_NE(text.find("\"steps\": 189"), std::string::npos) << text;
    EXPECT_NE(text.find("\"dt\": 0.25"), std::string::npos) << text;
    // Integral reals keep a mantissa marker so parse() restores the kind.
    EXPECT_NE(text.find("\"three\": 3.0"), std::string::npos) << text;

    const auto back = bo::Json::parse(text);
    EXPECT_EQ(back.find("steps")->type(), bo::Json::Type::integer);
    EXPECT_EQ(back.find("dt")->type(), bo::Json::Type::real);
    EXPECT_EQ(back.find("three")->type(), bo::Json::Type::real);
}

TEST(ObsJson, ObjectsKeepInsertionOrderThroughRoundTrip) {
    auto v = bo::Json::object();
    v["zulu"] = bo::Json(1);
    v["alpha"] = bo::Json(2);
    v["mike"] = bo::Json("x");
    const auto text = v.dump(2);
    const auto back = bo::Json::parse(text);
    ASSERT_EQ(back.members().size(), 3u);
    EXPECT_EQ(back.members()[0].first, "zulu");
    EXPECT_EQ(back.members()[1].first, "alpha");
    EXPECT_EQ(back.members()[2].first, "mike");
    // Round-trip is a fixed point: parse(dump) dumps identically.
    EXPECT_EQ(bo::Json::parse(text).dump(2), text);
}

TEST(ObsJson, RealsRoundTripBitExactly) {
    const double values[] = {1.0 / 3.0, 6.64286e-7, 1e300, -0.0,
                             0.1 + 0.2, 189.00000000000003};
    for (const double d : values) {
        auto v = bo::Json::array();
        v.push_back(bo::Json(d));
        const auto back = bo::Json::parse(v.dump());
        ASSERT_EQ(back.size(), 1u);
        EXPECT_EQ(back.elements()[0].as_real(), d) << v.dump();
    }
}

TEST(ObsJson, StringsEscapeAndParse) {
    auto v = bo::Json::object();
    v["path"] = bo::Json(std::string("a\"b\\c\n\tz"));
    const auto back = bo::Json::parse(v.dump());
    EXPECT_EQ(back.find("path")->as_string(), "a\"b\\c\n\tz");
}

TEST(ObsJson, ParserRejectsMalformedInput) {
    EXPECT_THROW((void)bo::Json::parse("{\"a\": }"), bu::Error);
    EXPECT_THROW((void)bo::Json::parse("[1, 2"), bu::Error);
    EXPECT_THROW((void)bo::Json::parse("nul"), bu::Error);
    EXPECT_THROW((void)bo::Json::parse("{} trailing"), bu::Error);
}

// ---------------------------------------------------------------------------
// Profiler detail slots and the trace sink
// ---------------------------------------------------------------------------

TEST(ObsProfiler, DetailSlotsAreExcludedFromOverall) {
    bu::Profiler profiler;
    profiler.add_wall(Kernel::getq, 2.0);
    profiler.add_wall(Kernel::halo, 1.0);
    // The comm split refines `halo` over the same scopes; counting it in
    // overall would double-book the second.
    profiler.add_wall(Kernel::halo_wait, 0.75);
    profiler.add_wall(Kernel::halo_pack, 0.25);
    EXPECT_DOUBLE_EQ(profiler.overall_s(), 3.0);
    EXPECT_DOUBLE_EQ(profiler.stats(Kernel::halo_wait).wall_s, 0.75);

    EXPECT_FALSE(bu::kernel_is_detail(Kernel::getq));
    EXPECT_FALSE(bu::kernel_is_detail(Kernel::other));
    EXPECT_TRUE(bu::kernel_is_detail(Kernel::halo_pack));
    EXPECT_TRUE(bu::kernel_is_detail(Kernel::reduce_wait));
    EXPECT_TRUE(bu::kernel_is_detail(Kernel::ale_nodes));
}

TEST(ObsProfiler, TraceSinkRecordsScopesAndDetaches) {
    bu::Profiler profiler;
    std::vector<bu::TraceEvent> sink;
    profiler.set_trace(&sink, std::chrono::steady_clock::now());
    {
        const bu::ScopedTimer timer(profiler, Kernel::getacc);
    }
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink[0].kernel, Kernel::getacc);
    EXPECT_GE(sink[0].t0_us, 0.0);
    EXPECT_GE(sink[0].dur_us, 0.0);
    EXPECT_GT(profiler.stats(Kernel::getacc).calls, 0);

    profiler.set_trace(nullptr);
    {
        const bu::ScopedTimer timer(profiler, Kernel::getq);
    }
    EXPECT_EQ(sink.size(), 1u) << "detached sink must stop appends";
}

// ---------------------------------------------------------------------------
// Report codecs
// ---------------------------------------------------------------------------

TEST(ObsReport, DtReasonCodesRoundTrip) {
    for (const char* reason : {"initial", "CFL", "divergence", "growth",
                               "maximum", "t_end", "regrow", "health-retry"}) {
        const int code = bo::dt_reason_code(reason);
        EXPECT_GT(code, 0) << reason;
        EXPECT_EQ(bo::dt_reason_name(code), reason);
    }
    EXPECT_EQ(bo::dt_reason_code("no-such-constraint"), 0);
}

TEST(ObsReport, PackUnpackRoundTripsRankRecord) {
    bo::RankRecord rec;
    rec.rank = 3;
    bo::StepRecord s0{.step = 0, .t = 1e-4, .dt = 1e-4, .dt_local = 9e-5,
                      .dt_reason = bo::dt_reason_code("CFL"),
                      .start_us = 12.5, .wall_us = 101.25, .retries = 2,
                      .remapped = true};
    bo::StepRecord s1{.step = 1, .t = 2e-4, .dt = 1.08e-4,
                      .dt_local = 1.08e-4,
                      .dt_reason = bo::dt_reason_code("growth"),
                      .start_us = 140.0, .wall_us = 88.0};
    rec.steps = {s0, s1};
    rec.kernels[static_cast<std::size_t>(Kernel::getq)] = {0.5, 0.0, 40};
    rec.kernels[static_cast<std::size_t>(Kernel::halo_wait)] = {0.125, 0.0, 7};

    const auto back = bo::unpack_rank(bo::pack_rank(rec));
    EXPECT_EQ(back.rank, 3);
    ASSERT_EQ(back.steps.size(), 2u);
    EXPECT_EQ(back.steps[0].step, 0);
    EXPECT_EQ(back.steps[0].dt_local, 9e-5);
    EXPECT_EQ(back.steps[0].retries, 2);
    EXPECT_TRUE(back.steps[0].remapped);
    EXPECT_EQ(bo::dt_reason_name(back.steps[1].dt_reason), "growth");
    EXPECT_EQ(back.steps[1].wall_us, 88.0);
    EXPECT_FALSE(back.steps[1].remapped);
    EXPECT_EQ(back.kernels[static_cast<std::size_t>(Kernel::getq)].calls, 40);
    EXPECT_EQ(
        back.kernels[static_cast<std::size_t>(Kernel::halo_wait)].wall_s,
        0.125);

    EXPECT_THROW((void)bo::unpack_rank({1.0, 2.0}), bu::Error);
}

TEST(ObsReport, ImbalanceComparesBusyTimeNotBlockedWaits) {
    // Three ranks whose step wall times match, as they do when per-step
    // collectives hold every rank to the slowest: only rank 1 was busy
    // for all of it, the others waited on halos and reductions.
    std::vector<bo::RankRecord> ranks(3);
    const double wait_s[3][2] = {{0.75, 0.0}, {0.0, 0.0}, {0.25, 0.5}};
    for (int r = 0; r < 3; ++r) {
        auto& rec = ranks[static_cast<std::size_t>(r)];
        rec.rank = r;
        rec.steps = {bo::StepRecord{.step = 0, .wall_us = 0.5e6},
                     bo::StepRecord{.step = 1, .wall_us = 0.5e6}};
        rec.kernels[static_cast<std::size_t>(Kernel::halo_wait)].wall_s =
            wait_s[r][0];
        rec.kernels[static_cast<std::size_t>(Kernel::reduce_wait)].wall_s =
            wait_s[r][1];
    }
    EXPECT_DOUBLE_EQ(ranks[0].step_wall_s(), ranks[1].step_wall_s());
    EXPECT_DOUBLE_EQ(ranks[0].busy_s(), 0.25);
    EXPECT_DOUBLE_EQ(ranks[2].busy_s(), 0.25);

    const auto imb = bo::imbalance_of(ranks);
    EXPECT_EQ(imb.slowest_rank, 1);
    EXPECT_DOUBLE_EQ(imb.max_rank_s, 1.0);
    EXPECT_DOUBLE_EQ(imb.mean_rank_s, 0.5);
    EXPECT_DOUBLE_EQ(imb.max_over_mean, 2.0);
}

// ---------------------------------------------------------------------------
// Serial driver integration
// ---------------------------------------------------------------------------

TEST(ObsSerial, TelemetryOnDoesNotPerturbTheRun) {
    auto with = bs::sod(32, 2);
    with.telemetry.enabled = true;
    bc::Hydro h_with(std::move(with));
    bc::Hydro h_without(bs::sod(32, 2));
    h_with.run(std::nullopt, 30);
    h_without.run(std::nullopt, 30);
    EXPECT_EQ(h_with.steps(), h_without.steps());
    EXPECT_EQ(h_with.time(), h_without.time());
    EXPECT_EQ(h_with.state().rho, h_without.state().rho);
    EXPECT_EQ(h_with.state().ein, h_without.state().ein);
    EXPECT_EQ(h_with.state().u, h_without.state().u);
    EXPECT_EQ(h_with.state().v, h_without.state().v);
}

TEST(ObsSerial, ReportShapeMatchesTheRun) {
    auto problem = bs::sod(32, 2);
    problem.telemetry.enabled = true;
    bc::Hydro hydro(std::move(problem));
    hydro.run(std::nullopt, 25);
    const auto report = hydro.telemetry_report();

    EXPECT_EQ(report.schema, "bookleaf.telemetry/1");
    EXPECT_EQ(report.mode, "serial");
    EXPECT_EQ(report.n_ranks, 1);
    EXPECT_EQ(report.steps, 25);
    ASSERT_EQ(report.ranks.size(), 1u);
    const auto& rank = report.ranks[0];
    ASSERT_EQ(rank.steps.size(), 25u);
    double prev_start = -1.0;
    for (std::size_t i = 0; i < rank.steps.size(); ++i) {
        const auto& s = rank.steps[i];
        EXPECT_EQ(s.step, static_cast<long>(i));
        EXPECT_GT(s.dt, 0.0);
        EXPECT_GT(s.start_us, prev_start);
        prev_start = s.start_us;
    }
    EXPECT_GT(rank.kernels[static_cast<std::size_t>(Kernel::getq)].calls, 0);

    // The report serializes and round-trips through the parser.
    const auto doc = bo::to_json(report);
    EXPECT_EQ(bo::Json::parse(doc.dump(2)).dump(2), doc.dump(2));
    EXPECT_NE(bo::summary_table(report).find("Viscosity"), std::string::npos);
}

TEST(ObsSerial, WallTimeCoversStepDrivenRuns) {
    // A loop that drives step() alone (as bookleaf_main does for all but
    // its last steps) must still report the wall time of every step: the
    // run's wall time is the sum of its step records' wall times.
    auto problem = bs::sod(32, 2);
    problem.telemetry.enabled = true;
    bc::Hydro hydro(std::move(problem));
    for (int i = 0; i < 12; ++i) hydro.step();
    const auto report = hydro.telemetry_report();
    const auto& steps = report.ranks.at(0).steps;
    ASSERT_EQ(steps.size(), 12u);
    double sum_us = 0.0;
    for (const auto& s : steps) sum_us += s.wall_us;
    EXPECT_GT(report.wall_s, 0.0);
    EXPECT_NEAR(report.wall_s, 1e-6 * sum_us, 1e-12 + 1e-9 * report.wall_s);
}

TEST(ObsSerial, StepLoopEndingInRunPrintsTheSummaryOnce) {
    // run() writes the telemetry sinks; a caller's final write with no
    // step taken since must not print the summary a second time.
    auto problem = bs::sod(32, 2);
    problem.telemetry.enabled = true;
    problem.telemetry.summary = true;
    bc::Hydro hydro(std::move(problem));
    testing::internal::CaptureStdout();
    for (int i = 0; i < 5; ++i) hydro.step();
    hydro.run(std::nullopt, 10);
    hydro.write_telemetry();
    const std::string out = testing::internal::GetCapturedStdout();
    std::size_t summaries = 0;
    for (auto at = out.find("telemetry: "); at != std::string::npos;
         at = out.find("telemetry: ", at + 1))
        ++summaries;
    EXPECT_EQ(summaries, 1u) << out;
}

// ---------------------------------------------------------------------------
// Distributed driver integration
// ---------------------------------------------------------------------------

TEST(ObsDist, TelemetryOnIsBitwisePassiveAcrossModesAndRanks) {
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
            auto clean_opts = base_opts(n_ranks, 0.02);
            clean_opts.ale.mode = mode;
            const auto clean = run_dist(p, clean_opts);

            auto tel_opts = clean_opts;
            tel_opts.telemetry.enabled = true;
            const auto tel = run_dist(p, tel_opts);
            EXPECT_TRUE(bd::bitwise_equal(clean, tel))
                << name << " on " << n_ranks << " ranks";
            EXPECT_EQ(tel.telemetry.mode, "distributed");
            EXPECT_EQ(tel.telemetry.n_ranks, n_ranks);
            EXPECT_EQ(tel.telemetry.steps, tel.steps);
        }
    }
}

TEST(ObsDist, ReportIsDeterministicUpToTimings) {
    const auto p = sod_like(40, 2);
    auto opts = base_opts(4, 0.02);
    opts.ale.mode = bookleaf::ale::Mode::eulerian;
    opts.telemetry.enabled = true;
    opts.telemetry.label = "determinism";
    const auto a = run_dist(p, opts);
    const auto b = run_dist(p, opts);
    const auto scrubbed_a = scrub_timings(bo::to_json(a.telemetry)).dump(2);
    const auto scrubbed_b = scrub_timings(bo::to_json(b.telemetry)).dump(2);
    EXPECT_EQ(scrubbed_a, scrubbed_b);
}

TEST(ObsDist, PeerCountersSumToHubTraffic) {
    const auto p = sod_like(40, 2);
    auto opts = base_opts(4, 0.02);
    opts.telemetry.enabled = true;
    const auto r = run_dist(p, opts);

    long messages = 0;
    long long reals = 0;
    for (const auto& rank : r.telemetry.ranks)
        for (const auto& peer : rank.sent) {
            messages += peer.messages;
            reals += peer.reals;
        }
    EXPECT_EQ(messages, r.traffic.messages);
    EXPECT_EQ(reals, r.traffic.reals);

    // An undisturbed run passes the wire-format self-check.
    EXPECT_TRUE(r.telemetry.wire.checked);
    EXPECT_TRUE(r.telemetry.wire.match)
        << "expected " << r.telemetry.wire.expected << ", measured "
        << r.telemetry.wire.measured;
    EXPECT_EQ(r.telemetry.wire.measured, r.traffic.messages);
}

TEST(ObsDist, WireCheckCoversRemapAndPerFieldPacking) {
    const auto p = sod_like(40, 2);
    auto opts = base_opts(3, 0.02);
    opts.ale.mode = bookleaf::ale::Mode::ale;
    opts.ale.frequency = 3;
    opts.telemetry.enabled = true;
    const auto r = run_dist(p, opts);
    ASSERT_TRUE(r.telemetry.wire.checked);
    EXPECT_TRUE(r.telemetry.wire.match)
        << "expected " << r.telemetry.wire.expected << ", measured "
        << r.telemetry.wire.measured;
}

TEST(ObsDist, ImbalanceFlagsTheSlowedRank) {
    const auto p = sod_like(40, 2);
    auto opts = base_opts(4, 0.02);
    opts.telemetry.enabled = true;
    opts.faults.slows.push_back({.rank = 1, .microseconds = 200});
    const auto r = run_dist(p, opts);

    const auto& imbalance = r.telemetry.imbalance;
    EXPECT_EQ(imbalance.slowest_rank, 1);
    EXPECT_GT(imbalance.max_over_mean, 1.001);
    EXPECT_GT(imbalance.max_rank_s, imbalance.mean_rank_s);
    // Scripted faults perturb the message schedule; the wire self-check
    // stands down rather than report a false mismatch.
    EXPECT_FALSE(r.telemetry.wire.checked);
}

TEST(ObsDist, TraceFileIsWellFormedChromeJson) {
    const auto path = ::testing::TempDir() + "obs_trace_test.json";
    const auto p = sod_like(32, 2);
    auto opts = base_opts(4, 0.01);
    opts.telemetry.trace = path;
    const auto r = run_dist(p, opts);
    ASSERT_GT(r.steps, 0);

    const auto doc = bo::read_json_file(path);
    const auto* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    std::set<long long> span_tids;
    std::size_t metadata = 0;
    for (const auto& event : events->elements()) {
        const auto& ph = event.find("ph")->as_string();
        if (ph == "M") {
            ++metadata;
            continue;
        }
        EXPECT_GE(event.find("ts")->as_real(), 0.0);
        if (ph == "s" || ph == "f") {
            // The ranks' step graphs add critical-path flow arrows.
            EXPECT_EQ(event.find("cat")->as_string(), "critical");
            continue;
        }
        ASSERT_EQ(ph, "X");
        span_tids.insert(event.find("tid")->as_int());
        EXPECT_GE(event.find("dur")->as_real(), 0.0);
        EXPECT_FALSE(event.find("name")->as_string().empty());
    }
    EXPECT_EQ(metadata, 4u) << "one thread_name record per rank";
    EXPECT_EQ(span_tids, (std::set<long long>{0, 1, 2, 3}));
    std::remove(path.c_str());
}
