// Live monitoring tests: window folding, the bounded step ring, the
// tag-502 stream + per-window imbalance assembly, the NDJSON event
// stream, the non-finite JSON encoding, and the hang-detection watchdog
// (deterministic decision core, no-false-positive under a slow rank,
// firing under a delay-held rank, and escalation into the supervised
// recovery loop).
//
// Suite names all start with "Live"/"Watchdog" deliberately: the CI TSan
// job's gtest filter includes them (the watchdog supervisor thread and
// the per-rank progress atomics are exactly what TSan should see).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/telemetry.hpp"
#include "setup/deck.hpp"
#include "setup/problems.hpp"
#include "util/error.hpp"

namespace bc = bookleaf::core;
namespace bd = bookleaf::dist;
namespace be = bookleaf::eos;
namespace bm = bookleaf::mesh;
namespace bo = bookleaf::obs;
namespace bs = bookleaf::setup;
namespace bt = bookleaf::typhon;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

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

bo::StepRecord make_step(long step, double wall_us, int retries = 0,
                         bool remapped = false) {
    bo::StepRecord s;
    s.step = step;
    s.t = 1e-4 * static_cast<double>(step + 1);
    s.dt = 1e-4;
    s.wall_us = wall_us;
    s.retries = retries;
    s.remapped = remapped;
    return s;
}

bo::WindowRecord make_window(int rank, long index, double wall_us) {
    bo::WindowRecord w;
    w.rank = rank;
    w.index = index;
    w.first_step = index * 2;
    w.last_step = index * 2 + 1;
    w.steps = 2;
    w.wall_us = wall_us;
    return w;
}

/// Parse every line of an NDJSON file; asserts each line is a complete
/// JSON object and returns them in order.
std::vector<bo::Json> read_ndjson(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<bo::Json> events;
    std::string line;
    while (std::getline(in, line)) {
        EXPECT_FALSE(line.empty());
        events.push_back(bo::Json::parse(line));
        EXPECT_TRUE(events.back().is_object());
    }
    return events;
}

std::string event_of(const bo::Json& e) {
    const auto* kind = e.find("event");
    EXPECT_NE(kind, nullptr);
    return kind != nullptr ? kind->as_string() : std::string{};
}

} // namespace

// ---------------------------------------------------------------------------
// Window folding
// ---------------------------------------------------------------------------

TEST(LiveFold, WindowFolderFoldsEveryN) {
    bo::WindowFolder folder(2, 3);
    std::vector<bo::WindowRecord> windows;
    for (long s = 0; s < 8; ++s) {
        auto w = folder.add(make_step(s, 100.0 + static_cast<double>(s),
                                      s == 4 ? 2 : 0, s % 2 == 1));
        if (w) windows.push_back(*w);
    }
    // 8 steps at window 3: two complete windows, a 2-step tail pending.
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(folder.produced(), 2);

    EXPECT_EQ(windows[0].rank, 2);
    EXPECT_EQ(windows[0].index, 0);
    EXPECT_EQ(windows[0].first_step, 0);
    EXPECT_EQ(windows[0].last_step, 2);
    EXPECT_EQ(windows[0].steps, 3);
    EXPECT_DOUBLE_EQ(windows[0].wall_us, 100.0 + 101.0 + 102.0);
    EXPECT_DOUBLE_EQ(windows[0].max_step_us, 102.0);
    EXPECT_DOUBLE_EQ(windows[0].mean_step_us(), windows[0].wall_us / 3.0);
    EXPECT_EQ(windows[0].retries, 0);
    EXPECT_EQ(windows[0].remaps, 1); // step 1

    EXPECT_EQ(windows[1].index, 1);
    EXPECT_EQ(windows[1].first_step, 3);
    EXPECT_EQ(windows[1].last_step, 5);
    EXPECT_EQ(windows[1].retries, 2); // step 4
    EXPECT_EQ(windows[1].remaps, 2);  // steps 3 and 5
    EXPECT_DOUBLE_EQ(windows[1].t, make_step(5, 0).t);
}

TEST(LiveFold, WindowFolderRejectsNonPositiveWindow) {
    EXPECT_THROW(bo::WindowFolder(0, 0), bu::Error);
    EXPECT_THROW(bo::WindowFolder(0, -3), bu::Error);
}

TEST(LiveFold, StepRingEvictsAndFoldsExactly) {
    bo::StepRing ring(4);
    for (long s = 0; s < 10; ++s)
        ring.push(make_step(s, 10.0, s == 2 ? 1 : 0, s == 1));
    EXPECT_EQ(ring.total(), 10);
    ASSERT_EQ(ring.steps().size(), 4u);
    EXPECT_EQ(ring.steps().front().step, 6);
    EXPECT_EQ(ring.steps().back().step, 9);

    // Steps 0..5 were evicted and folded: nothing lost.
    const auto& ev = ring.evicted();
    EXPECT_EQ(ev.steps, 6);
    EXPECT_EQ(ev.first_step, 0);
    EXPECT_EQ(ev.last_step, 5);
    EXPECT_DOUBLE_EQ(ev.wall_us, 60.0);
    EXPECT_EQ(ev.retries, 1);
    EXPECT_EQ(ev.remaps, 1);

    // Retained + evicted reconstruct the exact totals.
    double total_wall = ev.wall_us;
    for (const auto& s : ring.take()) total_wall += s.wall_us;
    EXPECT_DOUBLE_EQ(total_wall, 100.0);
}

TEST(LiveFold, StepRingUnboundedKeepsEverything) {
    bo::StepRing ring(0);
    for (long s = 0; s < 100; ++s) ring.push(make_step(s, 1.0));
    EXPECT_EQ(ring.steps().size(), 100u);
    EXPECT_EQ(ring.evicted().steps, 0);
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(LiveCodec, WindowRoundTripsThroughTheWire) {
    bo::WindowRecord w = make_window(3, 7, 1234.5);
    w.t = 0.125;
    w.max_step_us = 99.5;
    w.halo_wait_us = 10.25;
    w.reduce_wait_us = 4.75;
    w.retries = 2;
    w.remaps = 1;
    w.items = 123456789;

    const auto buf = bo::pack_window(w);
    ASSERT_EQ(buf.size(), bo::window_reals);
    const auto back = bo::unpack_window(buf);
    EXPECT_EQ(back.rank, w.rank);
    EXPECT_EQ(back.index, w.index);
    EXPECT_EQ(back.first_step, w.first_step);
    EXPECT_EQ(back.last_step, w.last_step);
    EXPECT_EQ(back.steps, w.steps);
    EXPECT_DOUBLE_EQ(back.t, w.t);
    EXPECT_DOUBLE_EQ(back.wall_us, w.wall_us);
    EXPECT_DOUBLE_EQ(back.max_step_us, w.max_step_us);
    EXPECT_DOUBLE_EQ(back.halo_wait_us, w.halo_wait_us);
    EXPECT_DOUBLE_EQ(back.reduce_wait_us, w.reduce_wait_us);
    EXPECT_EQ(back.retries, w.retries);
    EXPECT_EQ(back.remaps, w.remaps);
    EXPECT_EQ(back.items, w.items);
}

TEST(LiveCodec, MalformedWindowBufferThrows) {
    std::vector<Real> buf(bo::window_reals - 1, 0.0);
    EXPECT_THROW(static_cast<void>(bo::unpack_window(buf)), bu::Error);
    buf.assign(bo::window_reals + 1, 0.0);
    EXPECT_THROW(static_cast<void>(bo::unpack_window(buf)), bu::Error);
}

// ---------------------------------------------------------------------------
// Rank-0 assembly + per-window imbalance
// ---------------------------------------------------------------------------

TEST(LiveAssembly, WindowImbalanceMatchesTheDefinition) {
    const std::vector<bo::WindowRecord> ranks = {
        make_window(0, 0, 1.0e6), make_window(1, 0, 3.0e6),
        make_window(2, 0, 2.0e6)};
    const auto imb = bo::window_imbalance(ranks);
    EXPECT_DOUBLE_EQ(imb.mean_rank_s, 2.0);
    EXPECT_DOUBLE_EQ(imb.max_rank_s, 3.0);
    EXPECT_DOUBLE_EQ(imb.max_over_mean, 1.5);
    EXPECT_EQ(imb.slowest_rank, 1);
}

TEST(LiveAssembly, WindowImbalanceDiscountsBlockedWaits) {
    // Equal window wall times; rank 2 spent none of it blocked on peers.
    std::vector<bo::WindowRecord> ranks = {make_window(0, 0, 2.0e6),
                                           make_window(1, 0, 2.0e6),
                                           make_window(2, 0, 2.0e6)};
    ranks[0].halo_wait_us = 1.5e6;
    ranks[1].halo_wait_us = 0.5e6;
    ranks[1].reduce_wait_us = 1.0e6;
    EXPECT_DOUBLE_EQ(ranks[1].busy_us(), 0.5e6);
    const auto imb = bo::window_imbalance(ranks);
    EXPECT_DOUBLE_EQ(imb.mean_rank_s, 1.0);
    EXPECT_DOUBLE_EQ(imb.max_rank_s, 2.0);
    EXPECT_DOUBLE_EQ(imb.max_over_mean, 2.0);
    EXPECT_EQ(imb.slowest_rank, 2);
}

TEST(LiveAssembly, AssemblerCompletesWindowsInOrder) {
    bo::LiveAssembler asm3(3);
    // Interleaved arrivals: window 0 completes only once all three ranks
    // delivered; a rank running ahead queues without completing anything.
    EXPECT_TRUE(asm3.add(make_window(0, 0, 1.0)).empty());
    EXPECT_TRUE(asm3.add(make_window(0, 1, 1.0)).empty());
    EXPECT_TRUE(asm3.add(make_window(2, 0, 1.0)).empty());
    auto done = asm3.add(make_window(1, 0, 2.0));
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].index, 0);
    ASSERT_EQ(done[0].ranks.size(), 3u);
    EXPECT_EQ(done[0].ranks[0].rank, 0);
    EXPECT_EQ(done[0].ranks[1].rank, 1);
    EXPECT_EQ(done[0].ranks[2].rank, 2);
    EXPECT_EQ(done[0].imbalance.slowest_rank, 1);

    // The queued rank-0 window now completes window 1 in one arrival
    // burst from the stragglers.
    EXPECT_TRUE(asm3.add(make_window(1, 1, 1.0)).empty());
    done = asm3.add(make_window(2, 1, 1.0));
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].index, 1);
    EXPECT_EQ(asm3.completed(), 2);
}

TEST(LiveAssembly, AssemblerRejectsOutOfRangeRank) {
    bo::LiveAssembler asm2(2);
    EXPECT_THROW(static_cast<void>(asm2.add(make_window(2, 0, 1.0))),
                 bu::Error);
    EXPECT_THROW(static_cast<void>(asm2.add(make_window(-1, 0, 1.0))),
                 bu::Error);
}

// ---------------------------------------------------------------------------
// NDJSON stream + non-finite JSON encoding
// ---------------------------------------------------------------------------

TEST(LiveStreamTest, EmitsOneFlushedLinePerEventWithMonotoneSeq) {
    const std::string path = "live_stream_unit.ndjson";
    {
        bo::LiveStream stream(path);
        ASSERT_TRUE(stream.open());
        for (int i = 0; i < 5; ++i) {
            auto ev = bo::Json::object();
            ev["event"] = "window";
            ev["i"] = i;
            stream.emit(std::move(ev));
        }
        EXPECT_EQ(stream.events(), 5);
    }
    const auto events = read_ndjson(path);
    ASSERT_EQ(events.size(), 5u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(event_of(events[i]), "window");
        EXPECT_EQ(events[i].find("seq")->as_int(),
                  static_cast<long long>(i));
        EXPECT_EQ(events[i].find("i")->as_int(), static_cast<long long>(i));
    }
    std::remove(path.c_str());
}

TEST(LiveStreamTest, ClosedStreamIsANoOp) {
    bo::LiveStream stream; // default: closed
    EXPECT_FALSE(stream.open());
    auto ev = bo::Json::object();
    ev["event"] = "window";
    stream.emit(std::move(ev)); // must not throw
    EXPECT_EQ(stream.events(), 0);
}

TEST(LiveJson, NonFiniteRealsEncodeAsDeterministicMarkers) {
    auto v = bo::Json::object();
    v["nan"] = bo::Json(std::nan(""));
    v["inf"] = bo::Json(std::numeric_limits<double>::infinity());
    v["ninf"] = bo::Json(-std::numeric_limits<double>::infinity());
    v["ok"] = bo::Json(1.5);
    const auto text = v.dump(0);
    EXPECT_NE(text.find("{\"value\":null,\"nonfinite\":\"nan\"}"),
              std::string::npos);
    EXPECT_NE(text.find("{\"value\":null,\"nonfinite\":\"inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("{\"value\":null,\"nonfinite\":\"-inf\"}"),
              std::string::npos);

    // The encoding is valid JSON and stable under parse + re-dump.
    const auto back = bo::Json::parse(text);
    EXPECT_EQ(back.dump(0), text);
    const auto* marker = back.find("nan");
    ASSERT_NE(marker, nullptr);
    EXPECT_TRUE(marker->find("value")->is_null());
    EXPECT_EQ(marker->find("nonfinite")->as_string(), "nan");
}

TEST(LiveJson, ParserRejectsBareNonFiniteSpellings) {
    EXPECT_THROW(bo::Json::parse("nan"), bu::Error);
    EXPECT_THROW(bo::Json::parse("inf"), bu::Error);
    EXPECT_THROW(bo::Json::parse("-inf"), bu::Error);
    EXPECT_THROW(bo::Json::parse("{\"x\": nan}"), bu::Error);
    EXPECT_THROW(bo::Json::parse("[Infinity]"), bu::Error);
}

// ---------------------------------------------------------------------------
// Deck keys
// ---------------------------------------------------------------------------

TEST(LiveDeck, ParsesTelemetryLiveKeys) {
    const auto deck = bs::Deck::parse_string(
        "[telemetry]\n"
        "window_steps = 8\n"
        "live = run.ndjson\n"
        "watchdog_factor = 2.5\n"
        "watchdog_grace_ms = 100\n"
        "watchdog_escalate = true\n"
        "max_steps = 500\n");
    const auto p = bs::make_problem(deck);
    EXPECT_EQ(p.telemetry.window_steps, 8);
    EXPECT_EQ(p.telemetry.live, "run.ndjson");
    EXPECT_DOUBLE_EQ(p.telemetry.watchdog_factor, 2.5);
    EXPECT_EQ(p.telemetry.watchdog_grace_ms, 100);
    EXPECT_TRUE(p.telemetry.watchdog_escalate);
    EXPECT_EQ(p.telemetry.max_steps, 500);
    EXPECT_TRUE(p.telemetry.active());
    EXPECT_TRUE(p.telemetry.live_active());
}

TEST(LiveDeck, RejectsNegativeLiveKeys) {
    EXPECT_THROW(bs::make_problem(bs::Deck::parse_string(
                     "[telemetry]\nwindow_steps = -1\n")),
                 bu::Error);
    EXPECT_THROW(bs::make_problem(bs::Deck::parse_string(
                     "[telemetry]\nwatchdog_factor = -0.5\n")),
                 bu::Error);
    EXPECT_THROW(bs::make_problem(bs::Deck::parse_string(
                     "[telemetry]\nmax_steps = -2\n")),
                 bu::Error);
}

// ---------------------------------------------------------------------------
// Watchdog decision core (deterministic, synthetic clock)
// ---------------------------------------------------------------------------

TEST(Watchdog, CheckFlagsSilentRankDeterministically) {
    bo::Watchdog dog(3, 2.0, 10.0, false);
    // Every rank delivers windows at a steady 100 ms cadence...
    for (int arrival = 1; arrival <= 3; ++arrival)
        for (int r = 0; r < 3; ++r)
            dog.note_window_at(r, 100.0 * arrival);
    // ...then rank 1 goes silent. Threshold = 2 x EWMA(100) + 10 = 210 ms.
    dog.note_window_at(0, 400.0);
    dog.note_window_at(2, 400.0);
    EXPECT_TRUE(dog.check(450.0).empty()); // rank 1 silent 150 < 210
    const auto stalls = dog.check(550.0);  // silent 250 > 210
    ASSERT_EQ(stalls.size(), 1u);
    EXPECT_EQ(stalls[0].rank, 1);
    EXPECT_EQ(stalls[0].windows, 3);
    EXPECT_DOUBLE_EQ(stalls[0].silent_ms, 250.0);
    EXPECT_DOUBLE_EQ(stalls[0].threshold_ms, 210.0);
    EXPECT_FALSE(stalls[0].escalated);

    // Flag-once: still silent, but not re-reported...
    EXPECT_TRUE(dog.check(600.0).empty());
    // ...until a window resumes, after which a new stall can flag again
    // (refresh every rank so only the flag-reset is under test).
    for (int r = 0; r < 3; ++r) dog.note_window_at(r, 620.0);
    EXPECT_TRUE(dog.check(700.0).empty());
}

TEST(Watchdog, RankWithNoArrivalsBorrowsTheMeanCadence) {
    bo::Watchdog dog(2, 2.0, 50.0, false);
    // No rank has delivered anything: no basis, no flags.
    EXPECT_TRUE(dog.check(10000.0).empty());
    // Rank 0 establishes a 100 ms cadence; rank 1 never delivers. Rank 1's
    // threshold borrows rank 0's EWMA, measured from the run start.
    dog.note_window_at(0, 100.0);
    dog.note_window_at(0, 200.0);
    dog.note_window_at(0, 300.0);
    dog.note_window_at(0, 380.0);
    const auto stalls = dog.check(400.0);
    ASSERT_EQ(stalls.size(), 1u);
    EXPECT_EQ(stalls[0].rank, 1);
    EXPECT_EQ(stalls[0].windows, 0);
    EXPECT_EQ(stalls[0].last_step, -1);
}

TEST(Watchdog, EscalationPoisonsTheStalledRank) {
    bo::Watchdog dog(2, 2.0, 10.0, true);
    EXPECT_FALSE(dog.note_step(1, 0));
    dog.note_window_at(0, 100.0);
    dog.note_window_at(0, 200.0);
    // Keep rank 0 fresh so only the silent rank 1 can flag at 500 ms.
    dog.note_window_at(0, 480.0);
    const auto stalls = dog.check(500.0);
    ASSERT_EQ(stalls.size(), 1u);
    EXPECT_EQ(stalls[0].rank, 1);
    EXPECT_TRUE(stalls[0].escalated);
    // The poisoned rank's next progress tick tells it to throw.
    EXPECT_TRUE(dog.note_step(1, 1));
    EXPECT_FALSE(dog.note_step(0, 1));
    EXPECT_THROW(throw bo::StallEscalated(1), bu::Error);
}

TEST(Watchdog, SessionPollsAndReportsOnTheSupervisorThread) {
    bo::Watchdog dog(2, 2.0, 5.0, false);
    // Prime rank 0 with a 200 ms synthetic cadence: rank 1 (silent since
    // run start) crosses its borrowed threshold at ~405 ms on the real
    // clock, while rank 0 would not flag before ~805 ms — the session is
    // long gone by then, so exactly one stall can fire.
    dog.note_window_at(0, 200.0);
    dog.note_window_at(0, 400.0);
    std::atomic<int> fired{0};
    std::atomic<int> rank{-1};
    {
        bo::WatchdogSession session(dog, 5.0,
                                    [&](const bo::Watchdog::Stall& st) {
                                        ++fired;
                                        rank = st.rank;
                                    });
        const auto deadline = dog.now_ms() + 5000.0;
        while (fired.load() == 0 && dog.now_ms() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(fired.load(), 1); // flag-once
    EXPECT_EQ(rank.load(), 1);
}

// ---------------------------------------------------------------------------
// Distributed integration: the stream, passivity, the watchdog
// ---------------------------------------------------------------------------

TEST(LiveDist, StreamsWindowsAndAssemblesTheOnlineImbalance) {
    const auto p = sod_like(24, 4);
    const std::string path = "live_dist_stream.ndjson";
    auto opts = base_opts(3, 0.01);
    opts.telemetry.window_steps = 4;
    opts.telemetry.live = path;
    std::vector<long> seen;
    opts.on_window = [&](const bo::LiveWindow& w) {
        seen.push_back(w.index);
        EXPECT_EQ(w.ranks.size(), 3u);
        for (int r = 0; r < 3; ++r) {
            EXPECT_EQ(w.ranks[static_cast<std::size_t>(r)].rank, r);
            EXPECT_EQ(w.ranks[static_cast<std::size_t>(r)].index, w.index);
        }
        EXPECT_GE(w.imbalance.max_over_mean, 1.0);
    };
    const auto result = run_dist(p, opts);

    // Every rank stepped the same count: windows = steps / window_steps,
    // delivered to the callback in order and retained on the result.
    const long expect = result.steps / 4;
    ASSERT_GT(expect, 0);
    ASSERT_EQ(result.windows.size(), static_cast<std::size_t>(expect));
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(expect));
    for (long i = 0; i < expect; ++i) {
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(result.windows[static_cast<std::size_t>(i)].index, i);
    }
    // The report retains the same windows per rank, and the wire
    // self-check still passes with the tag-502 sends accounted.
    ASSERT_EQ(result.telemetry.ranks.size(), 3u);
    for (const auto& rank : result.telemetry.ranks)
        EXPECT_EQ(rank.windows.size(), static_cast<std::size_t>(expect));
    EXPECT_TRUE(result.telemetry.wire.checked);
    EXPECT_TRUE(result.telemetry.wire.match);

    // NDJSON: every line parses, seq is exactly 0..n-1, run_start leads,
    // run_end closes, and the window/imbalance counts are consistent.
    const auto events = read_ndjson(path);
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(event_of(events.front()), "run_start");
    EXPECT_EQ(events.front().find("schema")->as_string(), "bookleaf.live/1");
    EXPECT_EQ(event_of(events.back()), "run_end");
    long windows = 0, imbalances = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].find("seq")->as_int(),
                  static_cast<long long>(i));
        const auto kind = event_of(events[i]);
        if (kind == "window") ++windows;
        if (kind == "imbalance") ++imbalances;
    }
    EXPECT_EQ(windows, expect * 3);
    EXPECT_EQ(imbalances, expect);
    EXPECT_EQ(events.back().find("windows")->as_int(), expect);
    EXPECT_EQ(events.back().find("stalls")->as_int(), 0);
    std::remove(path.c_str());
}

TEST(LiveDist, LiveOnIsBitwisePassiveAcrossModesAndRanks) {
    const auto p = sod_like(24, 4);
    for (const auto mode : {bookleaf::ale::Mode::lagrange,
                            bookleaf::ale::Mode::eulerian,
                            bookleaf::ale::Mode::ale}) {
        for (const int ranks : {2, 4}) {
            for (const bool overlap : {true, false}) {
                auto off = base_opts(ranks, 0.008);
                off.ale.mode = mode;
                off.ale.frequency = 2;
                off.overlap = overlap;
                const auto baseline = run_dist(p, off);

                auto on = off;
                on.telemetry.window_steps = 3;
                on.telemetry.watchdog_factor = 8.0;
                const auto live = run_dist(p, on);
                EXPECT_TRUE(bd::bitwise_equal(baseline, live))
                    << "mode " << static_cast<int>(mode) << " ranks "
                    << ranks << " overlap " << overlap;
                EXPECT_FALSE(live.windows.empty());
            }
        }
    }
}

TEST(LiveDist, SingleRankRunStreamsWindowsToo) {
    const auto p = sod_like(16, 4);
    auto opts = base_opts(1, 0.008);
    opts.telemetry.window_steps = 5;
    const auto result = run_dist(p, opts);
    EXPECT_FALSE(result.windows.empty());
    for (const auto& w : result.windows) EXPECT_EQ(w.ranks.size(), 1u);
    EXPECT_TRUE(result.telemetry.wire.match);
}

TEST(LiveSerial, CoreDriverFoldsStreamsAndBoundsRetention) {
    const std::string path = "live_serial_stream.ndjson";
    auto live_problem = bs::sod(16, 4);
    live_problem.telemetry.window_steps = 4;
    live_problem.telemetry.live = path;
    live_problem.telemetry.max_steps = 6;
    bc::Hydro live(std::move(live_problem));
    live.run(std::nullopt, 40);

    bc::Hydro plain(bs::sod(16, 4));
    plain.run(std::nullopt, 40);

    // Bitwise passive in the serial driver too.
    EXPECT_EQ(live.steps(), plain.steps());
    EXPECT_EQ(live.time(), plain.time());
    EXPECT_EQ(live.state().rho, plain.state().rho);
    EXPECT_EQ(live.state().ein, plain.state().ein);
    EXPECT_EQ(live.state().u, plain.state().u);
    EXPECT_EQ(live.state().v, plain.state().v);

    // Windows folded; the max_steps ring bounded retention losslessly.
    EXPECT_EQ(static_cast<long>(live.windows().size()), live.steps() / 4);
    const auto report = live.telemetry_report();
    ASSERT_EQ(report.ranks.size(), 1u);
    EXPECT_LE(report.ranks[0].steps.size(), 6u);
    EXPECT_EQ(report.ranks[0].evicted.steps +
                  static_cast<long>(report.ranks[0].steps.size()),
              static_cast<long>(live.steps()));
    EXPECT_EQ(report.ranks[0].windows.size(), live.windows().size());

    // The distributed stream's event shape: every window and imbalance
    // event carries its attempt (always 0 here).
    const auto events = read_ndjson(path);
    EXPECT_EQ(event_of(events.front()), "run_start");
    EXPECT_EQ(event_of(events.back()), "run_end");
    long windows = 0, imbalances = 0;
    for (const auto& e : events) {
        const auto kind = event_of(e);
        if (kind == "window") ++windows;
        if (kind == "imbalance") ++imbalances;
        if (kind != "window" && kind != "imbalance") continue;
        const auto* attempt = e.find("attempt");
        ASSERT_NE(attempt, nullptr) << kind;
        EXPECT_EQ(attempt->as_int(), 0);
    }
    EXPECT_EQ(windows, static_cast<long>(live.windows().size()));
    EXPECT_EQ(imbalances, windows);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Watchdog integration: slow ranks must not flag, held ranks must
// ---------------------------------------------------------------------------

TEST(Watchdog, DoesNotFireOnSlowButProgressingRank) {
    const auto p = sod_like(24, 4);
    const std::string path = "watchdog_slow.ndjson";
    auto opts = base_opts(4, 0.01);
    opts.telemetry.window_steps = 3;
    opts.telemetry.live = path;
    opts.telemetry.watchdog_factor = 4.0;
    opts.telemetry.watchdog_grace_ms = 250;
    bt::FaultPlan::Slow slow;
    slow.rank = 1;
    slow.microseconds = 200;
    opts.faults.slows.push_back(slow);
    const auto result = run_dist(p, opts);
    EXPECT_GT(result.steps, 0);
    for (const auto& e : read_ndjson(path))
        EXPECT_NE(event_of(e), "stall")
            << "false positive on a slow but progressing rank";
    std::remove(path.c_str());
}

TEST(Watchdog, FiresUnderDelayHeldRank) {
    const auto p = sod_like(24, 4);
    const std::string path = "watchdog_delay.ndjson";
    auto opts = base_opts(4, 0.015);
    opts.telemetry.window_steps = 2;
    opts.telemetry.live = path;
    opts.telemetry.watchdog_factor = 2.0;
    opts.telemetry.watchdog_grace_ms = 50;
    // Hold EVERY message rank 3 sends: its physics still progresses (the
    // step exchanges block and promote), but its tag-502 windows sit in
    // the held queue — the silent-hang signature. Slowing every rank
    // keeps the run's wall time far above the detection threshold, so
    // the stall must be caught whatever the machine's speed.
    bt::FaultPlan::Delay delay;
    delay.rank = 3;
    delay.every = 1;
    opts.faults.delays.push_back(delay);
    for (int r = 0; r < 4; ++r) {
        bt::FaultPlan::Slow slow;
        slow.rank = r;
        slow.microseconds = 800;
        opts.faults.slows.push_back(slow);
    }
    const auto result = run_dist(p, opts);
    EXPECT_GT(result.steps, 0);

    const auto events = read_ndjson(path);
    long stalls = 0;
    for (const auto& e : events) {
        if (event_of(e) != "stall") continue;
        ++stalls;
        EXPECT_EQ(e.find("rank")->as_int(), 3);
        EXPECT_FALSE(e.find("escalated")->as_bool());
        // The diagnostic names the held tag-502 channel.
        bool held_channel = false;
        for (const auto& c : e.find("backlog")->elements())
            if (c.find("src")->as_int() == 3 &&
                c.find("tag")->as_int() == 502 &&
                c.find("held")->as_int() > 0)
                held_channel = true;
        EXPECT_TRUE(held_channel);
    }
    EXPECT_GE(stalls, 1) << "delay-held rank was never flagged";
    // The run itself completes and the final drain recovers every held
    // window: the monitored result is still bitwise the clean run.
    auto clean = base_opts(4, 0.015);
    EXPECT_TRUE(bd::bitwise_equal(result, run_dist(p, clean)));
    std::remove(path.c_str());
}

TEST(Watchdog, EscalatedStallRecoversBitwise) {
    const auto p = sod_like(24, 4);
    const std::string path = "watchdog_escalate.ndjson";
    auto opts = base_opts(4, 0.015);
    opts.telemetry.window_steps = 2;
    opts.telemetry.live = path;
    opts.telemetry.watchdog_factor = 2.0;
    opts.telemetry.watchdog_grace_ms = 50;
    opts.telemetry.watchdog_escalate = true;
    opts.supervise.enabled = true;
    opts.supervise.snapshot_every = 5;
    // Delay the HIGHEST rank: after escalation the supervisor resumes on
    // ranks 0..2, where the delay plan names no live rank — the recovery
    // attempt runs undisturbed.
    bt::FaultPlan::Delay delay;
    delay.rank = 3;
    delay.every = 1;
    opts.faults.delays.push_back(delay);
    for (int r = 0; r < 4; ++r) {
        bt::FaultPlan::Slow slow;
        slow.rank = r;
        slow.microseconds = 800;
        opts.faults.slows.push_back(slow);
    }
    const auto result = run_dist(p, opts);
    ASSERT_GE(result.recoveries.size(), 1u);
    EXPECT_EQ(result.recoveries[0].failed_rank, 3);
    EXPECT_NE(result.recoveries[0].error.find("watchdog"),
              std::string::npos);

    const auto events = read_ndjson(path);
    bool escalated_stall = false, recovery = false;
    for (const auto& e : events) {
        if (event_of(e) == "stall" && e.find("escalated")->as_bool())
            escalated_stall = true;
        if (event_of(e) == "recovery") recovery = true;
    }
    EXPECT_TRUE(escalated_stall);
    EXPECT_TRUE(recovery);

    // The escalated-and-recovered run is bitwise the uninterrupted one.
    auto clean = base_opts(4, 0.015);
    EXPECT_TRUE(bd::bitwise_equal(result, run_dist(p, clean)));
    std::remove(path.c_str());
}
