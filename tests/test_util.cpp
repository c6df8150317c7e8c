// Unit tests for the util substrate: CSR, CLI, RNG, profiler, timer, error.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/cli.hpp"
#include "util/csr.hpp"
#include "util/error.hpp"
#include "util/profiler.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

TEST(Csr, FromPairsGroupsByRow) {
    const std::vector<std::pair<Index, Index>> pairs = {
        {2, 10}, {0, 5}, {2, 11}, {1, 7}, {0, 6}};
    const auto csr = bu::Csr::from_pairs(3, pairs);
    ASSERT_EQ(csr.n_rows(), 3);
    EXPECT_EQ(csr.row(0).size(), 2u);
    EXPECT_EQ(csr.row(1).size(), 1u);
    EXPECT_EQ(csr.row(2).size(), 2u);
    EXPECT_EQ(csr.row(1)[0], 7);
    const std::set<Index> row0(csr.row(0).begin(), csr.row(0).end());
    EXPECT_EQ(row0, (std::set<Index>{5, 6}));
}

TEST(Csr, EmptyRowsAllowed) {
    const auto csr = bu::Csr::from_pairs(4, {{3, 1}});
    EXPECT_EQ(csr.row(0).size(), 0u);
    EXPECT_EQ(csr.row(1).size(), 0u);
    EXPECT_EQ(csr.row(2).size(), 0u);
    ASSERT_EQ(csr.row(3).size(), 1u);
}

TEST(Csr, EmptyCsrHasZeroRows) {
    const bu::Csr csr;
    EXPECT_EQ(csr.n_rows(), 0);
}

TEST(Cli, ParsesKeyEqualsValue) {
    const char* argv[] = {"prog", "--nx=128", "--problem=sod"};
    const bu::Cli cli(3, argv, {"nx", "problem"});
    EXPECT_EQ(cli.get_int("nx", 0), 128);
    EXPECT_EQ(cli.get("problem", ""), "sod");
}

TEST(Cli, ParsesKeySpaceValue) {
    const char* argv[] = {"prog", "--steps", "50", "--cfl", "0.25"};
    const bu::Cli cli(5, argv, {"steps", "cfl"});
    EXPECT_EQ(cli.get_int("steps", 0), 50);
    EXPECT_DOUBLE_EQ(cli.get_real("cfl", 0.0), 0.25);
}

TEST(Cli, BareFlagAndPositional) {
    const char* argv[] = {"prog", "input.deck", "--verbose", "--out=x"};
    const bu::Cli cli(4, argv, {"verbose", "quiet", "out"});
    EXPECT_TRUE(cli.has("verbose"));
    EXPECT_FALSE(cli.has("quiet"));
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "input.deck");
}

TEST(Cli, FallbacksWhenMissing) {
    const char* argv[] = {"prog"};
    const bu::Cli cli(1, argv, {"nx", "cfl", "problem"});
    EXPECT_EQ(cli.get_int("nx", 42), 42);
    EXPECT_DOUBLE_EQ(cli.get_real("cfl", 0.5), 0.5);
    EXPECT_EQ(cli.get("problem", "noh"), "noh");
}

TEST(Cli, UnknownKeyThrowsNamingIt) {
    const char* argv[] = {"prog", "--threads", "2", "--packing", "perfield"};
    try {
        const bu::Cli cli(5, argv, {"threads"});
        FAIL() << "an unknown key must throw";
    } catch (const bu::Error& e) {
        EXPECT_NE(std::string(e.what()).find("--packing"), std::string::npos)
            << e.what();
    }
    const char* eq[] = {"prog", "--treads=4"};
    EXPECT_THROW(bu::Cli(2, eq, {"threads"}), bu::Error);
}

TEST(Cli, NumbersMustBeWhole) {
    for (const char* bad : {"four", "4x", ""}) {
        const char* argv[] = {"prog", "--threads", bad, "--tol", bad};
        const bu::Cli cli(5, argv, {"threads", "tol"});
        EXPECT_THROW((void)cli.get_int("threads", 1), bu::Error) << bad;
        EXPECT_THROW((void)cli.get_real("tol", 1.0), bu::Error) << bad;
    }
    const char* argv[] = {"prog", "--threads", "4", "--tol", "1e-8"};
    const bu::Cli cli(5, argv, {"threads", "tol"});
    EXPECT_EQ(cli.get_int("threads", 1), 4);
    EXPECT_DOUBLE_EQ(cli.get_real("tol", 1.0), 1e-8);
}

TEST(Random, DeterministicForSeed) {
    bu::SplitMix64 a(12345), b(12345);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Random, UniformInRange) {
    bu::SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        const Real x = rng.uniform(-2.0, 3.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Random, IndexBounded) {
    bu::SplitMix64 rng(99);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
    EXPECT_EQ(rng.uniform_index(0), 0u);
}

TEST(Profiler, AccumulatesWallAndVirtual) {
    bu::Profiler p;
    p.add_wall(bu::Kernel::getq, 1.5);
    p.add_wall(bu::Kernel::getq, 0.5);
    p.add_virtual(bu::Kernel::getq, 2.0);
    const auto s = p.stats(bu::Kernel::getq);
    EXPECT_DOUBLE_EQ(s.wall_s, 2.0);
    EXPECT_DOUBLE_EQ(s.virtual_s, 2.0);
    EXPECT_DOUBLE_EQ(s.total_s(), 4.0);
    EXPECT_EQ(s.calls, 3);
}

TEST(Profiler, OverallSumsKernels) {
    bu::Profiler p;
    p.add_wall(bu::Kernel::getq, 1.0);
    p.add_virtual(bu::Kernel::getacc, 2.0);
    EXPECT_DOUBLE_EQ(p.overall_s(), 3.0);
}

TEST(Profiler, ResetClears) {
    bu::Profiler p;
    p.add_wall(bu::Kernel::getdt, 1.0);
    p.reset();
    EXPECT_DOUBLE_EQ(p.overall_s(), 0.0);
    EXPECT_EQ(p.stats(bu::Kernel::getdt).calls, 0);
}

TEST(Profiler, ScopedTimerCharges) {
    bu::Profiler p;
    {
        const bu::ScopedTimer t(p, bu::Kernel::getforce);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(p.stats(bu::Kernel::getforce).wall_s, 0.0);
    EXPECT_EQ(p.stats(bu::Kernel::getforce).calls, 1);
}

TEST(Profiler, ThreadSafeAccumulation) {
    bu::Profiler p;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&p] {
            for (int i = 0; i < 1000; ++i) p.add_wall(bu::Kernel::getrho, 0.001);
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(p.stats(bu::Kernel::getrho).calls, 4000);
    EXPECT_NEAR(p.stats(bu::Kernel::getrho).wall_s, 4.0, 1e-9);
}

TEST(Profiler, KernelNamesMatchPaperNomenclature) {
    EXPECT_EQ(bu::kernel_name(bu::Kernel::getq), "getq");
    EXPECT_EQ(bu::kernel_name(bu::Kernel::getacc), "getacc");
    EXPECT_EQ(bu::kernel_name(bu::Kernel::getdt), "getdt");
    EXPECT_EQ(bu::kernel_name(bu::Kernel::alegetfvol), "alegetfvol");
}

TEST(Timer, ElapsedIsMonotonic) {
    bu::Timer t;
    const double a = t.elapsed();
    const double b = t.elapsed();
    EXPECT_GE(b, a);
    t.reset();
    EXPECT_LT(t.elapsed(), 1.0);
}

TEST(Error, RequireThrowsWithMessage) {
    EXPECT_NO_THROW(bu::require(true, "fine"));
    try {
        bu::require(false, "bad mesh extent");
        FAIL() << "expected throw";
    } catch (const bu::Error& e) {
        EXPECT_STREQ(e.what(), "bad mesh extent");
    }
}
