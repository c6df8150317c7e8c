// Behaviour lock: golden FNV-1a digests of every shipped deck.
//
// Each data/*.in configuration runs at a reduced 32-cell resolution for a
// fixed number of steps, and the final state is hashed in ckpt::Snapshot
// field order (clock, then node, cell and corner fields, in ascending
// global entity order). The constants are held fixed across commits: a
// passing run is a bitwise match against the code that generated them, not
// only between configurations of the current code. The same constants
// hold for the serial driver, for the serial driver on a 2-worker pool,
// and for dist::run at 1, 2 and 3 ranks (digesting the checkpoint rank 0
// assembles at the final step), so every driver and schedule is locked to
// the same bytes.
// They were generated before the getq continuation table and the
// straight-line sub-zonal gradients, which keep every floating-point
// operation and its order and so leave them unchanged.
//
// Generated with g++ 12.2 (Debian 12.2.0-14), x86-64, glibc 2.36, Release
// (-O3), -std=c++20; the -O1 sanitizer build computes the same bytes. The
// digest depends on libm's hypot/exp/pow; another toolchain or
// architecture may legitimately produce other bytes (e.g. by contracting
// multiply-adds into FMAs). On a mismatch the failure message prints the
// digest this build computed.
//
// A deliberate change of trajectory must update the constant it moves and
// say why in the commit that does.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "par/thread_pool.hpp"
#include "setup/deck.hpp"
#include "util/hash.hpp"

namespace {

namespace bs = bookleaf::setup;

constexpr int golden_resolution = 32;
constexpr int golden_steps = 50;

/// FNV-1a over a snapshot, field by field in declaration order (the mesh
/// hash is input identity, not state, so it is left out).
std::uint64_t state_digest(const bookleaf::ckpt::Snapshot& s) {
    namespace bu = bookleaf::util;
    std::uint64_t h = bu::fnv1a_offset;
    h = bu::fnv1a(h, &s.steps, sizeof s.steps);
    h = bu::fnv1a(h, &s.t, sizeof s.t);
    h = bu::fnv1a(h, &s.dt, sizeof s.dt);
    h = bu::fnv1a(h, &s.regrow, sizeof s.regrow);
    for (const auto* field : {&s.x, &s.y, &s.u, &s.v, &s.node_mass, &s.rho,
                              &s.ein, &s.q, &s.cell_mass, &s.cnmass})
        h = bu::fnv1a(h, field->data(), field->size() * sizeof(bookleaf::Real));
    return h;
}

/// `data/<deck>.in` at the reduced size. Later deck keys override earlier
/// ones, so appending a [problem] section resizes the mesh and leaves
/// every other setting as shipped.
bs::Problem load_deck(const std::string& deck) {
    std::ifstream in(std::string(BOOKLEAF_DATA_DIR) + "/" + deck + ".in");
    EXPECT_TRUE(in) << deck;
    std::stringstream text;
    text << in.rdbuf() << "\n[problem]\nresolution = " << golden_resolution
         << "\n";
    return bs::make_problem(bs::Deck::parse_string(text.str()));
}

/// Run the deck on the serial driver (on `pool` when given) and digest
/// the final state.
std::uint64_t run_serial(const std::string& deck,
                         bookleaf::par::ThreadPool* pool = nullptr) {
    bookleaf::core::Hydro hydro(load_deck(deck));
    if (pool != nullptr) {
        bookleaf::par::Exec exec;
        exec.pool = pool;
        hydro.set_exec(exec);
    }
    hydro.run(std::nullopt, golden_steps);
    EXPECT_EQ(hydro.steps(), golden_steps) << deck;
    return state_digest(hydro.snapshot());
}

/// Run the deck through dist::run at `n_ranks` and digest the checkpoint
/// rank 0 writes after the final step (removed afterwards).
std::uint64_t run_distributed(const std::string& deck, int n_ranks) {
    const auto p = load_deck(deck);
    bookleaf::dist::Options opts;
    opts.n_ranks = n_ranks;
    opts.t_end = p.t_end;
    opts.max_steps = golden_steps;
    opts.hydro = p.hydro;
    opts.ale = p.ale;
    opts.checkpoint.every_steps = golden_steps;
    opts.checkpoint.prefix = ::testing::TempDir() + "golden_" + deck + "_" +
                             std::to_string(n_ranks);
    const auto r = bookleaf::dist::run(p.mesh, p.materials, p.rho, p.ein, p.u,
                                       p.v, opts);
    EXPECT_EQ(r.steps, golden_steps) << deck;
    const auto path = opts.checkpoint.path_for(golden_steps);
    const std::uint64_t digest = state_digest(bookleaf::ckpt::read(path));
    std::remove(path.c_str());
    return digest;
}

std::string hex(std::uint64_t digest) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL",
                  static_cast<unsigned long long>(digest));
    return buf;
}

struct Golden {
    const char* deck;
    std::uint64_t digest;

    friend std::ostream& operator<<(std::ostream& os, const Golden& g) {
        return os << g.deck;
    }
};

class GoldenDigest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenDigest, FinalStateMatchesTheLockedBytes) {
    const Golden& g = GetParam();
    const std::uint64_t got = run_serial(g.deck);
    EXPECT_EQ(got, g.digest) << g.deck << ": this build computes " << hex(got);
}

TEST_P(GoldenDigest, ThreadedRunMatchesTheLockedBytes) {
    const Golden& g = GetParam();
    bookleaf::par::ThreadPool pool(2);
    const std::uint64_t got = run_serial(g.deck, &pool);
    EXPECT_EQ(got, g.digest) << g.deck << " at 2 threads: this build computes "
                             << hex(got);
}

TEST_P(GoldenDigest, DistributedRunsMatchTheLockedBytes) {
    const Golden& g = GetParam();
    for (const int n_ranks : {1, 2, 3}) {
        const std::uint64_t got = run_distributed(g.deck, n_ranks);
        EXPECT_EQ(got, g.digest) << g.deck << " at " << n_ranks
                                 << " ranks: this build computes " << hex(got);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Decks, GoldenDigest,
    ::testing::Values(Golden{"sod", 0x18c04788e0a9df24ULL},
                      Golden{"sod_eulerian", 0xc44ad12828506916ULL},
                      Golden{"noh", 0xefbc1bad33969136ULL},
                      Golden{"noh_ale", 0x243f3280389c6d4aULL},
                      Golden{"sedov", 0xf7cb4da76e104fdfULL},
                      Golden{"saltzmann", 0x65eff362010e4cd0ULL}),
    [](const ::testing::TestParamInfo<Golden>& info) {
        return std::string(info.param.deck);
    });

} // namespace
