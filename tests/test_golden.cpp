// Behaviour lock: golden FNV-1a digests of every shipped deck.
//
// Each data/*.in configuration runs serially at a reduced 32-cell
// resolution for a fixed number of steps, and the final state is hashed in
// ckpt::Snapshot field order (clock, then node, cell and corner fields, in
// ascending global entity order). The constants are held fixed across
// commits: a passing run is a bitwise match against the code that
// generated them, not only between configurations of the current code.
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

/// Run `data/<deck>.in` at the reduced size and digest the final state.
/// Later deck keys override earlier ones, so appending a [problem] section
/// resizes the mesh and leaves every other setting as shipped.
std::uint64_t run_deck(const std::string& deck) {
    std::ifstream in(std::string(BOOKLEAF_DATA_DIR) + "/" + deck + ".in");
    EXPECT_TRUE(in) << deck;
    std::stringstream text;
    text << in.rdbuf() << "\n[problem]\nresolution = " << golden_resolution
         << "\n";
    bookleaf::core::Hydro hydro(
        bs::make_problem(bs::Deck::parse_string(text.str())));
    hydro.run(std::nullopt, golden_steps);
    EXPECT_EQ(hydro.steps(), golden_steps) << deck;
    return state_digest(hydro.snapshot());
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
    const std::uint64_t got = run_deck(g.deck);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, g.digest) << g.deck << ": this build computes " << hex;
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
