/// \file perfbench.cpp
/// Workload runner of the repository benchmark (driven by run.py).
///
/// Drives BookLeaf from outside, through public calls only:
/// setup::by_name, mesh::permute, core::Hydro, part::rcb/part::decompose
/// and dist::run. One process runs one workload:
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--size N] [--steps N] [--driver core] [--spans PATH]
///
/// A run repeats one fixed trajectory (set-up, warm-up steps, timed steps)
/// until `--seconds` have passed, so every repetition does identical work
/// and must end in identical bytes. The seed picks a random renumbering of
/// the generated mesh; the library only ever sees the renumbered problem.
/// End-to-end figures come from repetitions with library telemetry off:
/// grind time over all their timed steps, set-up time and accuracy as the
/// median repetition. With --trace 1 the first half of the time repeats
/// that untraced run and the second half a traced one (library telemetry
/// enabled, no sinks), which yields the per-layer figures and the tracing
/// overhead. Per-layer kernel times are busy CPU time summed over pool
/// workers or ranks; flop and byte rates are computed from the perfmodel's
/// per-item work table, not measured.
/// The benchmark's own spans (name, start, end, parent) are kept in memory
/// and written to --spans once at the end.
///
/// The last stdout line is one JSON object (schema perfbench.run/1) with
/// the host/build record, the FNV-1a digest of the final fields, the
/// attempted/failed step counts and every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analytic/exact.hpp"
#include "analytic/norms.hpp"
#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "obs/json.hpp"
#include "par/thread_pool.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "perfmodel/model.hpp"
#include "setup/problems.hpp"
#include "util/hash.hpp"
#include "util/profiler.hpp"
#include "util/random.hpp"

namespace {

namespace bl = bookleaf;
using bl::Index;
using bl::Real;
using bl::util::Kernel;
using Clock = std::chrono::steady_clock;
using KernelArray = std::array<bl::util::KernelStats, bl::util::kernel_count>;

#if defined(__OPTIMIZE__)
constexpr bool optimized_build = true;
#else
constexpr bool optimized_build = false;
#endif
#if defined(NDEBUG)
constexpr bool ndebug_build = true;
#else
constexpr bool ndebug_build = false;
#endif

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
    const char* name;
    const char* problem;
    bl::ale::Mode mode;
    int frequency;        ///< remap every N steps (ALE mode)
    int smoothing_passes; ///< Jacobi passes toward the neighbour average
    int threads;          ///< core::Hydro pool width (1 = no pool)
    int ranks;            ///< > 0: run through dist::run at this many ranks
    int warmup;           ///< untimed steps ahead of the timed ones
    int steps;            ///< timed steps per repetition
    /// A full-size repetition whose final l1_rho_err exceeds this counts
    /// all its steps as failed (the measured value is 1/2 to 3/4 of it).
    double l1_ceiling;
};

// Every workload runs the 128^2 deck (--size shrinks it for the
// benchmark's own tests). Widths are 2 on a 4-core host: at 4 the
// run-to-run spread was too wide to resolve a regression. The dist
// workload has no warm-up: dist::run owns its step loop, so its whole wall
// time is timed.
constexpr Index full_size = 128;
constexpr std::array<Workload, 3> workloads = {{
    {"noh-lagrange-serial", "noh", bl::ale::Mode::lagrange, 1, 2, 1, 0, 2,
     100, 3e-3},
    {"sedov-eulerian-threads", "sedov", bl::ale::Mode::eulerian, 1, 2, 2, 0,
     2, 30, 1.5e-6},
    {"noh-ale-ranks", "noh", bl::ale::Mode::ale, 3, 2, 1, 2, 0, 99, 2e-3},
}};

// ---------------------------------------------------------------------------
// Spans: the benchmark's own trace, kept in memory, written once at the end
// ---------------------------------------------------------------------------

struct Span {
    const char* name;
    double t0_us;
    double t1_us; ///< -1 while open, and for work cut short by a throw
    int parent;   ///< index of the enclosing span, -1 at the top
};

class Spans {
public:
    Spans() { spans_.reserve(1 << 16); }

    int begin(const char* name, int parent) {
        spans_.push_back({name, now_us(), -1.0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }
    /// Close span `id`; returns its duration in seconds.
    double end(int id) {
        auto& s = spans_[static_cast<std::size_t>(id)];
        s.t1_us = now_us();
        return (s.t1_us - s.t0_us) * 1e-6;
    }
    [[nodiscard]] double seconds(int id) const {
        const auto& s = spans_[static_cast<std::size_t>(id)];
        return (s.t1_us - s.t0_us) * 1e-6;
    }

    void write(const std::string& path) const {
        auto doc = bl::obs::Json::array();
        for (const auto& s : spans_) {
            bl::obs::Json j;
            j["name"] = s.name;
            j["t0_us"] = s.t0_us;
            j["t1_us"] = s.t1_us;
            j["parent"] = s.parent;
            doc.push_back(std::move(j));
        }
        bl::obs::write_json_file(path, doc);
    }

private:
    [[nodiscard]] double now_us() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    }
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs: the deck, and its seeded renumbering
// ---------------------------------------------------------------------------

bl::setup::Problem make_problem(const Workload& w, Index n) {
    auto p = bl::setup::by_name(w.problem, n);
    p.ale.mode = w.mode;
    p.ale.frequency = w.frequency;
    p.ale.smoothing_passes = w.smoothing_passes;
    return p;
}

using Point = std::pair<Real, Real>;

/// Cell centroid as analytic::cell_error_norms computes it.
Point centroid(const bl::mesh::Mesh& m, std::span<const Real> x,
               std::span<const Real> y, Index c) {
    Real cx = 0;
    Real cy = 0;
    for (int k = 0; k < bl::corners_per_cell; ++k) {
        const auto n = static_cast<std::size_t>(m.cn(c, k));
        cx += x[n];
        cy += y[n];
    }
    return {cx * Real(0.25), cy * Real(0.25)};
}

/// Renumber cells and nodes with mesh::permute and carry the initial
/// conditions across by matching node coordinates and cell centroids.
/// permute copies coordinates and keeps each cell's corner order, so the
/// keys match exactly; a missing or duplicate key throws.
void renumber(bl::setup::Problem& p, std::uint64_t seed) {
    bl::util::SplitMix64 rng(seed);
    bl::mesh::Mesh m = bl::mesh::permute(p.mesh, rng);
    const auto n_nodes = static_cast<std::size_t>(m.n_nodes());
    const auto n_cells = static_cast<std::size_t>(m.n_cells());

    std::map<Point, Index> node_at;
    for (Index n = 0; n < p.mesh.n_nodes(); ++n)
        node_at.emplace(Point{p.mesh.x[static_cast<std::size_t>(n)],
                              p.mesh.y[static_cast<std::size_t>(n)]},
                        n);
    std::map<Point, Index> cell_at;
    for (Index c = 0; c < p.mesh.n_cells(); ++c)
        cell_at.emplace(centroid(p.mesh, p.mesh.x, p.mesh.y, c), c);
    if (node_at.size() != n_nodes || cell_at.size() != n_cells)
        throw std::runtime_error("renumber: coincident nodes or centroids");

    std::vector<Real> u(n_nodes), v(n_nodes), rho(n_cells), ein(n_cells);
    for (std::size_t n = 0; n < n_nodes; ++n) {
        const auto old = static_cast<std::size_t>(node_at.at({m.x[n], m.y[n]}));
        u[n] = p.u[old];
        v[n] = p.v[old];
    }
    for (std::size_t c = 0; c < n_cells; ++c) {
        const auto old = static_cast<std::size_t>(
            cell_at.at(centroid(m, m.x, m.y, static_cast<Index>(c))));
        rho[c] = p.rho[old];
        ein[c] = p.ein[old];
    }
    p.mesh = std::move(m);
    p.u = std::move(u);
    p.v = std::move(v);
    p.rho = std::move(rho);
    p.ein = std::move(ein);
}

bool close_rel(Real a, Real b, Real tol) {
    return std::abs(a - b) <= tol * std::max(std::abs(a), std::abs(b));
}

// ---------------------------------------------------------------------------
// Outputs: digest, conservation, accuracy
// ---------------------------------------------------------------------------

/// Final fields of a repetition, in the renumbered global numbering.
struct Fields {
    std::span<const Real> rho, ein, u, v, x, y;
    Real t = 0.0;
};

std::uint64_t digest(const Fields& f) {
    std::uint64_t h = bl::util::fnv1a_offset;
    for (const auto field : {f.rho, f.ein, f.u, f.v, f.x, f.y})
        h = bl::util::fnv1a(h, field.data(), field.size_bytes());
    return h;
}

std::string sci(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3g", v);
    return buf;
}

std::string hex(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

/// Quad areas from node positions (shoelace), so the serial and the
/// gathered distributed fields are measured by one formula.
std::vector<Real> areas(const bl::mesh::Mesh& m, std::span<const Real> x,
                        std::span<const Real> y) {
    std::vector<Real> a(static_cast<std::size_t>(m.n_cells()));
    for (Index c = 0; c < m.n_cells(); ++c) {
        Real s = 0;
        for (int k = 0; k < bl::corners_per_cell; ++k) {
            const auto i = static_cast<std::size_t>(m.cn(c, k));
            const auto j = static_cast<std::size_t>(
                m.cn(c, (k + 1) % bl::corners_per_cell));
            s += x[i] * y[j] - x[j] * y[i];
        }
        a[static_cast<std::size_t>(c)] = Real(0.5) * s;
    }
    return a;
}

Real mass(const bl::mesh::Mesh& m, std::span<const Real> x,
          std::span<const Real> y, std::span<const Real> rho) {
    const auto a = areas(m, x, y);
    Real total = 0;
    for (std::size_t c = 0; c < a.size(); ++c) total += rho[c] * a[c];
    return total;
}

/// Volume-weighted L1 density error at the final time. Noh: against
/// analytic::noh_exact over r < 0.8, clear of the outer walls' starvation
/// zone. Sedov has no closed-form field: there it is the L1 distance of
/// the density from its own volume-weighted mean over radial bins one
/// cell wide (r < 1.2, the quarter disc inside the domain), i.e. the
/// mesh imprint on a radially symmetric blast.
Real l1_rho_err(const Workload& w, const bl::mesh::Mesh& m, const Fields& f,
                Index n) {
    const auto vol = areas(m, f.x, f.y);
    if (std::string(w.problem) == "noh") {
        return bl::analytic::cell_error_norms(
                   m, f.x, f.y, vol, f.rho,
                   [&](Real cx, Real cy) {
                       return bl::analytic::noh_exact(std::hypot(cx, cy), f.t)
                           .rho;
                   },
                   [](Real cx, Real cy) { return std::hypot(cx, cy) < 0.8; })
            .l1;
    }
    const Real width = Real(1.2) / static_cast<Real>(n);
    const auto bins = static_cast<std::size_t>(n);
    const auto bin_of = [width](Real cx, Real cy) {
        return static_cast<std::size_t>(std::hypot(cx, cy) / width);
    };
    std::vector<Real> bin_mass(bins, 0.0), bin_vol(bins, 0.0);
    for (Index c = 0; c < m.n_cells(); ++c) {
        const auto [cx, cy] = centroid(m, f.x, f.y, c);
        const auto b = bin_of(cx, cy);
        if (b >= bins) continue;
        const auto ci = static_cast<std::size_t>(c);
        bin_mass[b] += f.rho[ci] * vol[ci];
        bin_vol[b] += vol[ci];
    }
    return bl::analytic::cell_error_norms(
               m, f.x, f.y, vol, f.rho,
               [&](Real cx, Real cy) {
                   const auto b = bin_of(cx, cy);
                   return bin_mass[b] / bin_vol[b];
               },
               [&](Real cx, Real cy) { return bin_of(cx, cy) < bins; })
        .l1;
}

// ---------------------------------------------------------------------------
// Host and build record
// ---------------------------------------------------------------------------

std::string read_line(const std::string& path) {
    std::ifstream in(path);
    std::string s;
    std::getline(in, s);
    return s;
}

bl::obs::Json host_record() {
    bl::obs::Json h;
    h["nproc"] = static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN));
    // Data/unified caches of cpu0, from sysfs ("" when not exposed).
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
        const std::string level = read_line(dir + "level");
        if (level.empty()) break;
        if (read_line(dir + "type") == "Instruction") continue;
        h["L" + level] = read_line(dir + "size");
    }
    return h;
}

bl::obs::Json build_record() {
    bl::obs::Json b;
#if defined(__clang__)
    b["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    b["compiler"] = std::string("gcc ") + __VERSION__;
#else
    b["compiler"] = "unknown";
#endif
    b["build_type"] = PERFBENCH_BUILD_TYPE;
    b["optimize"] = optimized_build;
    b["ndebug"] = ndebug_build;
    return b;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double rss_mb() {
    std::ifstream in("/proc/self/statm");
    long pages = 0;
    long resident = 0;
    in >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

struct Config {
    const Workload* w = nullptr;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    Index n = full_size;
    int steps = 0;
    int warmup = 0;
    bool core_reference = false; ///< run a dist workload's deck on core::Hydro
    std::string spans_path;
};

/// What the traced repetitions add up (counters over timed steps only).
struct Layers {
    KernelArray k{};      ///< profiler deltas, summed over ranks
    long steps = 0;       ///< timed steps behind the counters
    double wall_s = 0.0;  ///< timed wall (step spans, or dist::run)
    double cpu_s = 0.0;   ///< process CPU over the same interval
    long remaps = 0;
    // Task-graph attribution (core::Hydro with a pool).
    long graphs = 0;
    double makespan_us = 0.0, cp_us = 0.0, busy_us = 0.0, idle_us = 0.0;
    // dist::run.
    long messages = 0;
    long long bytes = 0;
    std::vector<double> rank_busy_s, rank_kernels_s;
    Index edge_cut = 0;
    double part_imbalance = 0.0;
    std::vector<double> step_ms, first_step_ms;
    std::vector<double> problem_s, renumber_s, driver_s, rcb_s, decompose_s;
};

struct RepResult {
    double setup_s = 0.0;
    double timed_s = 0.0;     ///< wall time of the timed steps
    double cell_steps = 0.0;  ///< cells x timed steps
    long attempted = 0;
    long failed = 0;
    std::string failure;
    std::uint64_t digest = 0;
    double l1 = 0.0;
};

constexpr std::array<Kernel, 8> hydro_kernels = {
    Kernel::getq,   Kernel::getforce, Kernel::getgeom, Kernel::getacc,
    Kernel::getdt,  Kernel::getpc,    Kernel::getein,  Kernel::getrho};
constexpr std::array<Kernel, 4> ale_kernels = {
    Kernel::alegetmesh, Kernel::alegetfvol, Kernel::aleadvect,
    Kernel::aleupdate};
constexpr std::array<Kernel, 5> ale_phases = {
    Kernel::ale_gradients, Kernel::ale_fluxes, Kernel::ale_cells,
    Kernel::ale_dual, Kernel::ale_nodes};

void add_delta(KernelArray& acc, const KernelArray& after,
               const KernelArray& before) {
    for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i].wall_s += after[i].wall_s - before[i].wall_s;
        acc[i].calls += after[i].calls - before[i].calls;
        acc[i].items += after[i].items - before[i].items;
    }
}

double sum_wall(const KernelArray& k, std::span<const Kernel> which) {
    double s = 0;
    for (const Kernel kk : which) s += k[static_cast<std::size_t>(kk)].wall_s;
    return s;
}

/// Aggregate (non-detail) profiler seconds: what overall_s() sums.
double aggregate_wall(const KernelArray& k) {
    double s = 0;
    for (std::size_t i = 0; i < k.size(); ++i)
        if (!bl::util::kernel_is_detail(static_cast<Kernel>(i))) s += k[i].wall_s;
    return s;
}

/// Checks common to both drivers. Returns the failure text ("" = passed).
std::string check_outputs(const Config& cfg, const bl::mesh::Mesh& m,
                          const Fields& f, Real mass0, RepResult& r) {
    r.digest = digest(f);
    r.l1 = l1_rho_err(*cfg.w, m, f, cfg.n);
    const Real mass1 = mass(m, f.x, f.y, f.rho);
    if (!close_rel(mass0, mass1, 1e-12))
        return "mass drift " + sci((mass1 - mass0) / mass0);
    if (cfg.n == full_size && !(r.l1 <= cfg.w->l1_ceiling))
        return "l1_rho_err " + sci(r.l1) + " above ceiling";
    return "";
}

RepResult run_core(const Config& cfg, Spans& spans, int parent,
                   Layers* layers) {
    const Workload& w = *cfg.w;
    RepResult r;
    r.attempted = cfg.warmup + cfg.steps;
    const int rep = spans.begin("rep", parent);
    const int setup = spans.begin("setup", rep);

    int span = spans.begin("setup.problem", setup);
    auto problem = make_problem(w, cfg.n);
    problem.telemetry.enabled = layers != nullptr;
    const double problem_s = spans.end(span);

    span = spans.begin("setup.renumber", setup);
    renumber(problem, cfg.seed);
    const double renumber_s = spans.end(span);

    span = spans.begin("setup.driver", setup);
    std::optional<bl::par::ThreadPool> pool;
    if (w.threads > 1) pool.emplace(w.threads);
    auto hydro = std::make_unique<bl::core::Hydro>(std::move(problem));
    if (pool) {
        bl::par::Exec exec;
        exec.pool = &*pool;
        hydro->set_exec(exec);
    }
    const double driver_s = spans.end(span);
    const auto totals0 = hydro->totals();

    int done = 0;
    double first_step_ms = 0.0;
    try {
        for (; done < cfg.warmup; ++done) {
            span = spans.begin("step.warmup", setup);
            hydro->step();
            const double s = spans.end(span);
            if (done == 0) first_step_ms = 1e3 * s;
        }
        r.setup_s = spans.end(setup);

        KernelArray k0{};
        bl::obs::RankAttribution a0;
        double cpu0 = 0.0;
        if (layers != nullptr) {
            k0 = hydro->profiler().snapshot();
            a0 = hydro->telemetry_report().ranks.at(0).attrib;
            cpu0 = process_cpu_s();
        }
        const int timed = spans.begin("steps", rep);
        std::vector<int> step_spans;
        step_spans.reserve(static_cast<std::size_t>(cfg.steps));
        long remaps = 0;
        for (int i = 0; i < cfg.steps; ++i, ++done) {
            span = spans.begin("step", timed);
            if (hydro->step().remapped) ++remaps;
            spans.end(span);
            step_spans.push_back(span);
        }
        r.timed_s = spans.end(timed);
        r.cell_steps = static_cast<double>(cfg.steps) *
                       static_cast<double>(hydro->mesh().n_cells());

        if (layers != nullptr) {
            auto& L = *layers;
            L.cpu_s += process_cpu_s() - cpu0;
            add_delta(L.k, hydro->profiler().snapshot(), k0);
            const auto report = hydro->telemetry_report();
            const auto& rank = report.ranks.at(0);
            L.graphs += rank.attrib.graphs - a0.graphs;
            for (const auto& rec : rank.steps) {
                if (rec.step < cfg.warmup) continue;
                L.makespan_us += rec.graph_makespan_us;
                L.cp_us += rec.cp_us;
                L.busy_us += rec.graph_busy_us;
                L.idle_us += rec.graph_workers * rec.graph_makespan_us -
                             rec.graph_busy_us;
            }
            for (const int s : step_spans) {
                L.step_ms.push_back(1e3 * spans.seconds(s));
                L.wall_s += spans.seconds(s);
            }
            L.steps += cfg.steps;
            L.remaps += remaps;
            L.first_step_ms.push_back(first_step_ms);
            L.problem_s.push_back(problem_s);
            L.renumber_s.push_back(renumber_s);
            L.driver_s.push_back(driver_s);
        }
    } catch (const std::exception& e) {
        // A step that throws (tangled cell, dt below dt_min) fails, and so
        // does every step of the repetition it leaves unrun.
        r.failed = r.attempted - done;
        r.failure = std::string("step ") + std::to_string(done + 1) + ": " +
                    e.what();
        spans.end(rep);
        return r;
    }

    const auto& s = hydro->state();
    const Fields f{s.rho, s.ein, s.u, s.v, s.x, s.y, hydro->time()};
    const auto totals1 = hydro->totals();
    std::string failure =
        check_outputs(cfg, hydro->mesh(), f,
                      mass(hydro->mesh(), hydro->mesh().x, hydro->mesh().y,
                           hydro->problem().rho),
                      r);
    if (failure.empty() && !close_rel(totals0.mass, totals1.mass, 1e-12))
        failure = "driver mass total drift";
    // Lagrangian steps conserve total energy to round-off.
    if (failure.empty() && w.mode == bl::ale::Mode::lagrange &&
        !close_rel(totals0.total_energy(), totals1.total_energy(), 1e-12))
        failure = "total energy drift " +
                  sci(totals1.total_energy() / totals0.total_energy() - 1.0);
    if (!failure.empty()) {
        r.failed = r.attempted;
        r.failure = failure;
    }
    spans.end(rep);
    return r;
}

RepResult run_dist(const Config& cfg, Spans& spans, int parent,
                   Layers* layers) {
    const Workload& w = *cfg.w;
    RepResult r;
    r.attempted = cfg.steps;
    const int rep = spans.begin("rep", parent);
    const int setup = spans.begin("setup", rep);

    int span = spans.begin("setup.problem", setup);
    auto problem = make_problem(w, cfg.n);
    const double problem_s = spans.end(span);

    span = spans.begin("setup.renumber", setup);
    renumber(problem, cfg.seed);
    const double renumber_s = spans.end(span);

    // The benchmark partitions up front (RCB, as dist::run would) and hands
    // the partition to dist::run; its own decompose measures the part
    // layer, while dist::run decomposes again inside the timed call.
    const int driver = spans.begin("setup.driver", setup);
    span = spans.begin("part.rcb", driver);
    const auto part = bl::part::rcb(problem.mesh, w.ranks);
    const double rcb_s = spans.end(span);
    span = spans.begin("part.decompose", driver);
    const auto subs = bl::part::decompose(problem.mesh, part, w.ranks);
    const double decompose_s = spans.end(span);
    Index owned = 0;
    for (const auto& sub : subs) owned += sub.n_owned_cells;
    if (owned != problem.mesh.n_cells())
        throw std::runtime_error("decompose: owned cells do not cover the mesh");
    bl::dist::Options opts;
    opts.n_ranks = w.ranks;
    opts.t_end = problem.t_end;
    opts.max_steps = cfg.steps;
    opts.hydro = problem.hydro;
    opts.ale = problem.ale;
    opts.partitioner = [&part](const bl::mesh::Mesh&, int) { return part; };
    const double driver_s = spans.end(driver);
    r.setup_s = spans.end(setup);

    const double cpu0 = process_cpu_s();
    bl::dist::Result res;
    span = spans.begin("dist.run", rep);
    try {
        res = bl::dist::run(problem.mesh, problem.materials, problem.rho,
                            problem.ein, problem.u, problem.v, opts);
    } catch (const std::exception& e) {
        spans.end(span);
        spans.end(rep);
        r.failed = r.attempted;
        r.failure = e.what();
        return r;
    }
    const double run_s = spans.end(span);
    const double cpu_s = process_cpu_s() - cpu0;
    r.timed_s = run_s;
    r.cell_steps = static_cast<double>(cfg.steps) *
                   static_cast<double>(problem.mesh.n_cells());

    const Fields f{res.rho, res.ein, res.u, res.v, res.x, res.y, res.t_final};
    std::string failure =
        res.steps != cfg.steps
            ? "ran " + std::to_string(res.steps) + " of " +
                  std::to_string(cfg.steps) + " steps"
            : check_outputs(cfg, problem.mesh, f,
                            mass(problem.mesh, problem.mesh.x, problem.mesh.y,
                                 problem.rho),
                            r);
    if (!failure.empty()) {
        r.failed = r.attempted;
        r.failure = failure;
    }

    if (layers != nullptr) {
        auto& L = *layers;
        L.steps += res.steps;
        L.wall_s += run_s;
        L.cpu_s += cpu_s;
        L.rank_busy_s.resize(res.profiles.size(), 0.0);
        L.rank_kernels_s.resize(res.profiles.size(), 0.0);
        for (std::size_t rk = 0; rk < res.profiles.size(); ++rk) {
            const auto& prof = res.profiles[rk];
            add_delta(L.k, prof, KernelArray{});
            L.rank_busy_s[rk] +=
                sum_wall(prof, hydro_kernels) + sum_wall(prof, ale_kernels);
            L.rank_kernels_s[rk] += aggregate_wall(prof);
        }
        // One alegetmesh scope per remap on every rank.
        L.remaps += res.profiles.empty()
                        ? 0
                        : res.profiles[0][static_cast<std::size_t>(
                                              Kernel::alegetmesh)]
                              .calls;
        L.messages += res.traffic.messages;
        L.bytes += res.traffic.reals * static_cast<long long>(sizeof(Real));
        const auto q = bl::part::quality(problem.mesh, part, w.ranks);
        L.edge_cut = q.edge_cut;
        L.part_imbalance = q.imbalance;
        L.problem_s.push_back(problem_s);
        L.renumber_s.push_back(renumber_s);
        L.driver_s.push_back(driver_s);
        L.rcb_s.push_back(rcb_s);
        L.decompose_s.push_back(decompose_s);
    }
    spans.end(rep);
    return r;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Phase {
    std::vector<double> setup_s, l1;
    double timed_s = 0.0;
    double cell_steps = 0.0;
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;
    std::optional<std::uint64_t> digest;
    int reps = 0;

    /// Wall ns per cell-step over every timed step of the phase. The host's
    /// speed drifts over seconds (shared L3, neighbours), so the mean over
    /// the whole phase is steadier than a median over repetitions.
    [[nodiscard]] double grind_ns() const {
        return cell_steps > 0 ? 1e9 * timed_s / cell_steps : 0.0;
    }
};

/// Repeat the workload until `seconds` have passed (at least twice).
Phase run_phase(const Config& cfg, double seconds, Spans& spans,
                const char* name, Layers* layers) {
    Phase ph;
    const int parent = spans.begin(name, -1);
    const auto t0 = Clock::now();
    const bool dist = cfg.w->ranks > 0 && !cfg.core_reference;
    do {
        const RepResult r = dist ? run_dist(cfg, spans, parent, layers)
                                 : run_core(cfg, spans, parent, layers);
        ++ph.reps;
        ph.attempted += r.attempted;
        ph.failed += r.failed;
        if (r.failed > 0) {
            ph.failures.push_back(r.failure);
            continue;
        }
        // Every repetition runs the same trajectory: its bytes must repeat.
        if (ph.digest && *ph.digest != r.digest) {
            ph.failed += r.attempted;
            ph.failures.push_back("digest differs between repetitions");
            continue;
        }
        ph.digest = r.digest;
        ph.setup_s.push_back(r.setup_s);
        ph.timed_s += r.timed_s;
        ph.cell_steps += r.cell_steps;
        ph.l1.push_back(r.l1);
    } while (ph.reps < 2 ||
             std::chrono::duration<double>(Clock::now() - t0).count() < seconds);
    spans.end(parent);
    return ph;
}

/// The renumbered problem must hold the generator-order problem's initial
/// mass and energies. Only the summation order differs, and two orders of
/// an n-term sum of non-negative terms differ by at most 2 n eps of the
/// total (Sedov's one hot cell among 16k cold ones gets near that), while a
/// value carried to the wrong cell moves a total by a whole cell's share.
std::string check_renumbering(const Config& cfg) {
    auto reference = make_problem(*cfg.w, cfg.n);
    auto permuted = reference;
    renumber(permuted, cfg.seed);
    const Real tol = 2 * static_cast<Real>(reference.mesh.n_nodes()) *
                     std::numeric_limits<Real>::epsilon();
    const auto a = bl::core::Hydro(std::move(reference)).totals();
    const auto b = bl::core::Hydro(std::move(permuted)).totals();
    if (!close_rel(a.mass, b.mass, tol) ||
        !close_rel(a.internal_energy, b.internal_energy, tol) ||
        !close_rel(a.kinetic_energy, b.kinetic_energy, tol))
        return "renumbered initial totals differ from generator order";
    return "";
}

double per_item_ns(const KernelArray& k, Kernel kk) {
    const auto& s = k[static_cast<std::size_t>(kk)];
    return s.items > 0 ? 1e9 * s.wall_s / static_cast<double>(s.items) : 0.0;
}

bl::obs::Json per_layer(const Layers& L, double overhead) {
    bl::obs::Json m;
    const double steps = std::max<double>(1.0, static_cast<double>(L.steps));
    const auto ms_per_step = [&](double s) { return 1e3 * s / steps; };
    const auto& k = L.k;

    m["setup.problem_s"] = median(L.problem_s);
    m["setup.renumber_s"] = median(L.renumber_s);
    m["setup.driver_s"] = median(L.driver_s);

    // core: step spans exist only where the benchmark drives core::Hydro.
    // Kernel seconds inside task graphs are busy CPU-seconds, so the wall
    // they cover is taken as the graphs' makespan instead.
    const bool core = !L.step_ms.empty();
    const double tasks_s = k[static_cast<std::size_t>(Kernel::tasks)].wall_s;
    m["core.step_ms_p50"] = quantile(L.step_ms, 0.5);
    m["core.step_ms_p95"] = quantile(L.step_ms, 0.95);
    m["core.first_step_ms"] = median(L.first_step_ms);
    m["core.outside_kernels_ms"] =
        core ? ms_per_step(L.wall_s - 1e-6 * L.makespan_us -
                           (aggregate_wall(k) - tasks_s))
             : 0.0;

    // hydro: busy time per swept item (summed over workers and ranks).
    long long hydro_items = 0;
    double flops = 0;
    double bytes = 0;
    const auto& work = bl::perfmodel::reference_work();
    for (const Kernel kk : hydro_kernels) {
        const auto& s = k[static_cast<std::size_t>(kk)];
        m["hydro." + std::string(bl::util::kernel_name(kk)) + ".ns_per_item"] =
            per_item_ns(k, kk);
        hydro_items += s.items;
        if (const auto it = work.find(kk); it != work.end()) {
            flops += it->second.flops * static_cast<double>(s.items);
            bytes += it->second.bytes * static_cast<double>(s.items);
        }
    }
    const double hydro_busy = sum_wall(k, hydro_kernels);
    m["hydro.items"] = static_cast<double>(hydro_items) / steps;
    m["hydro.busy_ms"] = ms_per_step(hydro_busy);
    // Computed from the perfmodel's per-item descriptors, not measured.
    m["hydro.computed_gflops"] = hydro_busy > 0 ? 1e-9 * flops / hydro_busy : 0.0;
    m["hydro.computed_gbs"] = hydro_busy > 0 ? 1e-9 * bytes / hydro_busy : 0.0;

    for (const Kernel kk : ale_kernels)
        m["ale." + std::string(bl::util::kernel_name(kk)) + ".ns_per_item"] =
            per_item_ns(k, kk);
    for (const Kernel kk : ale_phases)
        m["ale." + std::string(bl::util::kernel_name(kk)) + ".ns_per_item"] =
            per_item_ns(k, kk);
    m["ale.remaps"] = static_cast<double>(L.remaps) / steps;
    m["ale.busy_ms"] = ms_per_step(sum_wall(k, ale_kernels));

    long scopes = 0;
    for (const auto& s : k) scopes += s.calls;
    m["par.graphs"] = static_cast<double>(L.graphs) / steps;
    m["par.makespan_ms"] = 1e-3 * L.makespan_us / steps;
    m["par.critical_path_ms"] = 1e-3 * L.cp_us / steps;
    m["par.efficiency"] =
        L.busy_us > 0 ? L.busy_us / (L.busy_us + L.idle_us) : 0.0;
    m["par.idle_ms"] = 1e-3 * L.idle_us / steps;
    m["par.scopes"] = static_cast<double>(scopes) / steps;
    m["par.cpu_per_wall"] = L.wall_s > 0 ? L.cpu_s / L.wall_s : 0.0;

    m["part.rcb_s"] = median(L.rcb_s);
    m["part.decompose_s"] = median(L.decompose_s);
    m["part.edge_cut"] = static_cast<double>(L.edge_cut);
    m["part.imbalance"] = L.part_imbalance;

    const auto slot_ms = [&](Kernel kk) {
        return ms_per_step(k[static_cast<std::size_t>(kk)].wall_s);
    };
    m["typhon.halo_pack_ms"] = slot_ms(Kernel::halo_pack);
    m["typhon.halo_wait_ms"] = slot_ms(Kernel::halo_wait);
    m["typhon.halo_unpack_ms"] = slot_ms(Kernel::halo_unpack);
    m["typhon.reduce_wait_ms"] = slot_ms(Kernel::reduce_wait);
    m["typhon.messages"] = static_cast<double>(L.messages) / steps;
    m["typhon.bytes"] = static_cast<double>(L.bytes) / steps;

    double busy_max = 0;
    double busy_sum = 0;
    for (const double b : L.rank_busy_s) {
        busy_max = std::max(busy_max, b);
        busy_sum += b;
    }
    const auto n_ranks = static_cast<double>(L.rank_busy_s.size());
    m["dist.rank_imbalance"] =
        busy_sum > 0 ? busy_max / (busy_sum / n_ranks) : 0.0;
    const double kernels_mean =
        n_ranks > 0 ? std::accumulate(L.rank_kernels_s.begin(),
                                      L.rank_kernels_s.end(), 0.0) /
                          n_ranks
                    : 0.0;
    m["dist.outside_kernels_ms"] =
        n_ranks > 0 ? ms_per_step(L.wall_s - kernels_mean) : 0.0;

    m["obs.tracing_overhead_frac"] = overhead;
    return m;
}

int usage(const char* why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size N] [--steps N] [--driver core] "
                 "[--spans PATH]\n";
    return 2;
}

int run(int argc, char** argv) {
    Config cfg;
    std::string workload;
    std::optional<int> steps;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") workload = val;
        else if (key == "--seed") cfg.seed = std::stoull(val);
        else if (key == "--seconds") cfg.seconds = std::stod(val);
        else if (key == "--trace") cfg.trace = val == "1";
        else if (key == "--size") cfg.n = std::stoi(val);
        else if (key == "--steps") steps = std::stoi(val);
        else if (key == "--driver") cfg.core_reference = val == "core";
        else if (key == "--spans") cfg.spans_path = val;
        else return usage(("unknown argument " + key).c_str());
    }
    if (argc % 2 == 0) return usage("arguments come in --key value pairs");
    for (const auto& w : workloads)
        if (workload == w.name) cfg.w = &w;
    if (cfg.w == nullptr) return usage("unknown workload");
    if (!optimized_build || !ndebug_build) {
        std::cerr << "perfbench: refusing to report from a build without "
                     "__OPTIMIZE__ and NDEBUG (build type "
                  << PERFBENCH_BUILD_TYPE << ")\n";
        return 3;
    }
    cfg.steps = steps.value_or(cfg.w->steps);
    // The core reference of a dist workload runs the same steps, unwarmed.
    cfg.warmup = cfg.core_reference ? 0 : cfg.w->warmup;
    if (cfg.steps < 1 || cfg.n < 4 || cfg.seconds <= 0)
        return usage("--steps, --size and --seconds must be positive");

    Spans spans;
    const std::string renumber_failure = check_renumbering(cfg);

    bl::obs::Json out;
    out["schema"] = "perfbench.run/1";
    out["workload"] = cfg.w->name;
    out["seed"] = static_cast<long long>(cfg.seed);
    out["trace"] = cfg.trace;
    out["host"] = host_record();
    out["build"] = build_record();
    out["cells"] = static_cast<long>(cfg.n) * cfg.n;
    out["warmup_steps"] = cfg.warmup;
    out["timed_steps"] = cfg.steps;

    const Phase plain = run_phase(cfg, cfg.trace ? cfg.seconds / 2 : cfg.seconds,
                                  spans, "run.untraced", nullptr);
    out["working_set_mb"] = rss_mb();
    Phase traced;
    Layers layers;
    if (cfg.trace)
        traced = run_phase(cfg, cfg.seconds / 2, spans, "run.traced", &layers);

    long attempted = plain.attempted + traced.attempted;
    long failed = plain.failed + traced.failed;
    std::vector<std::string> failures = plain.failures;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    if (!renumber_failure.empty()) {
        failed = attempted;
        failures.push_back(renumber_failure);
    }
    // Telemetry is passive: the traced run must end in the same bytes.
    if (cfg.trace && plain.digest && traced.digest &&
        *plain.digest != *traced.digest) {
        failed = attempted;
        failures.push_back("traced digest differs from untraced digest");
    }

    out["reps"] = plain.reps;
    out["traced_reps"] = traced.reps;
    out["digest"] = plain.digest ? hex(*plain.digest) : "";
    if (cfg.trace) out["traced_digest"] = traced.digest ? hex(*traced.digest) : "";
    out["attempted"] = attempted;
    out["failed"] = failed;
    auto fails = bl::obs::Json::array();
    for (const auto& f : failures) fails.push_back(f);
    out["failures"] = std::move(fails);

    bl::obs::Json e2e;
    e2e["grind_ns"] = plain.grind_ns();
    e2e["setup_s"] = median(plain.setup_s);
    e2e["peak_rss_mb"] = peak_rss_mb();
    e2e["l1_rho_err"] = median(plain.l1);
    out["end_to_end"] = std::move(e2e);
    if (cfg.trace) {
        const double base = plain.grind_ns();
        const double overhead = base > 0 ? traced.grind_ns() / base - 1.0 : 0.0;
        out["per_layer"] = per_layer(layers, overhead);
    }
    if (!cfg.spans_path.empty()) spans.write(cfg.spans_path);
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
