#include "hydro/state.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace bookleaf::hydro {

namespace {

/// Every field of a state, by the entity it lives on.
struct FieldGroups {
    std::array<Field*, 13> nodes;
    std::array<Field*, 9> cells;
    std::array<Field*, 11> corners;
};

FieldGroups fields_of(State& s) {
    return {{&s.x, &s.y, &s.u, &s.v, &s.node_mass, &s.nfx, &s.nfy, &s.x0,
             &s.y0, &s.u0, &s.v0, &s.ubar, &s.vbar},
            {&s.rho, &s.ein, &s.pre, &s.csqrd, &s.q, &s.volume, &s.cell_mass,
             &s.char_len, &s.ein0},
            {&s.fx, &s.fy, &s.qfx, &s.qfy, &s.cnmass, &s.cnvol, &s.cnx, &s.cny,
             &s.cngx, &s.cngy, &s.psi}};
}

// A field added to State belongs in one of the groups above.
static_assert(sizeof(State) == 33 * sizeof(Field));

} // namespace

State allocate(const mesh::Mesh& mesh) { return allocate(mesh, par::Exec{}); }

State allocate(const mesh::Mesh& mesh, const par::Exec& exec) {
    State s;
    const auto nn = static_cast<std::size_t>(mesh.n_nodes());
    const auto nc = static_cast<std::size_t>(mesh.n_cells());
    const auto nk = nc * corners_per_cell;

    // Size every field without touching its pages (Field default-inits),
    // then zero-fill in static per-worker blocks: with a pool, the first
    // write to each page happens on the worker whose block it belongs to,
    // so the OS places it on that worker's NUMA node (first-touch). The
    // bytes are identical to a serial zero-fill.
    const auto f = fields_of(s);
    for (Field* p : f.nodes) p->resize(nn);
    for (Field* p : f.cells) p->resize(nc);
    for (Field* p : f.corners) p->resize(nk);

    auto fill_block = [&](int tid, int parts) {
        const auto fill = [&](const auto& group) {
            for (Field* p : group) {
                const auto [begin, end] = par::detail::block(
                    static_cast<Index>(p->size()), parts, tid);
                std::fill(p->begin() + begin, p->begin() + end, Real(0.0));
            }
        };
        fill(f.nodes);
        fill(f.cells);
        fill(f.corners);
    };
    if (exec.threaded())
        exec.pool->run([&](int tid) { fill_block(tid, exec.width()); });
    else
        fill_block(0, 1);

    s.x.assign(mesh.x.begin(), mesh.x.end());
    s.y.assign(mesh.y.begin(), mesh.y.end());
    s.x0 = s.x;
    s.y0 = s.y;
    return s;
}

void renumber(State& s, std::span<const Index> cell_order,
              std::span<const Index> node_order) {
    const auto f = fields_of(s);
    for (Field* p : f.nodes) *p = mesh::reordered(*p, node_order);
    for (Field* p : f.cells) *p = mesh::reordered(*p, cell_order);
    for (Field* p : f.corners)
        *p = mesh::reordered(*p, cell_order, corners_per_cell);
}

void initialise(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
                State& s) {
    const Index n_cells = mesh.n_cells();
    util::require(s.n_cells() == n_cells, "initialise: state/mesh size mismatch");

    for (Index c = 0; c < n_cells; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const Real vol = s.rebuild_geometry(mesh, c);
        util::require(vol > 0.0, "initialise: non-positive cell volume");
        s.cell_mass[ci] = s.rho[ci] * vol;
        for (int k = 0; k < corners_per_cell; ++k)
            s.cnmass[State::cidx(c, k)] = s.rho[ci] * s.cnvol[State::cidx(c, k)];

        const Index r = mesh.cell_region[ci];
        s.pre[ci] = materials.pressure(r, s.rho[ci], s.ein[ci]);
        s.csqrd[ci] = materials.sound_speed2(r, s.rho[ci], s.ein[ci]);
    }

    // Nodal masses: gather the corner masses of incident cells.
    for (Index n = 0; n < mesh.n_nodes(); ++n) {
        Real m = 0.0;
        for (const Index c : mesh.node_cells.row(n))
            for (int k = 0; k < corners_per_cell; ++k)
                if (mesh.cn(c, k) == n) m += s.cnmass[State::cidx(c, k)];
        s.node_mass[static_cast<std::size_t>(n)] = m;
    }

    s.x0 = s.x;
    s.y0 = s.y;
    s.u0 = s.u;
    s.v0 = s.v;
    s.ein0 = s.ein;
}

Totals totals(const mesh::Mesh& mesh, const State& s) {
    Totals t;
    for (const Index c : mesh::canonical_order(mesh.cell_ids, s.n_cells())) {
        const auto ci = static_cast<std::size_t>(c);
        t.mass += s.cell_mass[ci];
        t.internal_energy += s.cell_mass[ci] * s.ein[ci];
    }
    for (const Index n : mesh::canonical_order(mesh.node_ids, s.n_nodes())) {
        const auto ni = static_cast<std::size_t>(n);
        t.momentum_x += s.node_mass[ni] * s.u[ni];
        t.momentum_y += s.node_mass[ni] * s.v[ni];
        t.kinetic_energy += Real(0.5) * s.node_mass[ni] *
                            (s.u[ni] * s.u[ni] + s.v[ni] * s.v[ni]);
    }
    return t;
}

} // namespace bookleaf::hydro
