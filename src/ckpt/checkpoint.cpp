#include "ckpt/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "hydro/kernels.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace bookleaf::ckpt {

namespace {

constexpr std::array<char, 8> magic = {'B', 'L', 'F', 'C', 'K', 'P', 'T', '\n'};
constexpr std::size_t field_name_bytes = 12;

/// The serialized fields, in file order. Kind selects the entity space the
/// count is validated against.
enum class Kind : std::uint8_t { node, cell, corner };

struct FieldRef {
    const char* name;
    Kind kind;
    std::vector<Real> Snapshot::* member;
};

constexpr std::array<FieldRef, 10> fields = {{
    {"x", Kind::node, &Snapshot::x},
    {"y", Kind::node, &Snapshot::y},
    {"u", Kind::node, &Snapshot::u},
    {"v", Kind::node, &Snapshot::v},
    {"node_mass", Kind::node, &Snapshot::node_mass},
    {"rho", Kind::cell, &Snapshot::rho},
    {"ein", Kind::cell, &Snapshot::ein},
    {"q", Kind::cell, &Snapshot::q},
    {"cell_mass", Kind::cell, &Snapshot::cell_mass},
    {"cnmass", Kind::corner, &Snapshot::cnmass},
}};

template <typename T>
void put(std::ostream& out, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& in, const std::string& path, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    in.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(T)))
        throw util::Error("ckpt: truncated checkpoint '" + path +
                          "' (while reading " + what + ")");
    return v;
}

std::size_t expected_count(Kind kind, std::int64_t n_nodes,
                           std::int64_t n_cells) {
    switch (kind) {
    case Kind::node: return static_cast<std::size_t>(n_nodes);
    case Kind::cell: return static_cast<std::size_t>(n_cells);
    case Kind::corner:
        return static_cast<std::size_t>(n_cells) * corners_per_cell;
    }
    return 0;
}

} // namespace

std::uint64_t checksum(const void* data, std::size_t bytes) {
    return util::fnv1a(data, bytes);
}

std::uint64_t mesh_hash(const mesh::Mesh& mesh) {
    std::uint64_t h = util::fnv1a_offset;
    const std::int64_t counts[2] = {mesh.n_nodes(), mesh.n_cells()};
    h = util::fnv1a(h, counts, sizeof(counts));
    const auto over = [&](const auto& vec) {
        h = util::fnv1a(h, vec.data(), vec.size() * sizeof(vec[0]));
    };
    // The caller's mesh: every table in canonical order and numbering.
    const auto nodes = mesh::canonical_order(mesh.node_ids, mesh.n_nodes());
    const auto cells = mesh::canonical_order(mesh.cell_ids, mesh.n_cells());
    std::vector<Index> cell_nodes(mesh.cell_nodes.size());
    for (std::size_t i = 0; i < cell_nodes.size(); ++i)
        cell_nodes[i] = mesh.node_id(mesh.cell_nodes[i]);
    over(mesh::reordered(mesh.x, nodes));
    over(mesh::reordered(mesh.y, nodes));
    over(mesh::reordered(cell_nodes, cells, corners_per_cell));
    over(mesh::reordered(mesh.cell_region, cells));
    over(mesh::reordered(mesh.node_bc, nodes));
    return h;
}

void write(const std::string& path, const Snapshot& snapshot) {
    const std::int64_t n_nodes = snapshot.n_nodes();
    const std::int64_t n_cells = snapshot.n_cells();
    for (const auto& f : fields)
        util::require((snapshot.*(f.member)).size() ==
                          expected_count(f.kind, n_nodes, n_cells),
                      std::string("ckpt: inconsistent field size for '") +
                          f.name + "' while writing " + path);

    // Atomic write: stream to <path>.tmp, rename into place only after a
    // successful flush. A crash (or injected rank kill) mid-write leaves
    // at worst a stale .tmp that snapshot discovery and restart_from
    // never match — never a truncated .ckpt.
    const std::string tmp = path + ".tmp";
    try {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        util::require(static_cast<bool>(out), "ckpt: cannot open " + tmp);

        // The header checksum folds in every byte as it is written.
        std::uint64_t hsum = util::fnv1a_offset;
        const auto put_h = [&](const auto& v) {
            hsum = util::fnv1a(hsum, &v, sizeof(v));
            put(out, v);
        };
        out.write(magic.data(), static_cast<std::streamsize>(magic.size()));
        hsum = util::fnv1a(hsum, magic.data(), magic.size());
        put_h(format_version);
        put_h(static_cast<std::uint32_t>(fields.size()));
        put_h(snapshot.mesh_hash);
        put_h(snapshot.steps);
        put_h(snapshot.t);
        put_h(snapshot.dt);
        put_h(snapshot.regrow);
        put_h(n_nodes);
        put_h(n_cells);
        put(out, hsum);

        for (const auto& f : fields) {
            const auto& data = snapshot.*(f.member);
            std::array<char, field_name_bytes> name{};
            std::strncpy(name.data(), f.name, field_name_bytes - 1);
            out.write(name.data(), static_cast<std::streamsize>(name.size()));
            put(out, static_cast<std::uint64_t>(data.size()));
            put(out, checksum(data.data(), data.size() * sizeof(Real)));
            out.write(reinterpret_cast<const char*>(data.data()),
                      static_cast<std::streamsize>(data.size() * sizeof(Real)));
        }
        out.flush();
        util::require(static_cast<bool>(out), "ckpt: write failed for " + tmp);
        out.close();
        util::require(std::rename(tmp.c_str(), path.c_str()) == 0,
                      "ckpt: cannot move " + tmp + " into place as " + path);
    } catch (...) {
        std::remove(tmp.c_str());
        throw;
    }
}

Snapshot read(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    util::require(static_cast<bool>(in), "ckpt: cannot open " + path);

    std::array<char, 8> file_magic{};
    in.read(file_magic.data(), static_cast<std::streamsize>(file_magic.size()));
    if (in.gcount() != static_cast<std::streamsize>(file_magic.size()) ||
        file_magic != magic)
        throw util::Error("ckpt: '" + path + "' is not a BookLeaf checkpoint");

    // Recompute the header checksum byte-for-byte as the fields come in.
    std::uint64_t hsum = util::fnv1a(magic.data(), magic.size());
    const auto get_h = [&]<typename T>(std::in_place_type_t<T>,
                                       const char* what) {
        const T v = get<T>(in, path, what);
        hsum = util::fnv1a(hsum, &v, sizeof(v));
        return v;
    };
    const auto version =
        get_h(std::in_place_type<std::uint32_t>, "version");
    if (version != format_version)
        throw util::Error("ckpt: '" + path + "' has format version " +
                          std::to_string(version) + ", expected " +
                          std::to_string(format_version));
    const auto n_fields =
        get_h(std::in_place_type<std::uint32_t>, "field count");
    if (n_fields != fields.size())
        throw util::Error("ckpt: '" + path + "' carries " +
                          std::to_string(n_fields) + " fields, expected " +
                          std::to_string(fields.size()));

    Snapshot snapshot;
    snapshot.mesh_hash = get_h(std::in_place_type<std::uint64_t>, "mesh hash");
    snapshot.steps = get_h(std::in_place_type<std::int64_t>, "step count");
    snapshot.t = get_h(std::in_place_type<Real>, "time");
    snapshot.dt = get_h(std::in_place_type<Real>, "dt");
    snapshot.regrow = get_h(std::in_place_type<Real>, "regrow limit");
    const auto n_nodes = get_h(std::in_place_type<std::int64_t>, "node count");
    const auto n_cells = get_h(std::in_place_type<std::int64_t>, "cell count");
    if (get<std::uint64_t>(in, path, "header checksum") != hsum)
        throw util::Error("ckpt: header checksum mismatch in '" + path +
                          "' (corrupt file)");
    if (n_nodes < 0 || n_cells < 0 ||
        n_nodes > std::numeric_limits<Index>::max() ||
        n_cells > std::numeric_limits<Index>::max() / corners_per_cell)
        throw util::Error("ckpt: '" + path + "' has implausible entity counts");

    // Bound every allocation by the bytes actually on disk *before*
    // trusting any count: a forged header demanding gigabytes must throw
    // here, not inside a resize. The format has no padding, so the size
    // is exact.
    {
        const auto header_end = in.tellg();
        in.seekg(0, std::ios::end);
        const auto file_size = static_cast<std::uint64_t>(in.tellg());
        in.seekg(header_end);
        std::uint64_t expected = static_cast<std::uint64_t>(header_end);
        for (const auto& f : fields)
            expected += field_name_bytes + 2 * sizeof(std::uint64_t) +
                        static_cast<std::uint64_t>(
                            expected_count(f.kind, n_nodes, n_cells)) *
                            sizeof(Real);
        if (file_size != expected)
            throw util::Error("ckpt: '" + path +
                              "' size disagrees with its header (truncated "
                              "or corrupt file)");
    }

    for (const auto& f : fields) {
        std::array<char, field_name_bytes> name{};
        in.read(name.data(), static_cast<std::streamsize>(name.size()));
        if (in.gcount() != static_cast<std::streamsize>(name.size()))
            throw util::Error("ckpt: truncated checkpoint '" + path +
                              "' (field header)");
        if (std::strncmp(name.data(), f.name, field_name_bytes) != 0)
            throw util::Error("ckpt: '" + path + "' field '" +
                              std::string(name.data(),
                                          strnlen(name.data(),
                                                  field_name_bytes)) +
                              "' where '" + f.name + "' was expected");
        const auto count = get<std::uint64_t>(in, path, "field count");
        const auto sum = get<std::uint64_t>(in, path, "field checksum");
        if (count != expected_count(f.kind, n_nodes, n_cells))
            throw util::Error("ckpt: '" + path + "' field '" + f.name +
                              "' count disagrees with the header");
        auto& data = snapshot.*(f.member);
        data.resize(count);
        const auto bytes = static_cast<std::streamsize>(count * sizeof(Real));
        in.read(reinterpret_cast<char*>(data.data()), bytes);
        if (in.gcount() != bytes)
            throw util::Error("ckpt: truncated checkpoint '" + path +
                              "' (field '" + f.name + "')");
        if (checksum(data.data(), data.size() * sizeof(Real)) != sum)
            throw util::Error("ckpt: checksum mismatch in '" + path +
                              "' field '" + f.name + "' (corrupt file)");
    }
    return snapshot;
}

Snapshot capture(const mesh::Mesh& mesh, const hydro::State& s, Real t,
                 Real dt, std::int64_t steps, Real regrow) {
    Snapshot snap;
    snap.mesh_hash = mesh_hash(mesh);
    snap.steps = steps;
    snap.t = t;
    snap.dt = dt;
    snap.regrow = regrow;
    const auto nodes = mesh::canonical_order(mesh.node_ids, mesh.n_nodes());
    const auto cells = mesh::canonical_order(mesh.cell_ids, mesh.n_cells());
    using Out = std::vector<Real>;
    snap.x = mesh::reordered<Out>(s.x, nodes);
    snap.y = mesh::reordered<Out>(s.y, nodes);
    snap.u = mesh::reordered<Out>(s.u, nodes);
    snap.v = mesh::reordered<Out>(s.v, nodes);
    snap.node_mass = mesh::reordered<Out>(s.node_mass, nodes);
    snap.rho = mesh::reordered<Out>(s.rho, cells);
    snap.ein = mesh::reordered<Out>(s.ein, cells);
    snap.q = mesh::reordered<Out>(s.q, cells);
    snap.cell_mass = mesh::reordered<Out>(s.cell_mass, cells);
    snap.cnmass = mesh::reordered<Out>(s.cnmass, cells, corners_per_cell);
    return snap;
}

void rebuild_derived(const mesh::Mesh& mesh,
                     const eos::MaterialTable& materials, hydro::State& s) {
    // Restored rho is a primary: strict rebuild without the density
    // recompute (hydro::rebuild_cells is the shared per-cell sequence).
    hydro::rebuild_cells(mesh, materials, s, 0, mesh.n_cells(),
                         /*with_rho=*/false, /*strict=*/true, "ckpt");
}

void restore(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
             const Snapshot& snapshot, hydro::State& s) {
    if (snapshot.mesh_hash != mesh_hash(mesh))
        throw util::Error(
            "ckpt: checkpoint/deck mismatch — the snapshot was written for a "
            "different mesh (restart the deck that produced it)");
    util::require(snapshot.n_nodes() == mesh.n_nodes() &&
                      snapshot.n_cells() == mesh.n_cells(),
                  "ckpt: snapshot entity counts disagree with the mesh");
    // Storage entity i is canonical entity id(i): the ids are the order.
    const auto& nodes = mesh.node_ids;
    const auto& cells = mesh.cell_ids;
    using Out = hydro::Field;
    s.x = mesh::reordered<Out>(snapshot.x, nodes);
    s.y = mesh::reordered<Out>(snapshot.y, nodes);
    s.u = mesh::reordered<Out>(snapshot.u, nodes);
    s.v = mesh::reordered<Out>(snapshot.v, nodes);
    s.node_mass = mesh::reordered<Out>(snapshot.node_mass, nodes);
    s.rho = mesh::reordered<Out>(snapshot.rho, cells);
    s.ein = mesh::reordered<Out>(snapshot.ein, cells);
    s.q = mesh::reordered<Out>(snapshot.q, cells);
    s.cell_mass = mesh::reordered<Out>(snapshot.cell_mass, cells);
    s.cnmass = mesh::reordered<Out>(snapshot.cnmass, cells, corners_per_cell);
    rebuild_derived(mesh, materials, s);
    // Seed the step-start scratch as initialise does; every step rewrites
    // these before reading them.
    s.x0 = s.x;
    s.y0 = s.y;
    s.u0 = s.u;
    s.v0 = s.v;
    s.ein0 = s.ein;
}

} // namespace bookleaf::ckpt
