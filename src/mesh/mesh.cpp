#include "mesh/mesh.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/error.hpp"

namespace bookleaf::mesh {

namespace {

/// Continuation `side` of edge k of cell c, found by searching the face
/// neighbour: the first side of `nb` (in corner order) that contains the
/// pivot node but is not the face shared with c. Returns the local corner
/// of that side's far node in `nb`, or -1 without a neighbour.
int find_continuation(const Mesh& mesh, Index c, int k, int side) {
    const int face =
        (k + (side == 0 ? corners_per_cell - 1 : 1)) % corners_per_cell;
    const Index nb = mesh.neighbor(c, face);
    if (nb == no_index) return -1;
    const Index node = mesh.cn(c, (k + side) % corners_per_cell);
    for (int m = 0; m < corners_per_cell; ++m) {
        const int m1 = (m + 1) % corners_per_cell;
        const Index a = mesh.cn(nb, m);
        const Index b = mesh.cn(nb, m1);
        if (a != node && b != node) continue;
        if (mesh.neighbor(nb, m) == c) continue; // the shared face
        return a == node ? m1 : m;
    }
    return -1;
}

/// Canonical flat corner id of storage corner `ck`.
std::int64_t canonical_corner(const Mesh& mesh, Index ck) {
    return static_cast<std::int64_t>(mesh.cell_id(ck / corners_per_cell)) *
               corners_per_cell +
           ck % corners_per_cell;
}

/// Hilbert index of (x, y) on a 2^16 x 2^16 grid.
std::uint64_t hilbert_d(std::uint32_t x, std::uint32_t y) {
    constexpr std::uint32_t last = (1u << 16) - 1;
    std::uint64_t d = 0;
    for (std::uint32_t s = 1u << 15; s > 0; s >>= 1) {
        const std::uint32_t rx = (x & s) != 0 ? 1 : 0;
        const std::uint32_t ry = (y & s) != 0 ? 1 : 0;
        d += static_cast<std::uint64_t>(s) * s * ((3 * rx) ^ ry);
        if (ry == 0) {
            if (rx == 1) {
                x = last - x;
                y = last - y;
            }
            std::swap(x, y);
        }
    }
    return d;
}

/// Composed canonical ids of a renumbering, cleared when the identity.
std::vector<Index> composed_ids(std::span<const Index> order,
                                const auto& id_of) {
    std::vector<Index> ids(order.size());
    bool identity = true;
    for (std::size_t i = 0; i < order.size(); ++i) {
        ids[i] = id_of(order[i]);
        identity = identity && ids[i] == static_cast<Index>(i);
    }
    if (identity) ids.clear();
    return ids;
}

} // namespace

Index Mesh::n_regions() const {
    Index max_region = -1;
    for (const Index r : cell_region) max_region = std::max(max_region, r);
    return max_region + 1;
}

void build_connectivity(Mesh& mesh) {
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();
    const auto nk = static_cast<std::size_t>(n_cells) * corners_per_cell;
    util::require(mesh.cell_nodes.size() == nk,
                  "mesh: cell_nodes size is not 4*n_cells");
    util::require(mesh.cell_ids.empty() ||
                      mesh.cell_ids.size() == static_cast<std::size_t>(n_cells),
                  "mesh: cell_ids size is not n_cells");
    util::require(mesh.node_ids.empty() ||
                      mesh.node_ids.size() == static_cast<std::size_t>(n_nodes),
                  "mesh: node_ids size is not n_nodes");
    for (const Index n : mesh.cell_nodes)
        util::require(n >= 0 && n < n_nodes,
                      "mesh: cell corner index out of range");

    // Node -> (cell, corner) by counting sort, filled in canonical cell
    // order so every row comes out ascending by canonical flat id.
    // node_cells is the same CSR with the corner dropped.
    auto& nc = mesh.node_corners;
    nc.offsets.assign(static_cast<std::size_t>(n_nodes) + 1, 0);
    for (const Index n : mesh.cell_nodes)
        ++nc.offsets[static_cast<std::size_t>(n) + 1];
    for (std::size_t n = 0; n < static_cast<std::size_t>(n_nodes); ++n)
        nc.offsets[n + 1] += nc.offsets[n];
    nc.items.resize(nk);
    {
        std::vector<Index> cursor(nc.offsets.begin(), nc.offsets.end() - 1);
        for (const Index c : canonical_order(mesh.cell_ids, n_cells))
            for (int k = 0; k < corners_per_cell; ++k)
                nc.items[static_cast<std::size_t>(
                    cursor[static_cast<std::size_t>(mesh.cn(c, k))]++)] =
                    c * corners_per_cell + k;
    }
    mesh.node_cells.offsets = nc.offsets;
    mesh.node_cells.items.resize(nk);
    for (std::size_t i = 0; i < nk; ++i)
        mesh.node_cells.items[i] = nc.items[i] / corners_per_cell;

    // Faces in storage order of first sighting. The other cell on edge
    // (a, b) of cell c is found among a's corners: one whose next or
    // previous corner is b. A face's first sighting links both sides, so a
    // later sighting only reads the face id back.
    mesh.cell_neigh.assign(nk, no_index);
    mesh.cell_face.assign(nk, no_index);
    mesh.faces.clear();
    mesh.faces.reserve(nk / 2 + static_cast<std::size_t>(n_nodes));
    for (Index c = 0; c < n_cells; ++c) {
        for (int k = 0; k < corners_per_cell; ++k) {
            const auto slot = static_cast<std::size_t>(c) * corners_per_cell +
                              static_cast<std::size_t>(k);
            const Index a = mesh.cn(c, k);
            const Index b = mesh.cn(c, (k + 1) % corners_per_cell);
            util::require(a != b, "mesh: degenerate cell edge");
            if (mesh.cell_face[slot] != no_index) continue;
            Index other = no_index;
            int k_other = -1;
            for (const Index ck : nc.row(a)) {
                const Index c2 = ck / corners_per_cell;
                const int m = ck % corners_per_cell;
                int edge = -1;
                if (mesh.cn(c2, (m + 1) % corners_per_cell) == b) edge = m;
                else if (mesh.cn(c2, (m + 3) % corners_per_cell) == b)
                    edge = (m + 3) % corners_per_cell;
                if (edge < 0 || (c2 == c && edge == k)) continue;
                util::require(other == no_index,
                              "mesh: face shared by more than two cells");
                other = c2;
                k_other = edge;
            }
            Face f;
            f.left = c;
            f.k_left = k;
            f.right = other;
            f.k_right = k_other;
            if (other != no_index && mesh.cell_id(other) < mesh.cell_id(c)) {
                std::swap(f.left, f.right);
                std::swap(f.k_left, f.k_right);
            }
            f.a = mesh.cn(f.left, f.k_left);
            f.b = mesh.cn(f.left, (f.k_left + 1) % corners_per_cell);
            const auto fid = static_cast<Index>(mesh.faces.size());
            mesh.faces.push_back(f);
            mesh.cell_face[slot] = fid;
            if (other == no_index) continue;
            const auto other_slot =
                static_cast<std::size_t>(other) * corners_per_cell +
                static_cast<std::size_t>(k_other);
            mesh.cell_face[other_slot] = fid;
            mesh.cell_neigh[slot] = other;
            mesh.cell_neigh[other_slot] = c;
        }
    }

    // Topology is fixed for the life of the mesh, so getq's limiter reads
    // its continuation edges from this table instead of searching.
    mesh.continuation.assign(nk * 2, -1);
    for (Index c = 0; c < n_cells; ++c)
        for (int k = 0; k < corners_per_cell; ++k)
            for (int side = 0; side < 2; ++side)
                mesh.continuation[Mesh::continuation_slot(c, k, side)] =
                    static_cast<std::int8_t>(
                        find_continuation(mesh, c, k, side));

    if (mesh.cell_region.empty())
        mesh.cell_region.assign(static_cast<std::size_t>(n_cells), 0);
    if (mesh.node_bc.empty())
        mesh.node_bc.assign(static_cast<std::size_t>(n_nodes), bc::none);
}

void renumber(Mesh& mesh, std::span<const Index> cell_order,
              std::span<const Index> node_order) {
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();
    util::require(cell_order.size() == static_cast<std::size_t>(n_cells) &&
                      node_order.size() == static_cast<std::size_t>(n_nodes),
                  "renumber: order sizes disagree with the mesh");
    std::vector<Index> new_node(static_cast<std::size_t>(n_nodes), no_index);
    for (std::size_t i = 0; i < node_order.size(); ++i) {
        const Index old = node_order[i];
        util::require(old >= 0 && old < n_nodes &&
                          new_node[static_cast<std::size_t>(old)] == no_index,
                      "renumber: node order is not a permutation");
        new_node[static_cast<std::size_t>(old)] = static_cast<Index>(i);
    }
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(n_cells), 0);
    std::vector<Index> cell_nodes(mesh.cell_nodes.size());
    for (std::size_t i = 0; i < cell_order.size(); ++i) {
        const Index old = cell_order[i];
        util::require(old >= 0 && old < n_cells &&
                          !seen[static_cast<std::size_t>(old)]++,
                      "renumber: cell order is not a permutation");
        for (int k = 0; k < corners_per_cell; ++k)
            cell_nodes[i * corners_per_cell + static_cast<std::size_t>(k)] =
                new_node[static_cast<std::size_t>(mesh.cn(old, k))];
    }

    mesh.x = reordered(mesh.x, node_order);
    mesh.y = reordered(mesh.y, node_order);
    mesh.node_bc = reordered(mesh.node_bc, node_order);
    mesh.cell_nodes = std::move(cell_nodes);
    mesh.cell_region = reordered(mesh.cell_region, cell_order);
    mesh.cell_ids =
        composed_ids(cell_order, [&](Index c) { return mesh.cell_id(c); });
    mesh.node_ids =
        composed_ids(node_order, [&](Index n) { return mesh.node_id(n); });
    build_connectivity(mesh);
}

std::vector<std::uint64_t> hilbert_keys(const Mesh& mesh) {
    if (mesh.n_cells() == 0) return {};
    const auto [x_lo, x_hi] = std::minmax_element(mesh.x.begin(), mesh.x.end());
    const auto [y_lo, y_hi] = std::minmax_element(mesh.y.begin(), mesh.y.end());
    constexpr Real last = (1 << 16) - 1;
    const auto cell_of = [&](Real v, Real lo, Real hi) {
        const Real t = hi > lo ? (v - lo) / (hi - lo) * last : 0.0;
        return static_cast<std::uint32_t>(std::clamp(t, Real(0), last));
    };
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(mesh.n_cells()));
    for (Index c = 0; c < mesh.n_cells(); ++c) {
        Real cx = 0, cy = 0;
        for (int k = 0; k < corners_per_cell; ++k) {
            const auto n = static_cast<std::size_t>(mesh.cn(c, k));
            cx += mesh.x[n];
            cy += mesh.y[n];
        }
        const auto d = hilbert_d(cell_of(Real(0.25) * cx, *x_lo, *x_hi),
                                 cell_of(Real(0.25) * cy, *y_lo, *y_hi));
        keys[static_cast<std::size_t>(c)] =
            d << 32 | static_cast<std::uint32_t>(mesh.cell_id(c));
    }
    return keys;
}

Order locality_order(const Mesh& mesh) {
    const auto keys = hilbert_keys(mesh);
    std::vector<std::pair<std::uint64_t, Index>> sorted(keys.size());
    for (std::size_t c = 0; c < keys.size(); ++c)
        sorted[c] = {keys[c], static_cast<Index>(c)};
    std::sort(sorted.begin(), sorted.end());
    Order order;
    order.cells.resize(keys.size());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        order.cells[i] = sorted[i].second;
    order.nodes = first_touch_nodes(mesh, order.cells);
    return order;
}

std::vector<Index> first_touch_nodes(const Mesh& mesh,
                                     std::span<const Index> cells) {
    std::vector<std::uint8_t> touched(static_cast<std::size_t>(mesh.n_nodes()),
                                      0);
    std::vector<Index> nodes;
    nodes.reserve(touched.size());
    for (const Index c : cells)
        for (int k = 0; k < corners_per_cell; ++k) {
            const Index n = mesh.cn(c, k);
            if (!touched[static_cast<std::size_t>(n)]++) nodes.push_back(n);
        }
    return nodes;
}

std::vector<Index> canonical_order(std::span<const Index> ids, Index n) {
    std::vector<Index> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    if (ids.empty()) return order;
    // A permutation of [0, n) (a whole mesh) inverts in one pass; other
    // ids (a subdomain's global ids) sort.
    std::vector<Index> inverse(order.size(), no_index);
    bool dense = true;
    for (std::size_t i = 0; dense && i < ids.size(); ++i) {
        const auto id = static_cast<std::size_t>(ids[i]);
        dense = id < inverse.size() && inverse[id] == no_index;
        if (dense) inverse[id] = static_cast<Index>(i);
    }
    if (dense) return inverse;
    std::sort(order.begin(), order.end(), [&](Index a, Index b) {
        return ids[static_cast<std::size_t>(a)] <
               ids[static_cast<std::size_t>(b)];
    });
    return order;
}

std::string check_consistency(const Mesh& mesh) {
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();
    if (mesh.x.size() != mesh.y.size()) return "x/y size mismatch";
    if (mesh.cell_region.size() != static_cast<std::size_t>(n_cells))
        return "cell_region size mismatch";
    if (mesh.node_bc.size() != static_cast<std::size_t>(n_nodes))
        return "node_bc size mismatch";
    if (!mesh.cell_ids.empty() &&
        mesh.cell_ids.size() != static_cast<std::size_t>(n_cells))
        return "cell_ids size mismatch";
    if (!mesh.node_ids.empty() &&
        mesh.node_ids.size() != static_cast<std::size_t>(n_nodes))
        return "node_ids size mismatch";
    if (mesh.cell_neigh.size() !=
        static_cast<std::size_t>(n_cells) * corners_per_cell)
        return "cell_neigh size mismatch (connectivity not built?)";

    for (Index c = 0; c < n_cells; ++c) {
        for (int k = 0; k < corners_per_cell; ++k) {
            const Index n = mesh.cn(c, k);
            if (n < 0 || n >= n_nodes) return "corner node out of range";
            const Index nb = mesh.neighbor(c, k);
            if (nb == no_index) continue;
            if (nb < 0 || nb >= n_cells) return "neighbour out of range";
            // Reciprocity: nb must list c as one of its neighbours.
            bool found = false;
            for (int kk = 0; kk < corners_per_cell; ++kk)
                if (mesh.neighbor(nb, kk) == c) found = true;
            if (!found) return "non-reciprocal neighbour link";
        }
    }

    // node_corners: every (cell, corner) appears exactly once, under the
    // node the corner actually references, in ascending canonical flat-id
    // order; node_cells is the same rows without the corner.
    if (mesh.node_corners.n_rows() != n_nodes)
        return "node_corners row count mismatch (connectivity not built?)";
    if (mesh.node_corners.items.size() !=
        static_cast<std::size_t>(n_cells) * corners_per_cell)
        return "node_corners item count is not 4*n_cells";
    {
        std::vector<std::uint8_t> seen(
            static_cast<std::size_t>(n_cells) * corners_per_cell, 0);
        for (Index n = 0; n < n_nodes; ++n) {
            std::int64_t prev = -1;
            for (const Index ck : mesh.node_corners.row(n)) {
                if (ck < 0 ||
                    ck >= n_cells * static_cast<Index>(corners_per_cell))
                    return "node_corners flat id out of range";
                const std::int64_t canonical = canonical_corner(mesh, ck);
                if (canonical <= prev)
                    return "node_corners row not strictly ascending by "
                           "canonical flat id";
                prev = canonical;
                if (seen[static_cast<std::size_t>(ck)]++)
                    return "duplicate (cell, corner) in node_corners";
                if (mesh.cn(ck / corners_per_cell, ck % corners_per_cell) != n)
                    return "node_corners entry under the wrong node";
            }
        }
        if (mesh.node_cells.offsets != mesh.node_corners.offsets)
            return "node_cells rows disagree with node_corners";
        for (std::size_t i = 0; i < mesh.node_cells.items.size(); ++i)
            if (mesh.node_cells.items[i] !=
                mesh.node_corners.items[i] / corners_per_cell)
                return "node_cells rows disagree with node_corners";
    }

    if (mesh.continuation.size() !=
        static_cast<std::size_t>(n_cells) * corners_per_cell * 2)
        return "continuation table size is not 8*n_cells "
               "(connectivity not built?)";
    for (Index c = 0; c < n_cells; ++c)
        for (int k = 0; k < corners_per_cell; ++k)
            for (int side = 0; side < 2; ++side)
                if (mesh.continuation[Mesh::continuation_slot(c, k, side)] !=
                    find_continuation(mesh, c, k, side))
                    return "continuation entry disagrees with the "
                           "neighbour search";

    for (const auto& f : mesh.faces) {
        if (f.left == no_index) return "face without owner";
        if (f.a == f.b) return "degenerate face";
        if (f.a != mesh.cn(f.left, f.k_left) ||
            f.b != mesh.cn(f.left, (f.k_left + 1) % corners_per_cell))
            return "face nodes are not its left cell's edge";
        if (f.right != no_index) {
            if (mesh.cell_id(f.left) > mesh.cell_id(f.right))
                return "interior face not oriented from the lower canonical "
                       "cell id";
            // The shared face must use the same two nodes in both cells.
            const Index la = mesh.cn(f.left, f.k_left);
            const Index lb = mesh.cn(f.left, (f.k_left + 1) % corners_per_cell);
            const Index ra = mesh.cn(f.right, f.k_right);
            const Index rb = mesh.cn(f.right, (f.k_right + 1) % corners_per_cell);
            if (!((la == rb && lb == ra) || (la == ra && lb == rb)))
                return "face node mismatch between owner and neighbour";
        }
    }
    return {};
}

} // namespace bookleaf::mesh
