#include "mesh/mesh.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "util/error.hpp"

namespace bookleaf::mesh {

namespace {

/// Key for the edge hash: unordered node pair packed into 64 bits.
std::uint64_t edge_key(Index a, Index b) {
    const auto lo = static_cast<std::uint64_t>(std::min(a, b));
    const auto hi = static_cast<std::uint64_t>(std::max(a, b));
    return (hi << 32) | lo;
}

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

} // namespace

Index Mesh::n_regions() const {
    Index max_region = -1;
    for (const Index r : cell_region) max_region = std::max(max_region, r);
    return max_region + 1;
}

void build_connectivity(Mesh& mesh) {
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();
    util::require(mesh.cell_nodes.size() ==
                      static_cast<std::size_t>(n_cells) * corners_per_cell,
                  "mesh: cell_nodes size is not 4*n_cells");

    mesh.cell_neigh.assign(static_cast<std::size_t>(n_cells) * corners_per_cell,
                           no_index);
    mesh.cell_face.assign(static_cast<std::size_t>(n_cells) * corners_per_cell,
                          no_index);
    mesh.faces.clear();

    // Discover faces: first sighting creates the face; second sighting
    // links the neighbour. A third sighting is a topological error.
    std::unordered_map<std::uint64_t, Index> open_faces;
    open_faces.reserve(static_cast<std::size_t>(n_cells) * 2);

    for (Index c = 0; c < n_cells; ++c) {
        for (int k = 0; k < corners_per_cell; ++k) {
            const Index a = mesh.cn(c, k);
            const Index b = mesh.cn(c, (k + 1) % corners_per_cell);
            util::require(a >= 0 && a < n_nodes && b >= 0 && b < n_nodes,
                          "mesh: cell corner index out of range");
            util::require(a != b, "mesh: degenerate cell edge");
            const auto key = edge_key(a, b);
            if (const auto it = open_faces.find(key); it == open_faces.end()) {
                Face f;
                f.a = a;
                f.b = b;
                f.left = c;
                f.k_left = k;
                const auto fid = static_cast<Index>(mesh.faces.size());
                open_faces.emplace(key, fid);
                mesh.faces.push_back(f);
                mesh.cell_face[static_cast<std::size_t>(c) * corners_per_cell + k] =
                    fid;
            } else {
                const Index fid = it->second;
                Face& f = mesh.faces[static_cast<std::size_t>(fid)];
                util::require(f.right == no_index,
                              "mesh: face shared by more than two cells");
                f.right = c;
                f.k_right = k;
                mesh.cell_face[static_cast<std::size_t>(c) * corners_per_cell + k] =
                    fid;
                mesh.cell_neigh[static_cast<std::size_t>(c) * corners_per_cell + k] =
                    f.left;
                mesh.cell_neigh[static_cast<std::size_t>(f.left) * corners_per_cell +
                                f.k_left] = c;
            }
        }
    }

    // Node -> cell and node -> (cell, corner) adjacency (arbitrary
    // valence). Pairs are emitted in ascending (cell, corner) order, which
    // from_pairs preserves within each row — the ordering contract the
    // gather-based nodal assembly relies on for bitwise determinism.
    std::vector<std::pair<Index, Index>> pairs;
    pairs.reserve(static_cast<std::size_t>(n_cells) * corners_per_cell);
    for (Index c = 0; c < n_cells; ++c)
        for (int k = 0; k < corners_per_cell; ++k)
            pairs.emplace_back(mesh.cn(c, k), c);
    mesh.node_cells = util::Csr::from_pairs(n_nodes, pairs);
    for (Index c = 0; c < n_cells; ++c)
        for (int k = 0; k < corners_per_cell; ++k)
            pairs[static_cast<std::size_t>(c) * corners_per_cell +
                  static_cast<std::size_t>(k)] = {
                mesh.cn(c, k), c * corners_per_cell + k};
    mesh.node_corners = util::Csr::from_pairs(n_nodes, pairs);

    // Topology is fixed for the life of the mesh, so getq's limiter reads
    // its continuation edges from this table instead of searching.
    mesh.continuation.assign(
        static_cast<std::size_t>(n_cells) * corners_per_cell * 2, -1);
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

std::string check_consistency(const Mesh& mesh) {
    const Index n_cells = mesh.n_cells();
    const Index n_nodes = mesh.n_nodes();
    if (mesh.x.size() != mesh.y.size()) return "x/y size mismatch";
    if (mesh.cell_region.size() != static_cast<std::size_t>(n_cells))
        return "cell_region size mismatch";
    if (mesh.node_bc.size() != static_cast<std::size_t>(n_nodes))
        return "node_bc size mismatch";
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
    // node the corner actually references, in ascending flat-id order.
    if (mesh.node_corners.n_rows() != n_nodes)
        return "node_corners row count mismatch (connectivity not built?)";
    if (mesh.node_corners.items.size() !=
        static_cast<std::size_t>(n_cells) * corners_per_cell)
        return "node_corners item count is not 4*n_cells";
    {
        std::vector<std::uint8_t> seen(
            static_cast<std::size_t>(n_cells) * corners_per_cell, 0);
        for (Index n = 0; n < n_nodes; ++n) {
            Index prev = no_index;
            for (const Index ck : mesh.node_corners.row(n)) {
                if (ck < 0 ||
                    ck >= n_cells * static_cast<Index>(corners_per_cell))
                    return "node_corners flat id out of range";
                if (ck <= prev) return "node_corners row not strictly ascending";
                prev = ck;
                if (seen[static_cast<std::size_t>(ck)]++)
                    return "duplicate (cell, corner) in node_corners";
                if (mesh.cn(ck / corners_per_cell, ck % corners_per_cell) != n)
                    return "node_corners entry under the wrong node";
            }
        }
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
        if (f.right != no_index) {
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
