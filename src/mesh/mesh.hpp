#pragma once
/// \file mesh.hpp
/// Unstructured 2-D quadrilateral mesh.
///
/// Storage is fully unstructured: cells are lists of four node indices in
/// counter-clockwise order, faces are discovered through the node->corner
/// adjacency, and node valence is arbitrary (node->cell adjacency is CSR).
/// The staggered discretisation places thermodynamic state on cells and
/// kinematic state on nodes (paper §III-A).
///
/// A mesh may be stored in another order than its caller numbered it
/// (`renumber`; both drivers store theirs in locality order). It then
/// keeps the caller's numbering as *canonical ids*, and every
/// order-sensitive table follows them: face orientation and the
/// node_corners and node_cells row orders here, the ALE smoothing's
/// adjacency rows in ale::Workspace. Those are the only places where
/// numbering reaches a floating-point result, so a renumbered mesh
/// computes the bytes of the caller's.

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/csr.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace bookleaf::mesh {

/// Per-node boundary-condition bitmask.
namespace bc {
inline constexpr std::uint8_t none = 0;
inline constexpr std::uint8_t fix_u = 1; ///< reflective wall normal to x
inline constexpr std::uint8_t fix_v = 2; ///< reflective wall normal to y
inline constexpr std::uint8_t piston = 4; ///< driven node (Saltzmann)
} // namespace bc

/// A unique mesh face. Orientation: traversing a->b keeps the *left* cell
/// on the left; for boundary faces `right == no_index`. An interior face's
/// left cell is the one with the lower canonical id.
struct Face {
    Index a = no_index;     ///< first node
    Index b = no_index;     ///< second node
    Index left = no_index;  ///< owning cell (sees a->b counter-clockwise)
    Index right = no_index; ///< neighbour cell, or no_index on the boundary
    int k_left = -1;        ///< local face index within `left` (nodes k, k+1)
    int k_right = -1;       ///< local face index within `right`
};

/// Unstructured quad mesh with derived connectivity.
struct Mesh {
    // --- primary storage -------------------------------------------------
    std::vector<Real> x, y;            ///< node coordinates
    std::vector<Index> cell_nodes;     ///< 4 * n_cells, CCW per cell
    std::vector<Index> cell_region;    ///< material region per cell
    std::vector<std::uint8_t> node_bc; ///< boundary-condition mask per node

    // --- canonical ids ------------------------------------------------------
    /// Storage id -> the caller's (canonical) id, per cell and per node.
    /// Empty means identity (the generator, setup and `permute` output).
    /// A subdomain's local mesh holds the global ids here.
    std::vector<Index> cell_ids, node_ids;

    // --- derived connectivity (filled by build_connectivity) -------------
    std::vector<Index> cell_neigh; ///< 4 * n_cells; neighbour across local
                                   ///< face k (nodes k, k+1 mod 4)
    std::vector<Index> cell_face;  ///< 4 * n_cells; global face id of local face k
    std::vector<Face> faces;       ///< unique faces
    /// Node -> incident cells, each row ascending by canonical cell id.
    util::Csr node_cells;
    /// Node -> incident (cell, corner) pairs, packed as the flat corner id
    /// `cell * corners_per_cell + k` (the same index that addresses the
    /// corner arrays in hydro::State). Each row ascends by *canonical* flat
    /// id `cell_id(cell) * corners_per_cell + k` — so a gather over a row
    /// visits corner contributions in exactly the order a scatter over the
    /// caller's cells would deposit them, making the gather-based nodal
    /// assembly bitwise identical to the serial scatter at any thread
    /// count, in any storage order and on any subdomain.
    util::Csr node_corners;
    /// Viscosity-limiter continuation table (getq), two entries per cell
    /// edge. Edge k of cell c runs from cn(c, k) to cn(c, k+1); its
    /// *previous* continuation is the other edge through cn(c, k) of the
    /// face neighbour across face k-1, its *next* continuation the other
    /// edge through cn(c, k+1) of the face neighbour across face k+1.
    /// Entry [(c * 4 + k) * 2 + side] (side 0 = previous, 1 = next) holds
    /// the local corner, within that neighbour, of the continuation edge's
    /// far node, or -1 when the face is a (mesh or subdomain) boundary.
    std::vector<std::int8_t> continuation;

    [[nodiscard]] Index n_nodes() const { return static_cast<Index>(x.size()); }
    [[nodiscard]] Index n_cells() const {
        return static_cast<Index>(cell_nodes.size() / corners_per_cell);
    }
    [[nodiscard]] Index n_faces() const { return static_cast<Index>(faces.size()); }

    /// Canonical (caller's) id of storage cell c.
    [[nodiscard]] Index cell_id(Index c) const {
        return cell_ids.empty() ? c : cell_ids[static_cast<std::size_t>(c)];
    }
    /// Canonical (caller's) id of storage node n.
    [[nodiscard]] Index node_id(Index n) const {
        return node_ids.empty() ? n : node_ids[static_cast<std::size_t>(n)];
    }

    /// Node id of local corner k (0..3) of cell c.
    [[nodiscard]] Index cn(Index c, int k) const {
        return cell_nodes[static_cast<std::size_t>(c) * corners_per_cell +
                          static_cast<std::size_t>(k)];
    }

    /// Neighbour cell across local face k of cell c (no_index on boundary).
    [[nodiscard]] Index neighbor(Index c, int k) const {
        return cell_neigh[static_cast<std::size_t>(c) * corners_per_cell +
                          static_cast<std::size_t>(k)];
    }

    /// Global face id of local face k of cell c.
    [[nodiscard]] Index face_of(Index c, int k) const {
        return cell_face[static_cast<std::size_t>(c) * corners_per_cell +
                         static_cast<std::size_t>(k)];
    }

    /// Index into `continuation` of continuation `side` of edge k of c.
    [[nodiscard]] static std::size_t continuation_slot(Index c, int k,
                                                       int side) {
        return (static_cast<std::size_t>(c) * corners_per_cell +
                static_cast<std::size_t>(k)) *
                   2 +
               static_cast<std::size_t>(side);
    }

    /// Far node of continuation `side` (0 = previous, 1 = next) of edge k
    /// of cell c, or no_index when there is none (see `continuation`).
    [[nodiscard]] Index continuation_node(Index c, int k, int side) const {
        const int m = continuation[continuation_slot(c, k, side)];
        if (m < 0) return no_index;
        const int face = (k + (side == 0 ? corners_per_cell - 1 : 1)) %
                         corners_per_cell;
        return cn(neighbor(c, face), m);
    }

    /// Number of distinct material regions (max region id + 1).
    [[nodiscard]] Index n_regions() const;
};

/// Populate `cell_neigh`, `cell_face`, `faces`, `node_cells`,
/// `node_corners` and `continuation` from the primary storage and the
/// canonical ids. Faces are numbered in storage order of first sighting.
/// Throws util::Error if a face is shared by more than two cells or a cell
/// is degenerate.
void build_connectivity(Mesh& mesh);

/// Renumber the mesh: storage cell i becomes old cell `cell_order[i]` and
/// storage node i old node `node_order[i]` (each order a permutation).
/// Permutes the primary storage, composes the canonical ids (so they keep
/// naming the caller's entities; ids that come out as the identity are
/// cleared) and rebuilds the connectivity.
void renumber(Mesh& mesh, std::span<const Index> cell_order,
              std::span<const Index> node_order);

/// A per-entity field carried through `renumber`: entity i of the result
/// is entity order[i] of `field`, `width` values per entity (a corner
/// field carries 4). An empty order is the identity, as empty ids are; an
/// empty field stays empty. The result has `field`'s container type
/// unless `Out` names another.
template <typename Out = void, typename V>
[[nodiscard]] auto reordered(const V& field, std::span<const Index> order,
                             std::size_t width = 1) {
    using Result = std::conditional_t<std::is_void_v<Out>, V, Out>;
    if (order.empty()) return Result(field.begin(), field.end());
    Result out;
    if (field.empty()) return out;
    util::require(field.size() == order.size() * width,
                  "reordered: field size disagrees with the order");
    out.resize(field.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto from = static_cast<std::size_t>(order[i]) * width;
        for (std::size_t k = 0; k < width; ++k)
            out[i * width + k] = field[from + k];
    }
    return out;
}

/// Locality key of each cell: the Hilbert-curve index of its centroid on a
/// 2^16 x 2^16 grid over the nodes' bounding box in the high 32 bits, its
/// canonical id in the low 32. Keys are distinct, and cells whose
/// centroids share a grid point order by canonical id.
[[nodiscard]] std::vector<std::uint64_t> hilbert_keys(const Mesh& mesh);

/// New-to-old orders for `renumber`.
struct Order {
    std::vector<Index> cells, nodes;
};

/// The locality order: cells sorted by Hilbert key (ties to the lower
/// canonical id), nodes numbered in the order those cells first touch
/// them.
[[nodiscard]] Order locality_order(const Mesh& mesh);

/// Nodes in the order `cells` (a list of cell ids) first touch them.
[[nodiscard]] std::vector<Index> first_touch_nodes(
    const Mesh& mesh, std::span<const Index> cells);

/// Storage ids in ascending canonical id, for `ids` as in Mesh::cell_ids
/// over `n` entities (the identity when `ids` is empty).
[[nodiscard]] std::vector<Index> canonical_order(std::span<const Index> ids,
                                                 Index n);

/// Sanity-check invariants (consistent sizes, valid indices, reciprocal
/// neighbour links, face orientation and row orders that follow the
/// canonical ids, node_corners and continuation tables that match the
/// topology). Returns a human-readable description of the first
/// violation, or an empty string when the mesh is consistent.
[[nodiscard]] std::string check_consistency(const Mesh& mesh);

} // namespace bookleaf::mesh
