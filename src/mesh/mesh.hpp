#pragma once
/// \file mesh.hpp
/// Unstructured 2-D quadrilateral mesh.
///
/// Storage is fully unstructured: cells are lists of four node indices in
/// counter-clockwise order, faces are discovered by hashing node pairs, and
/// node valence is arbitrary (node->cell adjacency is CSR). The staggered
/// discretisation places thermodynamic state on cells and kinematic state
/// on nodes (paper §III-A).

#include <cstdint>
#include <vector>

#include "util/csr.hpp"
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
/// on the left; for boundary faces `right == no_index`.
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

    // --- derived connectivity (filled by build_connectivity) -------------
    std::vector<Index> cell_neigh; ///< 4 * n_cells; neighbour across local
                                   ///< face k (nodes k, k+1 mod 4)
    std::vector<Index> cell_face;  ///< 4 * n_cells; global face id of local face k
    std::vector<Face> faces;       ///< unique faces
    util::Csr node_cells;          ///< node -> incident cells
    /// Node -> incident (cell, corner) pairs, packed as the flat corner id
    /// `cell * corners_per_cell + k` (the same index that addresses the
    /// corner arrays in hydro::State). Row order is ascending flat id, i.e.
    /// ascending (cell, corner) — so a gather over a row visits corner
    /// contributions in exactly the order a cell-loop scatter would deposit
    /// them, making the gather-based nodal assembly bitwise identical to
    /// the serial scatter at any thread count.
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
/// `node_corners` and `continuation` from the primary storage. Throws
/// util::Error if a face is shared by more than two cells or a cell is
/// degenerate.
void build_connectivity(Mesh& mesh);

/// Sanity-check invariants (consistent sizes, valid indices, reciprocal
/// neighbour links, node_corners and continuation tables that match the
/// topology). Returns a human-readable description of the first
/// violation, or an empty string when the mesh is consistent.
[[nodiscard]] std::string check_consistency(const Mesh& mesh);

} // namespace bookleaf::mesh
