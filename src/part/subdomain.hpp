#pragma once
/// \file subdomain.hpp
/// Subdomain extraction: given a cell partition, build per-rank local
/// meshes (owned cells first, then a node-adjacent ghost layer) together
/// with the Typhon exchange schedules that refresh ghost data. The ghost
/// layer contains *every* cell sharing a node with an owned cell, so the
/// corner-force assembly at any node of an owned cell is complete locally
/// once ghost corner forces are exchanged (the paper's pre-acceleration
/// halo exchange).
///
/// Each local mesh is stored in the serial driver's locality order (owned
/// cells by the Hilbert key of their centroid, ghosts by owner and key,
/// nodes in first-touch order) and carries the global ids as its
/// canonical ids. Its face orientation and corner-gather rows therefore
/// follow the global numbering, which is what keeps every owned entity
/// bitwise equal to the serial run.
///
/// The step's halo/compute overlap keeps no entity lists here: the
/// distributed driver hands hydro::StepGraph the ghost layout
/// (n_owned_cells, node_owned) and the corner schedule's sent cells, and
/// the graph derives its halo edges at block granularity from them.

#include <vector>

#include "mesh/mesh.hpp"
#include "typhon/typhon.hpp"
#include "util/csr.hpp"
#include "util/types.hpp"

namespace bookleaf::part {

struct Subdomain {
    int rank = -1;
    /// Owned cells in [0, n_owned_cells), ghosts after; `local.cell_ids`
    /// and `local.node_ids` map local entities to global ones.
    mesh::Mesh local;
    Index n_owned_cells = 0;
    std::vector<std::uint8_t> node_owned; ///< 1 if this rank owns the node

    typhon::ExchangeSchedule cell_schedule;   ///< ghost cell scalars
    typhon::ExchangeSchedule corner_schedule; ///< ghost corner fields (4/cell)
    typhon::ExchangeSchedule node_schedule;   ///< ghost node scalars

    // --- distributed remap schedules and stencil metadata ------------------
    /// Cell-centred remap schedule: *face-adjacent* ghost cells only (the
    /// donor/limiter stencil of the flux reconstruction). Carries the four
    /// limited-gradient fields from their owning rank before the face
    /// fluxes are evaluated, so limited reconstruction at a boundary cell
    /// sees bitwise the same gradients as a serial run. A strict subset of
    /// cell_schedule's node-adjacent ghost layer — gradients of ghosts
    /// that are only node-adjacent are never read by any owned face flux.
    typhon::ExchangeSchedule remap_cell_schedule;
    /// Dual-mesh remap schedule: ghost corners (4 per ghost cell),
    /// carrying the remapped corner masses and the median-dual fluxes
    /// {cnmass, dflux} from their owning rank after the cell sweep. The
    /// dual fluxes of a ghost cell are NOT locally computable (its far
    /// faces leave the subdomain), yet they drive the momentum transfer
    /// into nodes this rank owns — this schedule is what closes the
    /// dual-mesh (momentum/corner-mass) remap at partition boundaries.
    /// Item-for-item the same ghost-corner pairing as corner_schedule,
    /// kept as its own schedule so the remap wire format is independently
    /// documented and counted.
    typhon::ExchangeSchedule remap_dual_schedule;
    /// Local faces incident to at least one owned cell — the faces whose
    /// swept volumes / fluxes the remap evaluates here. Every other local
    /// face is either interior to the ghost layer or *phantom* (a ghost
    /// cell's far face that is locally boundary but globally interior);
    /// their fluxes come in through remap_dual_schedule instead of being
    /// computed against a nonexistent neighbour.
    std::vector<Index> remap_faces;
    /// Local nodes whose full global cell stencil is present locally (the
    /// local node_cells row has the global row's length). The nodal remap
    /// (momentum + corner-mass gather) is evaluated exactly for these —
    /// a superset of every node of an owned cell — and skipped for the
    /// fringe, whose owners compute them and whose state the next
    /// pre-step halo refreshes.
    std::vector<Index> remap_nodes;
    // --- wire metadata -----------------------------------------------------
    // Every exchange of the distributed driver posts one message per
    // sending peer, whatever its field count. Per step: the fused state
    // halo {x, y, u, v} + {ein} (node and cell groups of ONE wire
    // exchange) and the corner halo {fx, fy}. Per remap: the same fused
    // state refresh, the target-mesh halo {xt, yt} per smoothing sync, the
    // gradient halo, and the fused result exchange {cell_mass, ein} +
    // {cnmass, dflux}. The DistPacking/DistRemap tests and the telemetry
    // wire check hold the Hub's measured message counts to
    // messages_per_step() / messages_per_remap(), so the metadata cannot
    // silently drift from the real wire format.

    /// Schedule entries that actually send (non-empty send_items) — the
    /// messages one exchange posts from this rank.
    [[nodiscard]] static Index n_sending_peers(
        const typhon::ExchangeSchedule& schedule);

    /// Local nodes this rank owns (the node_owned popcount) — the node
    /// slice it contributes to a checkpoint gather. Owned cell counts are
    /// n_owned_cells directly.
    [[nodiscard]] Index n_owned_nodes() const;

    /// Sending peers of the fused pre-step state halo: the union of the
    /// node and cell schedules' sending peer sets (one coalesced message
    /// per union peer — the ein halo rides in the node-halo message
    /// wherever the peer sets align, and alone where they do not).
    [[nodiscard]] Index n_state_peers() const;

    /// Point-to-point messages this rank posts per Lagrangian step: one
    /// per union peer of the fused state halo plus one per sending peer of
    /// the corner halo.
    [[nodiscard]] Index messages_per_step() const;

    /// Point-to-point messages this rank posts per ALE/Eulerian remap.
    /// `n_mesh_exchanges` is the number of target-mesh {xt, yt} syncs the
    /// remap performs: 0 in Eulerian mode (the target is the original
    /// mesh, exact everywhere locally), smoothing_passes + 1 in ALE mode
    /// (one per Jacobi pass plus the post-clamp sync).
    [[nodiscard]] Index messages_per_remap(int n_mesh_exchanges) const;
};

/// Split the global mesh into n_parts subdomains. `part[c]` is the rank
/// owning global cell c. Node ownership: the minimum rank among the parts
/// of the node's incident cells.
[[nodiscard]] std::vector<Subdomain> decompose(const mesh::Mesh& global,
                                               const std::vector<Index>& part,
                                               int n_parts);

} // namespace bookleaf::part
