#include "part/subdomain.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/error.hpp"

namespace bookleaf::part {

Index Subdomain::n_sending_peers(const typhon::ExchangeSchedule& schedule) {
    Index n = 0;
    for (const auto& peer : schedule.peers)
        if (!peer.send_items.empty()) ++n;
    return n;
}

namespace {

/// Sending peers of a fused two-schedule exchange: the union of the two
/// sending peer sets (one message per union peer).
Index n_union_sending_peers(const typhon::ExchangeSchedule& a,
                            const typhon::ExchangeSchedule& b) {
    std::vector<int> ranks;
    for (const auto* schedule : {&a, &b})
        for (const auto& peer : schedule->peers)
            if (!peer.send_items.empty() &&
                std::find(ranks.begin(), ranks.end(), peer.rank) == ranks.end())
                ranks.push_back(peer.rank);
    return static_cast<Index>(ranks.size());
}

} // namespace

Index Subdomain::n_state_peers() const {
    return n_union_sending_peers(node_schedule, cell_schedule);
}

Index Subdomain::n_owned_nodes() const {
    Index n = 0;
    for (const auto owned : node_owned) n += owned;
    return n;
}

Index Subdomain::messages_per_step() const {
    return n_state_peers() + n_sending_peers(corner_schedule);
}

Index Subdomain::messages_per_remap(int n_mesh_exchanges) const {
    // Pre-remap fused state refresh + per-sync target-mesh halo +
    // gradient halo + fused {cell results, dual-mesh results}.
    return n_state_peers() +
           n_mesh_exchanges * n_sending_peers(node_schedule) +
           n_sending_peers(remap_cell_schedule) +
           n_union_sending_peers(cell_schedule, remap_dual_schedule);
}

std::vector<Subdomain> decompose(const mesh::Mesh& global,
                                 const std::vector<Index>& part, int n_parts) {
    const Index n_cells = global.n_cells();
    const Index n_nodes = global.n_nodes();
    util::require(part.size() == static_cast<std::size_t>(n_cells),
                  "decompose: partition size mismatch");
    util::require(global.cell_ids.empty() && global.node_ids.empty(),
                  "decompose: the global mesh must be in its caller's "
                  "numbering");

    // Node owners: min part over incident cells.
    std::vector<Index> node_owner(static_cast<std::size_t>(n_nodes),
                                  std::numeric_limits<Index>::max());
    for (Index n = 0; n < n_nodes; ++n)
        for (const Index c : global.node_cells.row(n))
            node_owner[static_cast<std::size_t>(n)] =
                std::min(node_owner[static_cast<std::size_t>(n)],
                         part[static_cast<std::size_t>(c)]);

    std::vector<Subdomain> subs(static_cast<std::size_t>(n_parts));

    // Every local mesh is stored in the serial driver's locality order:
    // owned cells by the Hilbert key of their centroid over the global
    // bounding box, ghosts by (owner, key). The key's low half is the
    // global id, so sorting keys sorts cells.
    const auto key = mesh::hilbert_keys(global);
    std::vector<std::vector<Index>> owned(static_cast<std::size_t>(n_parts));
    {
        auto sorted = key;
        std::sort(sorted.begin(), sorted.end());
        for (const auto k : sorted) {
            const auto c = static_cast<Index>(k & 0xffffffffu);
            owned[static_cast<std::size_t>(part[static_cast<std::size_t>(c)])]
                .push_back(c);
        }
    }

    // Global cell -> owner-local id (owned cells are numbered first).
    std::vector<Index> owner_local(static_cast<std::size_t>(n_cells));
    for (int r = 0; r < n_parts; ++r)
        for (std::size_t i = 0; i < owned[static_cast<std::size_t>(r)].size(); ++i)
            owner_local[static_cast<std::size_t>(
                owned[static_cast<std::size_t>(r)][i])] = static_cast<Index>(i);

    // Global node -> local node of the rank being built (no_index between
    // ranks: only the entries a rank sets are reset).
    std::vector<Index> node_local(static_cast<std::size_t>(n_nodes), no_index);

    for (int r = 0; r < n_parts; ++r) {
        auto& sub = subs[static_cast<std::size_t>(r)];
        sub.rank = r;
        const auto& own = owned[static_cast<std::size_t>(r)];
        sub.n_owned_cells = static_cast<Index>(own.size());

        // Ghost layer: node-adjacent foreign cells.
        std::vector<Index> ghosts;
        {
            std::vector<std::uint8_t> seen(static_cast<std::size_t>(n_cells), 0);
            for (const Index c : own) seen[static_cast<std::size_t>(c)] = 1;
            for (const Index c : own)
                for (int k = 0; k < corners_per_cell; ++k) {
                    const Index node = global.cn(c, k);
                    for (const Index adj : global.node_cells.row(node))
                        if (!seen[static_cast<std::size_t>(adj)]) {
                            seen[static_cast<std::size_t>(adj)] = 1;
                            ghosts.push_back(adj);
                        }
                }
        }
        std::sort(ghosts.begin(), ghosts.end(), [&](Index a, Index b) {
            const Index pa = part[static_cast<std::size_t>(a)];
            const Index pb = part[static_cast<std::size_t>(b)];
            return pa != pb ? pa < pb
                            : key[static_cast<std::size_t>(a)] <
                                  key[static_cast<std::size_t>(b)];
        });

        // Local mesh: cells owned-first, nodes in first-touch order; the
        // canonical ids are the global ids.
        auto& lm = sub.local;
        lm.cell_ids = own;
        lm.cell_ids.insert(lm.cell_ids.end(), ghosts.begin(), ghosts.end());
        lm.node_ids = mesh::first_touch_nodes(global, lm.cell_ids);
        const auto n_local_nodes = static_cast<Index>(lm.node_ids.size());
        for (Index ln = 0; ln < n_local_nodes; ++ln)
            node_local[static_cast<std::size_t>(lm.node_id(ln))] = ln;

        lm.x.resize(lm.node_ids.size());
        lm.y.resize(lm.node_ids.size());
        lm.node_bc.resize(lm.node_ids.size());
        sub.node_owned.resize(lm.node_ids.size());
        for (std::size_t i = 0; i < lm.node_ids.size(); ++i) {
            const auto g = static_cast<std::size_t>(lm.node_ids[i]);
            lm.x[i] = global.x[g];
            lm.y[i] = global.y[g];
            lm.node_bc[i] = global.node_bc[g];
            sub.node_owned[i] = node_owner[g] == r ? 1 : 0;
        }
        lm.cell_nodes.reserve(lm.cell_ids.size() * corners_per_cell);
        lm.cell_region.reserve(lm.cell_ids.size());
        for (const Index c : lm.cell_ids) {
            for (int k = 0; k < corners_per_cell; ++k)
                lm.cell_nodes.push_back(
                    node_local[static_cast<std::size_t>(global.cn(c, k))]);
            lm.cell_region.push_back(
                global.cell_region[static_cast<std::size_t>(c)]);
        }
        for (const Index g : lm.node_ids)
            node_local[static_cast<std::size_t>(g)] = no_index;
        mesh::build_connectivity(lm);

        // --- distributed remap stencil metadata -----------------------------
        // Faces the remap evaluates here: incident to an owned cell. Faces
        // deeper in the ghost layer are either ghost-interior or phantom
        // (locally boundary, globally interior — a ghost cell's far face);
        // their fluxes arrive through remap_dual_schedule instead. Note a
        // face of an owned cell can never be phantom: its far neighbour is
        // node-adjacent to the owned cell and hence in the ghost layer, so
        // right == no_index on a remap face means a true global boundary.
        for (std::size_t fi = 0; fi < lm.faces.size(); ++fi) {
            const auto& f = lm.faces[fi];
            if (f.left < sub.n_owned_cells ||
                (f.right != no_index && f.right < sub.n_owned_cells))
                sub.remap_faces.push_back(static_cast<Index>(fi));
        }

        // Nodes with the complete global cell stencil present locally: the
        // nodal (dual-mesh) remap is evaluated exactly for these. Every
        // node of an owned cell qualifies (the ghost layer is
        // node-complete around owned cells); fringe nodes do not.
        for (Index ln = 0; ln < n_local_nodes; ++ln)
            if (lm.node_cells.row(ln).size() ==
                global.node_cells.row(lm.node_id(ln)).size())
                sub.remap_nodes.push_back(ln);
    }

    // --- exchange schedules --------------------------------------------------
    // Cell/corner: ghost cells of r owned by o, in r's ghost order; both
    // sides are built from that one item list.
    for (int r = 0; r < n_parts; ++r) {
        auto& sub = subs[static_cast<std::size_t>(r)];
        std::map<int, std::vector<std::pair<Index, Index>>> by_owner; // owner -> (global, local)
        for (Index lc = sub.n_owned_cells; lc < sub.local.n_cells(); ++lc) {
            const Index gc = sub.local.cell_id(lc);
            by_owner[static_cast<int>(part[static_cast<std::size_t>(gc)])]
                .emplace_back(gc, lc);
        }
        // A ghost is *face-adjacent* when it shares a face with an owned
        // cell — the only ghosts whose gradients any owned face flux reads.
        const auto face_adjacent = [&](Index lc) {
            for (int k = 0; k < corners_per_cell; ++k) {
                const Index nb = sub.local.neighbor(lc, k);
                if (nb != no_index && nb < sub.n_owned_cells) return true;
            }
            return false;
        };
        for (auto& [o, items] : by_owner) {
            typhon::ExchangeSchedule::Peer recv_peer;
            recv_peer.rank = o;
            typhon::ExchangeSchedule::Peer send_peer;
            send_peer.rank = r;
            typhon::ExchangeSchedule::Peer recv_corner;
            recv_corner.rank = o;
            typhon::ExchangeSchedule::Peer send_corner;
            send_corner.rank = r;
            typhon::ExchangeSchedule::Peer recv_grad;
            recv_grad.rank = o;
            typhon::ExchangeSchedule::Peer send_grad;
            send_grad.rank = r;
            for (const auto& [gc, lc] : items) {
                recv_peer.recv_items.push_back(lc);
                const Index ol = owner_local[static_cast<std::size_t>(gc)];
                send_peer.send_items.push_back(ol);
                for (int k = 0; k < corners_per_cell; ++k) {
                    recv_corner.recv_items.push_back(lc * corners_per_cell + k);
                    send_corner.send_items.push_back(ol * corners_per_cell + k);
                }
                if (face_adjacent(lc)) {
                    recv_grad.recv_items.push_back(lc);
                    send_grad.send_items.push_back(ol);
                }
            }
            sub.cell_schedule.peers.push_back(std::move(recv_peer));
            sub.corner_schedule.peers.push_back(std::move(recv_corner));
            subs[static_cast<std::size_t>(o)].cell_schedule.peers.push_back(
                std::move(send_peer));
            subs[static_cast<std::size_t>(o)].corner_schedule.peers.push_back(
                std::move(send_corner));
            // Entries stay pairwise consistent because both sides are
            // derived from the same face_adjacent(lc) classification (the
            // ghost side decides; empty entries post no message).
            if (!recv_grad.recv_items.empty()) {
                sub.remap_cell_schedule.peers.push_back(std::move(recv_grad));
                subs[static_cast<std::size_t>(o)]
                    .remap_cell_schedule.peers.push_back(std::move(send_grad));
            }
        }
    }

    // The dual-mesh remap exchange pairs the same ghost corners as the
    // per-step corner-force halo; keep it as its own schedule (see the
    // header) now that both sides of every corner peering exist.
    for (auto& sub : subs) sub.remap_dual_schedule = sub.corner_schedule;

    // Node schedule: ghost nodes of r receive from their owner o, in r's
    // local node order; both sides are built from that one item list.
    {
        // Per-rank local node lookup.
        std::vector<std::unordered_map<Index, Index>> g2l(
            static_cast<std::size_t>(n_parts));
        for (int r = 0; r < n_parts; ++r) {
            auto& m = g2l[static_cast<std::size_t>(r)];
            const auto& ln = subs[static_cast<std::size_t>(r)].local.node_ids;
            m.reserve(ln.size());
            for (std::size_t i = 0; i < ln.size(); ++i)
                m.emplace(ln[i], static_cast<Index>(i));
        }
        for (int r = 0; r < n_parts; ++r) {
            auto& sub = subs[static_cast<std::size_t>(r)];
            std::map<int, std::vector<Index>> by_owner; // owner -> global node
            for (std::size_t i = 0; i < sub.local.node_ids.size(); ++i) {
                const Index gn = sub.local.node_ids[i];
                const auto o = static_cast<int>(
                    node_owner[static_cast<std::size_t>(gn)]);
                if (o != r) by_owner[o].push_back(gn);
            }
            for (auto& [o, nodes] : by_owner) {
                typhon::ExchangeSchedule::Peer recv_peer;
                recv_peer.rank = o;
                typhon::ExchangeSchedule::Peer send_peer;
                send_peer.rank = r;
                for (const Index gn : nodes) {
                    recv_peer.recv_items.push_back(
                        g2l[static_cast<std::size_t>(r)].at(gn));
                    send_peer.send_items.push_back(
                        g2l[static_cast<std::size_t>(o)].at(gn));
                }
                sub.node_schedule.peers.push_back(std::move(recv_peer));
                subs[static_cast<std::size_t>(o)].node_schedule.peers.push_back(
                    std::move(send_peer));
            }
        }
    }

    return subs;
}

} // namespace bookleaf::part
