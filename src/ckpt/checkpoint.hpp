#pragma once
/// \file checkpoint.hpp
/// Checkpoint/restart subsystem: bitwise-exact snapshots of a run with
/// rank-elastic distributed restart.
///
/// A Snapshot holds everything needed to continue a run *exactly*: the
/// simulation clock (t, step count), the unclamped dt growth reference
/// (the t_end-clamp continuation fix must survive a round trip), and the
/// primary state fields in **ascending global entity order** — node
/// kinematics and masses, cell thermodynamics (including the previous
/// step's viscosity scalar, which the next getdt reads), the Lagrangian
/// cell masses, and the sub-zonal corner masses the remap transports.
/// Everything else in hydro::State is derived deterministically from
/// these by the same kernels an uninterrupted run would use
/// (rebuild_derived), so a restored state is bit-for-bit the mid-run
/// state.
///
/// Because the distributed driver is bitwise identical to the serial
/// core::Hydro on owned entities at any rank count, a snapshot written at
/// N ranks (each rank's owned slice gathered to a writer rank in global
/// order) is byte-identical to one written serially at the same step —
/// and restarting routes the global arrays back through part::decompose,
/// so a run may checkpoint at 2 ranks and restart at 4, or back to
/// serial, and still finish bitwise identical to the uninterrupted run.
///
/// On-disk format (native endianness, version-gated):
///   header: magic "BLFCKPT\n", u32 version, u32 field count,
///           u64 mesh hash (deck/mesh identity), i64 steps, f64 t,
///           f64 dt (unclamped growth reference), f64 regrow (health-guard
///           re-growth ceiling, v2), i64 n_nodes, i64 n_cells,
///           u64 FNV-1a checksum of all preceding header bytes (v2)
///   fields: per field, a 12-byte name, u64 count, u64 FNV-1a checksum of
///           the raw bytes, then the f64 payload in ascending global
///           entity order.
/// Every structural violation (bad magic, unsupported version, truncated
/// payload, checksum or count mismatch) is a util::Error, never UB. The
/// header checksum means a bit-flipped header cannot silently alter the
/// restart clock or entity counts, and the reader bounds every allocation
/// by the *actual file size* before trusting a count — hostile bytes can
/// make it throw, never crash or OOM. Writes are atomic: the stream goes
/// to `<path>.tmp` and is renamed into place only after a successful
/// flush, so a crash mid-write can never leave a truncated file where
/// snapshot discovery or `restart_from` would pick it up.

#include <cstdint>
#include <string>
#include <vector>

#include "eos/eos.hpp"
#include "hydro/state.hpp"
#include "mesh/mesh.hpp"
#include "util/types.hpp"

namespace bookleaf::ckpt {

/// On-disk format version (bump on any layout change; readers reject
/// other versions loudly). v2 appended the header checksum.
inline constexpr std::uint32_t format_version = 2;

/// Everything needed to continue a run exactly (see file comment). All
/// arrays are global-numbering, ascending entity id; corner data is flat
/// `cell * 4 + k`.
struct Snapshot {
    std::uint64_t mesh_hash = 0; ///< identity of the generating mesh/deck
    std::int64_t steps = 0;      ///< completed steps
    Real t = 0.0;                ///< simulation time
    Real dt = 0.0;               ///< *unclamped* dt growth reference
    Real regrow = 0.0;           ///< health-guard re-growth ceiling (0 = off)
    // --- node fields -------------------------------------------------------
    std::vector<Real> x, y;      ///< positions
    std::vector<Real> u, v;      ///< velocities
    std::vector<Real> node_mass; ///< assembled nodal masses
    // --- cell fields -------------------------------------------------------
    std::vector<Real> rho, ein;  ///< density, specific internal energy
    std::vector<Real> q;         ///< viscosity scalar (next getdt reads it)
    std::vector<Real> cell_mass; ///< Lagrangian cell masses
    // --- corner fields [cell*4 + k] ----------------------------------------
    std::vector<Real> cnmass;    ///< sub-zonal corner masses (remap state)

    [[nodiscard]] Index n_nodes() const { return static_cast<Index>(x.size()); }
    [[nodiscard]] Index n_cells() const {
        return static_cast<Index>(rho.size());
    }
};

/// Checkpoint cadence and restart configuration (deck section
/// `[checkpoint]`). Checkpoints are written after a *completed natural
/// step* — they never clamp or otherwise perturb the trajectory, so a
/// checkpointing run is bitwise the run without checkpoints.
struct Config {
    int every_steps = 0;  ///< write every N steps; 0 disables
    Real at_time = 0.0;   ///< one-shot at the first step with t >= at_time
    std::string prefix = "bookleaf"; ///< output path prefix
    std::string restart_from;        ///< deck key: snapshot to restore
    bool halt_after = false; ///< stop the run right after writing one

    [[nodiscard]] bool enabled() const {
        return every_steps > 0 || at_time > 0.0;
    }
    /// Is a checkpoint due after the step that advanced t_prev -> t?
    [[nodiscard]] bool due(std::int64_t step, Real t_prev, Real t) const {
        return (every_steps > 0 && step % every_steps == 0) ||
               (at_time > 0.0 && t_prev < at_time && t >= at_time);
    }
    /// Output path for the checkpoint written after `step`.
    [[nodiscard]] std::string path_for(std::int64_t step) const {
        return prefix + "_" + std::to_string(step) + ".ckpt";
    }
};

/// Identity hash of the generating mesh (FNV-1a over counts, coordinates,
/// connectivity, regions and BC masks, all in canonical order) — the
/// snapshot's "deck hash". A renumbered mesh hashes like its caller's
/// numbering. A restore against a mesh with a different hash is rejected:
/// the global entity order the fields are laid out in would not match.
[[nodiscard]] std::uint64_t mesh_hash(const mesh::Mesh& mesh);

/// FNV-1a over raw bytes (the per-field checksum).
[[nodiscard]] std::uint64_t checksum(const void* data, std::size_t bytes);

/// Serialize to `path`, atomically: the bytes stream to `<path>.tmp` and
/// the file is renamed into place only after a successful flush (a failed
/// write removes the temporary). Throws util::Error on IO failure or
/// inconsistent field sizes.
void write(const std::string& path, const Snapshot& snapshot);

/// Deserialize from `path`. Throws util::Error on a missing file, bad
/// magic, unsupported version, header or per-field checksum failure,
/// count mismatch, or truncation. Allocations are bounded by the actual
/// file size before any count from the header is trusted.
[[nodiscard]] Snapshot read(const std::string& path);

/// Capture a snapshot from a whole-mesh state, in canonical order (the
/// state itself may be in any storage order of `mesh`). `regrow` is the
/// driver's health-guard re-growth ceiling (0 when inactive) — it is part
/// of the exact continuation state.
[[nodiscard]] Snapshot capture(const mesh::Mesh& mesh, const hydro::State& s,
                               Real t, Real dt, std::int64_t steps,
                               Real regrow = 0.0);

/// Rebuild every derived field of `s` from the restored primaries, using
/// exactly the per-cell sequence getgeom/getpc (and initialise) use:
/// geometry cache + volumes + characteristic lengths from x/y, EoS from
/// rho/ein. Masses (cell_mass, cnmass, node_mass) are primaries and are
/// left untouched. Throws util::Error on a non-positive volume.
void rebuild_derived(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
                     hydro::State& s);

/// Restore a whole-mesh state from a snapshot: validates the mesh hash and
/// entity counts, copies the primary fields from canonical into `mesh`'s
/// storage order, rebuilds the derived state and seeds the step-start
/// scratch copies. The state must already be allocated for `mesh`.
void restore(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
             const Snapshot& snapshot, hydro::State& s);

} // namespace bookleaf::ckpt
