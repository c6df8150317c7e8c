#pragma once
/// \file distributed.hpp
/// The flat-MPI analogue driver (paper §III-A / §IV-A): the global mesh is
/// partitioned across in-process ranks (typhon threads), each rank runs
/// Algorithm 1 on its subdomain (owned cells first, node-adjacent ghost
/// layer after), and the paper's communication pattern is reproduced
/// exactly — two ghost exchanges per Lagrangian step (state before GETQ,
/// corner forces before GETACC) plus one global dt min-reduction, and the
/// ghost-aware remap exchanges on ALE/Eulerian remap steps.
///
/// Rank-count invariance is *bitwise*: every owned cell and every node of
/// an owned cell sees the same input bytes as a serial run (ghost data
/// comes from its owning rank), and every cross-entity reduction gathers
/// in ascending global order (Subdomain::assembly_corners), so the
/// gathered fields equal the serial core::Hydro run bit for bit at any
/// rank count — Lagrange, ALE and Eulerian alike.

#include <functional>
#include <string>
#include <vector>

#include "ale/remap.hpp"
#include "ckpt/checkpoint.hpp"
#include "hydro/kernels.hpp"
#include "mesh/mesh.hpp"
#include "obs/live.hpp"
#include "obs/telemetry.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "resil/resilience.hpp"
#include "typhon/fault.hpp"
#include "typhon/typhon.hpp"
#include "util/profiler.hpp"

namespace bookleaf::dist {

/// Cell partitioner callback: global mesh + rank count -> part id per cell.
using Partitioner =
    std::function<std::vector<Index>(const mesh::Mesh&, int)>;

struct Options {
    int n_ranks = 1;
    Real t_end = 0.0;
    hydro::Options hydro;
    /// nullptr selects recursive coordinate bisection (part::rcb).
    Partitioner partitioner;
    int max_steps = std::numeric_limits<int>::max();
    /// Overlap halo exchanges with interior kernels (the nonblocking
    /// typhon path): both per-step exchanges are posted early and interior
    /// cells/nodes compute while the messages are in flight, and the
    /// global dt min-reduction is posted nonblocking alongside the
    /// pre-step state halo (it is finished before the predictor consumes
    /// dt). false selects the paper's blocking schedule as an ablation
    /// baseline. Contract: the two schedules are bitwise identical at
    /// every rank count — the ghost inputs are the same bytes and the
    /// rank-ordered reduction gives the same dt, only the execution order
    /// of per-item-independent kernels changes.
    bool overlap = true;
    /// Halo wire format (orthogonal to `overlap`): coalesced posts one
    /// message per peer per exchange with the fields' slices back-to-back
    /// in schedule order; per_field is the one-message-per-field ablation
    /// baseline. The two land bitwise-identical ghost bytes, so every
    /// (overlap, packing) combination produces bitwise-identical fields.
    typhon::Packing packing = typhon::Packing::coalesced;
    /// Worker threads per rank (the hybrid MPI+OpenMP analogue). 1 keeps
    /// the flat-MPI model: each rank runs its subdomain serially. > 1
    /// attaches a per-rank par::ThreadPool, so every hydro/ALE kernel runs
    /// its existing threaded path over the subdomain and state allocation
    /// first-touches pages in the same blocks the kernels sweep. Bitwise
    /// invariant at any (n_ranks x n_threads): the threaded kernels are
    /// schedule-independent by construction.
    int n_threads = 1;
    /// Intra-rank scheduling strategy (only meaningful with n_threads > 1):
    /// taskgraph runs the ALE advection phases as a dependency graph over
    /// entity blocks — and lets remap() release ghost-touching face blocks
    /// from the gradient-exchange finish instead of a full barrier —
    /// forkjoin is the barrier-per-kernel ablation. Bitwise identical.
    par::Schedule schedule = par::Schedule::taskgraph;
    /// ALE/remap configuration carried over from the source deck. All
    /// three modes run distributed: after the Lagrangian corrector of a
    /// remap-due step, each rank executes the ghost-aware ALE step (see
    /// remap() below), whose exchanges make every owned-entity result
    /// bitwise identical to the serial driver's remap.
    ale::Options ale;
    /// Checkpoint cadence (deck `[checkpoint]`). When a checkpoint is due
    /// every rank sends its owned slice to rank 0 through the typhon
    /// point-to-point layer; rank 0 assembles the fields in ascending
    /// global entity order and writes the file — byte-identical to the
    /// snapshot a serial run would write at the same step (the bitwise
    /// owned-entity contract), which is what makes restart rank-elastic.
    ckpt::Config checkpoint;
    /// Supervised fault recovery (deck `[resilience]`). When enabled, a
    /// rank failure inside the run does not kill the job: the supervisor
    /// rolls the global state back to the newest in-memory snapshot (the
    /// ring fed by `snapshot_every`, falling back to the restart snapshot
    /// or the initial conditions), drops the failed rank, re-decomposes
    /// the mesh over the survivors and resumes — rank-elastic restart in
    /// flight. Because checkpoints are rank-count invariant and the
    /// owned-entity contract is bitwise at any rank count, the recovered
    /// run's result is bitwise identical to an uninterrupted run.
    resil::Supervision supervise;
    /// Deterministic fault plan consulted by the typhon transport (empty =
    /// zero-cost). Kills, delays and slow-downs are scripted per rank by
    /// step/message ordinal and seeded, so a failure reproduces exactly.
    typhon::FaultPlan faults;
    /// Run telemetry (deck `[telemetry]`). When active, every rank
    /// records per-step wall time / dt controller state / retries and the
    /// comm-split kernel breakdown; rank 0 gathers the records over the
    /// in-process wire (tag 501), computes the max/mean step-time
    /// imbalance, cross-checks measured Hub traffic against the
    /// Subdomain wire metadata, and applies the requested sinks.
    /// Passive: the gathered physics fields are bitwise identical with
    /// telemetry on or off. Inactive (the default) costs nothing.
    obs::Options telemetry;
    /// Live-window callback (deck `[telemetry] window_steps` > 0): rank 0
    /// invokes it from inside the run — on the rank-0 driver thread — for
    /// every completed LiveWindow (all ranks' windows plus the online
    /// imbalance), as soon as the tag-502 stream completes it. The online
    /// consumer hook a future load balancer attaches to. Must not throw;
    /// keep it cheap — the rank-0 step loop waits on it.
    std::function<void(const obs::LiveWindow&)> on_window;
};

/// Gathered (global-numbering) result of a distributed run.
struct Result {
    int steps = 0;
    Real t_final = 0.0;
    std::vector<Real> rho, ein; ///< per global cell
    std::vector<Real> u, v;     ///< per global node
    std::vector<Real> x, y;     ///< per global node (remaps move the mesh)
    /// Per-rank kernel timing snapshots (halo / reduce included).
    std::vector<std::array<util::KernelStats, util::kernel_count>> profiles;
    /// Aggregate point-to-point traffic of the run (all ranks): what the
    /// message-coalescing ablation counts. Deliberately *not* part of
    /// bitwise_equal — coalesced and per-field packings move the same
    /// field bytes in different message shapes.
    typhon::Traffic traffic;
    /// Paths of the checkpoints rank 0 wrote during the run (in order).
    std::vector<std::string> checkpoints;
    /// One entry per supervised rank-failure recovery, in order. Empty on
    /// an undisturbed run. Deliberately *not* part of bitwise_equal — a
    /// recovered run is bitwise-compared against an uninterrupted one.
    struct Recovery {
        int failed_rank = -1;        ///< rank typhon reported as failed
        int failed_step = -1;        ///< step it was in (-1 if before any)
        std::int64_t resumed_step = 0; ///< step of the rollback snapshot
        int survivors = 0;           ///< rank count of the resumed attempt
        std::string error;           ///< the failure's error message
    };
    std::vector<Recovery> recoveries;
    /// The gathered telemetry run report (empty/default unless
    /// Options::telemetry is active). Deliberately *not* part of
    /// bitwise_equal — wall times differ between identical runs.
    obs::RunReport telemetry;
    /// Every completed live monitoring window of the successful attempt
    /// (empty unless `[telemetry] window_steps` > 0). Deliberately *not*
    /// part of bitwise_equal — window wall times differ between identical
    /// runs; the physics fields above are the passivity contract.
    std::vector<obs::LiveWindow> windows;
};

/// Partition, run Algorithm 1 to t_end on every rank (including the
/// ALE/Eulerian remap when the deck requests one), gather owned fields
/// back to the global numbering.
Result run(const mesh::Mesh& global, const eos::MaterialTable& materials,
           const std::vector<Real>& rho, const std::vector<Real>& ein,
           const std::vector<Real>& u, const std::vector<Real>& v,
           const Options& opts);

/// Rank-elastic restart: continue a checkpointed run at opts.n_ranks —
/// which need not be the rank count (or the serial driver) that wrote the
/// snapshot. The global snapshot fields are routed through
/// part::decompose: each rank restores its owned + ghost slice from the
/// global arrays (exactly the bytes a serial run would hold there),
/// rebuilds the derived state, and steps from (snapshot.t,
/// snapshot.steps) with the snapshot's unclamped dt growth reference.
/// Contract: the gathered result at t_end is bitwise identical to the
/// uninterrupted run at any rank count, under every (overlap x packing)
/// combination. Throws util::Error if the snapshot does not match the
/// mesh.
Result run(const mesh::Mesh& global, const eos::MaterialTable& materials,
           const ckpt::Snapshot& snapshot, const Options& opts);

/// One distributed ALE/Eulerian remap on a rank's subdomain state — the
/// ghost-aware ALE step dist::run executes after the Lagrangian corrector
/// of every remap-due step. Exposed so the remap unit tests and the
/// remap-halo bench can drive it directly inside a typhon::run.
///
/// Exchange schedule (all blocking, all charged to Kernel::halo):
///   1. pre-remap state refresh — the same fused node{x,y,u,v}+cell{ein}
///      halo as the pre-step exchange, then the ghost dependent state is
///      rebuilt (the corrector left ghosts stale);
///   2. ALE mode only: a node{xt,yt} halo after every Jacobi smoothing
///      pass and after the clamp (fringe stencils are incomplete);
///      Eulerian needs none — the target is the original mesh;
///   3. ghost-cell gradients over part::Subdomain::remap_cell_schedule
///      (face-adjacent ghosts), so limited reconstruction at boundary
///      cells sees bitwise the serial inputs;
///   4. after the cell and dual sweeps: one fused exchange of the cell
///      results {cell_mass, ein} and the dual-mesh results {cnmass,
///      dflux} — ghost dual fluxes are not locally computable (their far
///      faces leave the subdomain) yet drive owned-node momentum.
/// ctx.assembly_corners must point at sub.assembly_corners (dist::run
/// arranges this) so the nodal gathers sum in serial order. Inside
/// dist::run, a rank with a pool and the taskgraph schedule runs 3-4 on a
/// remap-flux graph it builds once per attempt (the gradient exchange
/// overlaps the interior fluxes); this entry point holds no graph and
/// runs the blocking sequence, with bitwise the same result.
void remap(const hydro::Context& ctx, hydro::State& s, const ale::Options& ale,
           ale::Workspace& w, typhon::Comm& comm, const part::Subdomain& sub,
           typhon::Packing packing);

/// True when every gathered field of the two results is bitwise equal
/// (and the step counts match). The single definition of the
/// overlap==blocking contract check — used by the tests, the ablation
/// bench and the distributed_sod example, so a field added to Result only
/// needs comparing here.
[[nodiscard]] bool bitwise_equal(const Result& a, const Result& b);

} // namespace bookleaf::dist
