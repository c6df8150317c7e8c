/// \file lagstep.cpp
/// One predictor-corrector Lagrangian step (the paper's Algorithm 1
/// LAGSTEP): a forward-Euler predictor to the half step time-centres the
/// thermodynamic state; the corrector then advances velocity (getacc) and
/// the full state with second-order accuracy. Total energy is conserved
/// to round-off because getacc and getein use the same corner forces and
/// the same time-centred velocities.

#include "hydro/kernels.hpp"
#include "hydro/stepgraph.hpp"

namespace bookleaf::hydro {

void lagstep(const Context& ctx, State& s, Real dt) {
    // The same kernel sequence expressed as a dependency graph over
    // cell/node blocks (see stepgraph.hpp), bitwise identical to the
    // fork-join sequence below. The driver builds the graph only when it
    // applies (threaded pool, gather assembly) — a null pointer falls
    // through to fork-join.
    if (ctx.stepgraph != nullptr && ctx.stepgraph->state() == &s) {
        ctx.stepgraph->run(dt);
        return;
    }

    // Snapshot the step-start state the predictor/corrector rewind to.
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::other);
        s.x0 = s.x;
        s.y0 = s.y;
        s.u0 = s.u;
        s.v0 = s.v;
        s.ein0 = s.ein;
    }

    const Real half_dt = Real(0.5) * dt;

    // --- predictor: thermodynamic state to t + dt/2 ------------------------
    getq(ctx, s);
    getforce(ctx, s);
    getgeom(ctx, s, s.u0, s.v0, half_dt);
    getrho(ctx, s);
    getein(ctx, s, s.u0, s.v0, half_dt);
    getpc(ctx, s);

    // --- corrector: full step with time-centred quantities ------------------
    // Nothing above wrote u or v, so getq reuses the predictor's limiters.
    getq(ctx, s, Phase::corrector);
    getforce(ctx, s);
    getacc(ctx, s, dt);
    getgeom(ctx, s, s.ubar, s.vbar, dt);
    getrho(ctx, s);
    getein(ctx, s, s.ubar, s.vbar, dt);
    getpc(ctx, s);
}

} // namespace bookleaf::hydro
