#pragma once
/// \file live.hpp
/// Live run monitoring: in-run windowed telemetry, an NDJSON event
/// stream, and a hang-detection watchdog.
///
/// The PR 7 telemetry layer answers "where did the time go" only after
/// the run ends (rank records are gathered at shutdown, tag 501); a hung
/// or badly imbalanced run reports nothing at all. This layer closes that
/// gap while the run is in flight:
///
/// * every `window_steps` steps each rank folds its recent StepRecords
///   into one compact WindowRecord (WindowFolder) and streams it to
///   rank 0 over tag 502, overlapped with compute;
/// * rank 0 drains the stream opportunistically (LiveAssembler), computes
///   the per-window obs::Imbalance — the online signal the ROADMAP
///   load-balancing item needs — and surfaces it through
///   dist::Options::on_window + dist::Result::windows;
/// * every event is appended to a crash-survivable NDJSON stream
///   (LiveStream, schema "bookleaf.live/1"): run_start, window,
///   imbalance, stall, recovery, run_end — one JSON object per line,
///   flushed per line, so a killed run leaves a usable trail;
/// * a Watchdog tracks per-rank step-progress epochs and window
///   arrivals; a rank whose windows stop arriving for
///   `watchdog_factor` x the EWMA window time (plus an absolute grace
///   floor) is flagged as stalled, with a diagnostic built from the
///   transport's held/pending backlog, and can optionally be escalated
///   into a typhon::RankFailure so the supervised recovery loop handles
///   silent hangs the fault-tolerance layer cannot otherwise see.
///
/// Contract (same as the rest of obs/): monitoring OFF is zero cost
/// (drivers skip every hook), monitoring ON is bitwise passive — records
/// are folded after the physics of a step commits and the tag-502 stream
/// never carries state, so a live-on run is bitwise identical to a
/// live-off run at every (ranks x schedule x overlap x packing).

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "typhon/typhon.hpp"
#include "util/error.hpp"
#include "util/profiler.hpp"
#include "util/types.hpp"

namespace bookleaf::obs {

// ---------------------------------------------------------------------------
// Window folding — the unit of the live stream.
// ---------------------------------------------------------------------------
// (WindowRecord itself — and its fold_step/pack/unpack/json helpers —
// lives in telemetry.hpp next to StepRecord, because RankRecord retains
// windows too; this header owns the machinery built on top of it.)

/// Per-rank window folder: feed it every completed StepRecord; every
/// `window_steps` calls it returns the finished window (profiler deltas
/// for halo/reduce wait and swept items computed against the snapshot
/// taken at the window's start). Steps are consumed at add() time, so a
/// bounded step ring can evict records without racing the fold.
class WindowFolder {
public:
    /// `profiler` may be null (no wait/items attribution, e.g. tests).
    WindowFolder(int rank, long window_steps,
                 const util::Profiler* profiler = nullptr);

    /// Fold one completed step; returns the finished window when this
    /// step closes one.
    [[nodiscard]] std::optional<WindowRecord> add(const StepRecord& s);

    /// Windows produced so far (== every rank's tag-502 send count, since
    /// all ranks step in lockstep under the collective dt).
    [[nodiscard]] long produced() const { return produced_; }

private:
    void begin_window();

    int rank_;
    long every_;
    const util::Profiler* profiler_;
    WindowRecord cur_;
    long produced_ = 0;
    bool have_base_ = false;
    std::array<util::KernelStats, util::kernel_count> base_{};
};

// ---------------------------------------------------------------------------
// Bounded step retention (the [telemetry] max_steps ring).
// ---------------------------------------------------------------------------

/// Bounded StepRecord retention: keeps at most `max_steps` recent records
/// (0 = unbounded, the historical behavior); evicted records are folded
/// into a running WindowRecord aggregate so nothing is silently lost —
/// the report's per-rank totals (step_wall_s, retries, remaps) stay exact
/// however long the run. The evicted aggregate has no profiler deltas
/// (halo/reduce wait stay 0): those belong to the live window stream.
class StepRing {
public:
    explicit StepRing(long max_steps = 0) : capacity_(max_steps) {}

    void push(const StepRecord& s);

    [[nodiscard]] const std::deque<StepRecord>& steps() const {
        return steps_;
    }
    /// Retained records as the vector shape RankRecord::steps wants.
    [[nodiscard]] std::vector<StepRecord> take() const {
        return {steps_.begin(), steps_.end()};
    }
    /// Aggregate of every evicted record (steps == 0 when none evicted).
    [[nodiscard]] const WindowRecord& evicted() const { return evicted_; }
    /// Total records ever pushed (retained + evicted).
    [[nodiscard]] long total() const { return total_; }

private:
    long capacity_;
    long total_ = 0;
    std::deque<StepRecord> steps_;
    WindowRecord evicted_;
};

// ---------------------------------------------------------------------------
// Rank-0 assembly: per-window imbalance.
// ---------------------------------------------------------------------------

/// One completed monitoring window across all ranks: the per-rank records
/// (rank order) and the max/mean busy-time imbalance over the window —
/// the online form of the end-of-run obs::Imbalance signal.
struct LiveWindow {
    long index = 0;
    std::vector<WindowRecord> ranks;
    Imbalance imbalance;
};

/// Imbalance of one window: max over ranks of window busy time (wall
/// minus blocked waits) divided by the mean (the same statistic
/// imbalance_of computes over whole runs).
[[nodiscard]] Imbalance window_imbalance(const std::vector<WindowRecord>& ranks);

/// Rank 0's stream assembler: feed windows as they arrive (per-rank FIFO
/// order, which the tag-502 channel guarantees); whenever every rank's
/// next window is present the completed LiveWindow pops out.
class LiveAssembler {
public:
    explicit LiveAssembler(int n_ranks)
        : per_rank_(static_cast<std::size_t>(n_ranks)) {}

    /// Returns the LiveWindows completed by this arrival (0 or more).
    [[nodiscard]] std::vector<LiveWindow> add(WindowRecord w);

    [[nodiscard]] long completed() const { return completed_; }

private:
    std::vector<std::deque<WindowRecord>> per_rank_;
    long completed_ = 0;
};

// ---------------------------------------------------------------------------
// The NDJSON event stream ("bookleaf.live/1").
// ---------------------------------------------------------------------------

/// Crash-survivable event stream: one compact JSON object per line,
/// flushed after every line, so a killed (or hung-then-killed) run leaves
/// every event up to the failure on disk — the one thing the end-of-run
/// JSON report cannot do. Events carry a monotone "seq" so a validator
/// can assert nothing was lost. Thread-safe: the rank-0 driver thread and
/// the watchdog supervisor thread both append.
///
/// Schema "bookleaf.live/1" events: run_start (carries the schema tag),
/// window, imbalance, stall, recovery, run_end — built by the event
/// builders at the end of this header, which both drivers share.
class LiveStream {
public:
    LiveStream() = default;
    /// Opens (truncates) `path`; "" leaves the stream closed (emit is a
    /// no-op — callers need no separate gate).
    explicit LiveStream(const std::string& path);

    [[nodiscard]] bool open() const { return out_.is_open(); }

    /// Append one event: injects the monotone "seq" member, writes the
    /// compact single-line form and flushes.
    void emit(Json event);

    [[nodiscard]] long events() const;

private:
    mutable std::mutex mutex_;
    std::ofstream out_;
    long seq_ = 0;
};

// ---------------------------------------------------------------------------
// Hang detection.
// ---------------------------------------------------------------------------

/// Thrown by a rank the watchdog poisoned (escalation enabled): typhon's
/// runner wraps it — like any rank error — in a RankFailure naming the
/// rank and step, which the dist supervisor's recovery loop already
/// handles. That is the whole escalation path: a silent hang becomes an
/// ordinary recoverable rank failure.
struct StallEscalated final : util::Error {
    int rank;
    explicit StallEscalated(int rank_)
        : util::Error("watchdog: stall escalated on rank " +
                      std::to_string(rank_)),
          rank(rank_) {}
};

/// Stall detector over the window stream. Two kinds of state:
///
/// * per-rank progress epochs (`note_step`): relaxed atomics the rank
///   threads bump once per step — one store + one poison-flag load, the
///   entire per-step cost of an armed watchdog;
/// * per-rank window arrival times (`note_window*`): rank 0 stamps each
///   tag-502 arrival; an EWMA of the inter-arrival gap per rank gives the
///   expected window cadence.
///
/// `check(now_ms)` flags every rank silent for longer than
/// `factor x EWMA + grace_ms` (the grace floor absorbs OS jitter; a rank
/// with no arrivals yet borrows the mean EWMA of the ranks that have
/// some). A flagged rank is reported once until its windows resume. With
/// escalation enabled, check() also poisons the stalled rank: its next
/// note_step returns true and the rank throws StallEscalated.
///
/// The decision core is deterministic — tests drive note_window_at /
/// check with synthetic clocks; only note_window/check_now touch the real
/// steady clock. Limitation (shared with real-MPI watchdogs that lack an
/// external killer): a rank that never reaches note_step again cannot
/// throw for itself — escalation relies on the stalled rank still making
/// (slow or delayed-delivery) progress, which is exactly the delay_rank
/// fault model.
class Watchdog {
public:
    /// One detected stall.
    struct Stall {
        int rank = -1;
        long last_step = -1;    ///< last step-progress epoch seen
        long windows = 0;       ///< windows that did arrive from the rank
        double silent_ms = 0.0; ///< time since the rank's last window
        double threshold_ms = 0.0; ///< factor x EWMA + grace at detection
        bool escalated = false;
    };

    Watchdog(int n_ranks, double factor, double grace_ms, bool escalate);

    /// Rank-thread step tick. Returns true when the rank was poisoned
    /// (escalated stall) and must throw StallEscalated.
    [[nodiscard]] bool note_step(int rank, long step);

    /// Stamp a window arrival with the real clock / a synthetic time.
    void note_window(int rank);
    void note_window_at(int rank, double now_ms);

    /// Evaluate stalls at `now_ms` (ms on the same axis note_window_at
    /// used; now_ms() for the real clock). Deterministic given the
    /// arrival history. Poisons flagged ranks when escalation is on.
    [[nodiscard]] std::vector<Stall> check(double now_ms);
    [[nodiscard]] std::vector<Stall> check_now();

    [[nodiscard]] long last_step(int rank) const;
    /// Milliseconds since construction on the steady clock.
    [[nodiscard]] double now_ms() const;
    [[nodiscard]] bool escalate() const { return escalate_; }
    [[nodiscard]] int n_ranks() const { return n_ranks_; }

private:
    int n_ranks_;
    double factor_;
    double grace_ms_;
    bool escalate_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<std::atomic<long>> steps_;
    std::vector<std::atomic<bool>> poisoned_;
    mutable std::mutex mutex_;
    std::vector<double> last_arrival_ms_; ///< 0 = run start
    std::vector<double> ewma_ms_;         ///< 0 = no arrivals yet
    std::vector<long> windows_;
    std::vector<bool> flagged_;
};

/// RAII supervisor: a thread that polls `dog.check_now()` every
/// `poll_ms` and hands each detected stall to `on_stall` (called on the
/// supervisor thread — sinks must be thread-safe, as LiveStream is).
/// stop() is idempotent and joined by the destructor, so scoping a
/// session inside the rank-0 lambda guarantees the callback never
/// outlives anything it captured (e.g. the Comm used for backlog
/// diagnostics), even on exception unwind.
class WatchdogSession {
public:
    WatchdogSession(Watchdog& dog, double poll_ms,
                    std::function<void(const Watchdog::Stall&)> on_stall);
    WatchdogSession(const WatchdogSession&) = delete;
    WatchdogSession& operator=(const WatchdogSession&) = delete;
    ~WatchdogSession();

    void stop();

private:
    Watchdog& dog_;
    std::function<void(const Watchdog::Stall&)> on_stall_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

// ---------------------------------------------------------------------------
// "bookleaf.live/1" events: one builder per kind, shared by both drivers.
// Every event of an attempt carries its "attempt" ordinal (0 for the
// serial driver and undisturbed distributed runs).
// ---------------------------------------------------------------------------

/// run_start: the schema tag and the monitoring configuration.
[[nodiscard]] Json run_start_event(const std::string& label, int n_ranks,
                                   const Options& opts);

/// Stream one arrived window: emit its "window" event, feed it to the
/// assembler and emit an "imbalance" event for every LiveWindow that
/// completes; those are returned in order.
std::vector<LiveWindow> stream_window(LiveStream& out,
                                      LiveAssembler& assembler, int attempt,
                                      WindowRecord w);

/// stall: the detection, every rank's last completed step and the
/// transport channels still holding undelivered messages — the hang
/// diagnostic.
[[nodiscard]] Json
stall_event(int attempt, const Watchdog::Stall& stall, const Watchdog& dog,
            const std::vector<typhon::ChannelBacklog>& backlog);

/// recovery: the failed attempt and where the next one resumes.
[[nodiscard]] Json recovery_event(int attempt, const RecoveryEvent& r);

/// run_end: the run's outcome and event totals.
[[nodiscard]] Json run_end_event(long steps, double t_final, double wall_s,
                                 long windows, long stalls, long recoveries);

} // namespace bookleaf::obs
