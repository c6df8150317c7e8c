#pragma once
/// \file typhon.hpp
/// Typhon — the distributed communication substrate.
///
/// The reference BookLeaf performs all inter-process communication through
/// AWE's Typhon library (halo exchanges and collectives over MPI). This
/// reimplementation provides the same API shape as an *in-process* rank
/// runtime: ranks are threads, point-to-point messages pass through tagged
/// mailboxes, and collectives use generation-counted rendezvous. The
/// communication *pattern* of the mini-app (two ghost exchanges per
/// Lagrangian step plus one global min-reduction for dt, paper §III-A and
/// §IV-A) is therefore exercised with real pack/send/recv/unpack data
/// movement, testable on a single machine.
///
/// The point-to-point layer is *request based*: `Comm::isend`/`irecv`
/// return `Request` handles with MPI-style `test`/`wait` semantics (plus a
/// free `wait_all`), and all traffic flows through the abstract `Transport`
/// interface. The in-process `detail::Hub` is one Transport backend; a real
/// MPI backend can slot in behind the same interface without touching any
/// caller. On top of the requests, `exchange_start`/`PendingExchange::finish`
/// split a ghost exchange into a post phase and a completion phase so the
/// distributed driver can overlap interior kernels with in-flight halos.
///
/// A multi-field exchange *coalesces*: one contiguous buffer per peer per
/// exchange, the fields' item slices laid out back-to-back in schedule
/// order, so the per-exchange message count is the peer count rather than
/// fields x peers (the latency-bound regime of small strong-scaled
/// subdomains). Collectives gain a nonblocking form:
/// `Comm::iallreduce_min` returns a `CollRequest` that can be finished
/// later, letting the dt reduction fly concurrently with a halo exchange.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace bookleaf::util {
class Profiler; // util/profiler.hpp — per-kernel timing registry
}

namespace bookleaf::typhon {

class FaultInjector; // fault.hpp — deterministic fault injection

/// Traffic of one directed (src -> dst) peer pair: posted messages and
/// summed payload length.
struct PeerTraffic {
    int src = -1;
    int dst = -1;
    long messages = 0;
    long long reals = 0;
};

/// Aggregate point-to-point traffic moved through a transport over one
/// `typhon::run` (every posted send counts once; `reals` is the summed
/// payload length). The per-peer breakdown (ascending (src, dst), zero
/// pairs omitted) sums to the totals — the obs/ telemetry report slices
/// it per rank.
struct Traffic {
    long messages = 0;
    long long reals = 0;
    std::vector<PeerTraffic> peers;
};

// ---------------------------------------------------------------------------
// Transport — the pluggable point-to-point backend.
// ---------------------------------------------------------------------------

/// Undelivered traffic of one (src, dst, tag) channel: `pending` messages
/// are visible to receives, `held` ones are shadow-queued by the fault
/// injector's delay plan. The watchdog's stall diagnostic snapshots this
/// to show *which* exchanges a silent rank is sitting on.
struct ChannelBacklog {
    int src = -1;
    int dst = -1;
    int tag = 0;
    long pending = 0;
    long held = 0;
};

/// Point-to-point message transport. Semantics mirror MPI's buffered-eager
/// mode: `send` enqueues a copy and returns immediately; receives match on
/// the (src, dst, tag) channel in FIFO order. Implementations must be safe
/// for concurrent calls from all rank contexts.
class Transport {
public:
    virtual ~Transport() = default;

    [[nodiscard]] virtual int n_ranks() const = 0;

    /// Buffered send: enqueue the payload on channel (src, dst, tag) and
    /// return immediately.
    virtual void send(int src, int dst, int tag, std::vector<Real> payload) = 0;

    /// Nonblocking matched probe: pop and return the front message of the
    /// channel, or nullopt if nothing has arrived yet.
    [[nodiscard]] virtual std::optional<std::vector<Real>>
    try_recv(int src, int dst, int tag) = 0;

    /// Blocking matched receive.
    [[nodiscard]] virtual std::vector<Real> recv(int src, int dst, int tag) = 0;

    /// Snapshot of every channel with undelivered messages (ascending
    /// (src, dst, tag); empty channels omitted). Purely observational —
    /// backends without introspection report nothing.
    [[nodiscard]] virtual std::vector<ChannelBacklog> backlog() { return {}; }
};

namespace detail {

/// Shared post office: tagged per-(src, dst, tag) message queues. The
/// in-process Transport backend (ranks are threads of one process).
///
/// With a FaultInjector attached, every send first consults the injector
/// (which may kill the sender or mark the message *held*). Held messages
/// live in a shadow queue per channel: invisible to try_recv — so polling
/// paths (PendingExchange::finish, wait_all) observe delivery reordering
/// against other channels — but a *blocking* recv on the channel promotes
/// them, so liveness and per-channel FIFO order are both preserved and no
/// delay can deadlock a run.
class Hub final : public Transport {
public:
    explicit Hub(int n_ranks, FaultInjector* fault = nullptr)
        : n_ranks_(n_ranks), fault_(fault) {}

    [[nodiscard]] int n_ranks() const override { return n_ranks_; }
    void send(int src, int dst, int tag, std::vector<Real> payload) override;
    [[nodiscard]] std::optional<std::vector<Real>> try_recv(int src, int dst,
                                                            int tag) override;
    [[nodiscard]] std::vector<Real> recv(int src, int dst, int tag) override;
    [[nodiscard]] std::vector<ChannelBacklog> backlog() override;

    /// True when no channel holds an undelivered message. Checked at the
    /// end of typhon::run: a stranded message means a send was posted
    /// that no receive ever matched (e.g. an asymmetric exchange
    /// schedule) — silent data loss that should fail loudly instead.
    [[nodiscard]] bool drained();

    /// Cumulative traffic since construction (all ranks, all channels).
    [[nodiscard]] Traffic traffic();

    /// Wake every blocked recv and make it (and all future blocking
    /// recvs) throw AbortError once no message is available. Called by
    /// typhon::run when a rank dies with an exception: its peers may be
    /// blocked on traffic that will never arrive, and the join must not
    /// hang — the original rank error, not the abort, is what surfaces.
    void abort();

private:
    /// Channel identity. A struct key (not packed bits): the previous
    /// bit-packed uint64 shifted a 32-bit-cast dst into the src field for
    /// large rank ids, silently crossing messages between channels.
    struct Channel {
        int src, dst, tag;
        bool operator==(const Channel&) const = default;
    };
    struct ChannelHash {
        std::size_t operator()(const Channel& c) const {
            // Fibonacci-style mixing of the three fields.
            auto mix = [](std::uint64_t h, std::uint64_t v) {
                h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
                return h;
            };
            std::uint64_t h = 0;
            h = mix(h, static_cast<std::uint32_t>(c.src));
            h = mix(h, static_cast<std::uint32_t>(c.dst));
            h = mix(h, static_cast<std::uint32_t>(c.tag));
            return static_cast<std::size_t>(h);
        }
    };

    int n_ranks_;
    FaultInjector* fault_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::unordered_map<Channel, std::deque<std::vector<Real>>, ChannelHash>
        queues_;
    /// Messages held back by the fault injector's delay plan, per channel.
    /// Once a channel holds anything, every newer send on it queues here
    /// too (FIFO within the channel is inviolable); a blocking recv
    /// promotes the whole backlog into the visible queue.
    std::unordered_map<Channel, std::deque<std::vector<Real>>, ChannelHash>
        held_;
    Traffic traffic_;
    /// Per-(src, dst) send tally under the existing lock; an ordered map
    /// (not a flat n_ranks^2 vector — Hub accepts arbitrarily large rank
    /// ids) whose iteration order gives traffic() its ascending (src,
    /// dst) emit for free. Only pairs that actually sent have entries.
    struct PairTally {
        long messages = 0;
        long long reals = 0;
    };
    std::map<std::pair<int, int>, PairTally> peer_tally_;
    bool aborted_ = false;
};

/// Generation-counted rendezvous for collectives.
class Collective {
public:
    explicit Collective(int n_ranks)
        : n_ranks_(n_ranks), values_(static_cast<std::size_t>(n_ranks)) {}

    enum class Op { min, max, sum };

    Real allreduce(int rank, Real value, Op op);
    void barrier(int rank);
    /// Every rank receives the concatenation of all contributions in rank
    /// order (an allgather).
    std::vector<Real> allgather(int rank, Real value);

    /// Nonblocking deposit half of an allreduce: contributes `value` and
    /// returns the generation token to pass to poll/finish. Each rank may
    /// have at most one collective outstanding (posting a second one —
    /// including any blocking collective or barrier — before finishing
    /// the first would fold both deposits into one generation).
    [[nodiscard]] long post(int rank, Real value, Op op);
    /// True once the posted generation has completed (all ranks arrived).
    [[nodiscard]] bool poll(long generation);
    /// Block until the posted generation completes; returns the result.
    /// Safe to call after completion: the result slot cannot be
    /// overwritten before every rank of the generation has finished,
    /// because the next generation needs all of their deposits.
    [[nodiscard]] Real finish(long generation);

    /// Wake every rank blocked in finish() and make incomplete waits
    /// throw AbortError (see Hub::abort — a dead rank never arrives at
    /// the rendezvous, and the join must not hang on it).
    void abort();

private:
    int n_ranks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Real> values_;
    std::vector<Real> gathered_;
    Real result_ = 0.0;
    int arrived_ = 0;
    long generation_ = 0;
    bool aborted_ = false;
};

/// Thrown out of blocking waits after a peer rank died (Hub::abort /
/// Collective::abort). typhon::run recognises it so the *original* rank
/// failure is what gets rethrown, never the secondary unblocking errors.
struct AbortError final : util::Error {
    AbortError()
        : util::Error("typhon: aborted — a peer rank failed mid-run") {}
};

} // namespace detail

/// What typhon::run throws when a rank dies: the original rank error's
/// message, annotated with *which* rank failed and at what driver step (as
/// last reported through Comm::set_step; -1 when the run never ticked a
/// step). The original message is preserved verbatim as a substring, so
/// callers matching on it keep working; supervisors (dist::run) switch on
/// the type to drive recovery.
struct RankFailure final : util::Error {
    int rank;
    int step;
    RankFailure(int rank_, int step_, const std::string& original)
        : util::Error("typhon: rank " + std::to_string(rank_) + " failed" +
                      (step_ >= 0 ? " at step " + std::to_string(step_) : "") +
                      ": " + original),
          rank(rank_), step(step_) {}
};

// ---------------------------------------------------------------------------
// Requests — nonblocking point-to-point handles.
// ---------------------------------------------------------------------------

/// Handle for an in-flight nonblocking operation (MPI_Request analogue).
/// Send requests complete immediately (buffered-eager transport); receive
/// requests complete when a matching message is harvested by `test` or
/// `wait`. A default-constructed Request is the null request: already
/// complete, empty payload. Movable and copyable (copies share completion
/// state, like MPI handles before MPI_Request_free).
class Request {
public:
    Request() = default;

    /// True once the operation has completed (does not progress it).
    [[nodiscard]] bool done() const { return !state_ || state_->done; }

    /// Nonblocking progress + completion check: for a pending receive,
    /// polls the transport and harvests the message if it has arrived.
    bool test();

    /// Block until complete.
    void wait();

    /// Received payload; empty for sends and the null request. Only valid
    /// after completion (throws util::Error otherwise).
    [[nodiscard]] const std::vector<Real>& data() const;

private:
    friend class Comm;
    friend void wait_all(std::span<Request> requests);
    struct State {
        Transport* transport = nullptr;
        int peer = -1;  ///< remote rank (dst for sends, src for receives)
        int self = -1;  ///< local rank
        int tag = 0;
        bool done = false;
        std::vector<Real> payload;
    };
    explicit Request(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
};

/// Complete every request. Harvests completions in arrival order (the
/// requests may finish out of posting order); when it must block, it
/// blocks on the earliest incomplete request. Requests sharing a channel
/// (same peer and tag) must appear in the span in their posting order —
/// they match the channel's FIFO in that order.
void wait_all(std::span<Request> requests);

/// Handle for an in-flight nonblocking collective (MPI_Iallreduce
/// analogue). Obtained from `Comm::iallreduce_min`; `wait()` blocks until
/// every rank has contributed and returns the reduced value, `test()`
/// polls without blocking. A default-constructed CollRequest is null:
/// complete, value 0. While a CollRequest is outstanding its rank must
/// not enter any other collective (reduce/gather/barrier) — the
/// rendezvous would fold the two operations into one generation.
class CollRequest {
public:
    CollRequest() = default;

    /// Nonblocking completion check.
    [[nodiscard]] bool test();
    /// Block until all ranks arrive; returns the reduced value. Idempotent.
    Real wait();

private:
    friend class Comm;
    CollRequest(detail::Collective* coll, long generation)
        : coll_(coll), generation_(generation) {}
    detail::Collective* coll_ = nullptr;
    long generation_ = 0;
    bool done_ = false;
    Real value_ = 0.0;
};

/// Per-rank communicator handle (the Typhon context). Point-to-point
/// traffic goes through the backend-agnostic Transport; collectives use
/// the in-process rendezvous.
class Comm {
public:
    Comm(int rank, Transport* transport, detail::Collective* coll,
         FaultInjector* fault = nullptr, std::atomic<int>* step_slot = nullptr)
        : rank_(rank), transport_(transport), coll_(coll), fault_(fault),
          step_slot_(step_slot) {}

    [[nodiscard]] int rank() const { return rank_; }
    [[nodiscard]] int size() const { return transport_->n_ranks(); }

    /// Driver step tick: records the step for failure reports (RankFailure
    /// carries it) and gives an attached fault injector its step-kill
    /// window. Cheap no-op when the run has neither.
    void set_step(int step);

    /// Non-blocking enqueue (buffered send — Typhon/MPI eager semantics).
    void send(int dst, int tag, std::span<const Real> data) {
        transport_->send(rank_, dst, tag,
                         std::vector<Real>(data.begin(), data.end()));
    }
    /// Move overload: hands an already-materialised payload straight to
    /// the transport (which takes the vector by value), skipping the span
    /// path's extra copy. The exchange hot path packs per-peer buffers
    /// and sends them through here.
    void send(int dst, int tag, std::vector<Real>&& data) {
        transport_->send(rank_, dst, tag, std::move(data));
    }
    /// Blocking matched receive.
    [[nodiscard]] std::vector<Real> recv(int src, int tag) {
        return transport_->recv(src, rank_, tag);
    }

    /// Nonblocking send: posts the (buffered) send and returns a Request
    /// that is already complete.
    Request isend(int dst, int tag, std::span<const Real> data);
    /// Move overload, as for send().
    Request isend(int dst, int tag, std::vector<Real>&& data) {
        transport_->send(rank_, dst, tag, std::move(data));
        return Request();
    }
    /// Nonblocking receive: returns a Request that completes (via test or
    /// wait) when a message arrives on (src -> this rank, tag).
    [[nodiscard]] Request irecv(int src, int tag);

    void barrier() { coll_->barrier(rank_); }
    [[nodiscard]] Real allreduce_min(Real v) {
        return coll_->allreduce(rank_, v, detail::Collective::Op::min);
    }
    /// Nonblocking min-reduction: contributes `v` immediately and returns
    /// a waitable request, so independent work (e.g. a halo exchange) can
    /// run while the other ranks arrive. At most one collective may be
    /// outstanding per rank (see CollRequest).
    [[nodiscard]] CollRequest iallreduce_min(Real v) {
        return CollRequest(coll_,
                           coll_->post(rank_, v, detail::Collective::Op::min));
    }
    [[nodiscard]] Real allreduce_max(Real v) {
        return coll_->allreduce(rank_, v, detail::Collective::Op::max);
    }
    [[nodiscard]] Real allreduce_sum(Real v) {
        return coll_->allreduce(rank_, v, detail::Collective::Op::sum);
    }
    [[nodiscard]] std::vector<Real> allgather(Real v) {
        return coll_->allgather(rank_, v);
    }

    /// Transport backlog snapshot (see Transport::backlog). Thread-safe;
    /// the watchdog supervisor thread calls it for stall diagnostics.
    [[nodiscard]] std::vector<ChannelBacklog> backlog() const {
        return transport_->backlog();
    }

private:
    int rank_;
    Transport* transport_;
    detail::Collective* coll_;
    FaultInjector* fault_ = nullptr;
    std::atomic<int>* step_slot_ = nullptr;
};

/// Launch `n_ranks` rank threads running `rank_fn(comm)`; joins all and
/// rethrows the first rank exception (after all threads finish), wrapped
/// in a RankFailure naming the failed rank and its last reported step. A
/// rank that dies with an exception aborts the Hub and the Collective, so
/// peers blocked on its traffic or at a rendezvous wake with
/// detail::AbortError instead of hanging the join — the *original* rank
/// error is what gets wrapped, never the secondary aborts. Returns the
/// aggregate point-to-point traffic of the run. An optional FaultInjector
/// scripts deterministic failures into the transport (see fault.hpp);
/// null means no fault hooks are even consulted.
Traffic run(int n_ranks, const std::function<void(Comm&)>& rank_fn,
            FaultInjector* fault = nullptr);

// ---------------------------------------------------------------------------
// Ghost (halo) exchange schedules — the "quant" layer of Typhon.
// ---------------------------------------------------------------------------

/// For one peer rank: which local items to pack and send, and which local
/// (ghost) items to fill from the matching receive. Schedules on the two
/// sides of a peering must list the same items in the same order (built
/// from the global numbering by the partitioner). Empty sides are fine (a
/// schedule may keep separate send-only and recv-only entries for the
/// same peer) and post no message, but at most one entry per peer rank
/// may carry non-empty recv_items: receives match per (peer, tag)
/// channel, so a second non-empty receive from the same peer within one
/// exchange would be ambiguous (enforced by exchange_start). The two
/// sides of a peering must also agree on *whether* data flows: an entry
/// with empty send_items whose remote counterpart expects items leaves
/// the remote receive waiting forever — schedules must be built pairwise
/// consistent, as part::decompose does (the reverse asymmetry, a send
/// nothing ever receives, is caught by typhon::run's drained check).
struct ExchangeSchedule {
    struct Peer {
        int rank = -1;
        std::vector<Index> send_items;
        std::vector<Index> recv_items;
    };
    std::vector<Peer> peers;
};

/// One schedule together with the fields exchanged over its item lists —
/// the unit a *fused* exchange composes. Several groups may share one
/// wire exchange: the per-peer message concatenates every group's field
/// slices (group-major, then field-major), so two
/// halos whose peer sets overlap (e.g. the pre-step node kinematics and
/// the ghost cell energy) collapse to a single message per peer instead
/// of one per schedule.
struct FieldGroup {
    const ExchangeSchedule* schedule = nullptr;
    std::vector<std::span<Real>> fields;
};

/// An in-flight ghost exchange: all sends are posted, all receives are
/// pending requests bound to the destination fields. `finish()` completes
/// the receives (in arrival order) and unpacks each into its field's
/// recv_items; it must be called exactly once, while the bound field spans
/// are still alive.
class PendingExchange {
public:
    PendingExchange() = default;
    PendingExchange(PendingExchange&&) = default;
    /// Move-assignment applies the abandonment guard (below) to the
    /// overwritten target before taking the other exchange's slots.
    PendingExchange& operator=(PendingExchange&& other) noexcept;
    /// Abandoning an exchange without finish() is a caller bug: the
    /// unmatched messages would sit in their channels and a later
    /// exchange on the same tags would unpack them as fresh data. The
    /// destructor asserts in debug builds and best-effort drains any
    /// already-arrived messages (discarding them) in release, so the
    /// failure stays loud or at least localised. (A finish() that threw
    /// — peer schedule mismatch — clears the slots first, so normal
    /// exception propagation is not turned into an abort.)
    ~PendingExchange();

    /// Wait for every pending receive and unpack. Out-of-order friendly:
    /// messages are harvested as they arrive, blocking only when none is
    /// ready. Throws util::Error on a schedule mismatch between peers.
    /// With a profiler, the completion is split between the comm detail
    /// slots: blocked waits charge Kernel::halo_wait and the payload
    /// dispatch into ghost items charges Kernel::halo_unpack (callers
    /// charge the aggregate Kernel::halo around the whole exchange).
    void finish(util::Profiler* profiler = nullptr);
    [[nodiscard]] bool finished() const { return slots_.empty(); }

private:
    friend PendingExchange exchange_start(Comm& comm,
                                          std::span<const FieldGroup> groups,
                                          int tag);
    /// One slice run of a pending message: the recv_items of one group and
    /// the fields unpacked from that group's part of the payload.
    struct Section {
        const std::vector<Index>* recv_items = nullptr;
        std::vector<std::span<Real>> fields;
    };
    /// One pending receive and the sections its payload unpacks into: one
    /// section per group with data for this peer (payload = sum over
    /// sections of fields.size() * recv_items->size() Reals, group-major
    /// then field-major).
    struct Slot {
        Request request;
        std::vector<Section> sections;
    };
    std::vector<Slot> slots_;
};

/// Start exchanging several fields: pack each peer's send_items into one
/// buffer per peer — each field's slice back-to-back in schedule order
/// (field-major) — post all sends and receives, and return the pending
/// completion, which dispatches the slices back into the bound fields.
/// Interior work can run between start and finish while the messages are
/// in flight. One message per peer with data, on `tag`.
[[nodiscard]] PendingExchange
exchange_start(Comm& comm, const ExchangeSchedule& schedule,
               std::initializer_list<std::span<Real>> fields, int tag);

/// Fused form: start several (schedule, fields) groups as ONE wire
/// exchange. A single message goes to each peer rank that appears (with
/// data) in any group — the payload lays the groups' slices back-to-back
/// in group order, each group field-major — so halos with aligned peer
/// sets cost one message per peer total rather than one per schedule.
/// Peers present in only some groups simply omit the other groups'
/// slices (schedules are pairwise consistent, so both sides agree on the
/// layout).
[[nodiscard]] PendingExchange exchange_start(Comm& comm,
                                             std::span<const FieldGroup> groups,
                                             int tag);

/// Exchange one field: pack send_items, post all sends, then receive and
/// unpack recv_items. Tags partition the field space so multiple
/// exchanges can run back to back.
void exchange(Comm& comm, const ExchangeSchedule& schedule,
              std::span<Real> field, int tag);

/// Blocking multi-field exchange: exchange_start + finish.
void exchange_all(Comm& comm, const ExchangeSchedule& schedule,
                  std::initializer_list<std::span<Real>> fields, int tag);

/// Blocking fused multi-group exchange: exchange_start + finish.
void exchange_all(Comm& comm, std::span<const FieldGroup> groups, int tag);

} // namespace bookleaf::typhon
